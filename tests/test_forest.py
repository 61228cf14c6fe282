import re
import tracemalloc

import numpy as np
import pytest

from disdf import forest as forest_module
from disdf.cascade import CascadeModel, LevelModel
from disdf.config import TrainConfig
from disdf.data import fold_ids
from disdf.errors import DataError, DimensionError, ModelFormatError
from disdf.forest import (
    ForestModel,
    class_vectors_batch,
    routed_tree_dists,
    train_forests,
    uniform_weights,
)
from disdf.serialize import load_model, save_model
from disdf.tree import (
    COMPLETELY_RANDOM,
    RANDOM_SPLIT,
    TreeParams,
    grow_bytes,
)
from tests.oracles import forest_leaves, forest_tree_dists_batch
from tests.test_tree import fold_train_rows, leaf_forest, make_ds, one_forest

# three-tree, three-class leaf distributions from the worked weighted-average
# example, and leaf class counts that give them; tree 3 is a one-hot leaf
DISTS = np.array(
    [
        [0.4, 0.4, 0.2],
        [0.2, 0.5, 0.3],
        [1.0, 0.0, 0.0],
    ]
)
COUNTS = [[2, 2, 1], [2, 5, 3], [1, 0, 0]]


def example_forest():
    return leaf_forest(COUNTS, n_features=2)


def class_vector(forest, x, w):
    """Class vector of one input under weights ``w``, through the batch form."""
    x = np.asarray(x, dtype=float)
    return class_vectors_batch(forest.with_weights(w), x[None, :])[0]


TABLE = ("feature", "threshold", "children", "counts", "roots", "weights")


class TestTrainForest:
    def test_singleton_weights(self):
        ds = make_ds([[0.0], [1.0]], [0, 1], 2)
        f = one_forest(ds, RANDOM_SPLIT, 1, TreeParams(), np.random.default_rng(0))
        np.testing.assert_array_equal(f.weights, [1.0])

    def test_hundred_trees_uniform_weights(self):
        rng = np.random.default_rng(1)
        ds = make_ds(rng.normal(size=(30, 4)), rng.integers(2, size=30), 2)
        f = one_forest(ds, RANDOM_SPLIT, 100, TreeParams(), rng)
        assert f.n_trees == 100
        np.testing.assert_allclose(f.weights, 0.01)

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_same_seed_identical_forest(self, kind):
        rng = np.random.default_rng(2)
        ds = make_ds(rng.normal(size=(25, 3)), rng.integers(2, size=25), 2)
        f1 = one_forest(ds, kind, 7, TreeParams(), np.random.default_rng(5))
        f2 = one_forest(ds, kind, 7, TreeParams(), np.random.default_rng(5))
        for name in TABLE:
            np.testing.assert_array_equal(getattr(f1, name), getattr(f2, name))

    def test_table_numbers_all_trees_breadth_first(self):
        rng = np.random.default_rng(8)
        ds = make_ds(rng.normal(size=(30, 3)), rng.integers(3, size=30), 3)
        f = one_forest(ds, COMPLETELY_RANDOM, 4, TreeParams(), np.random.default_rng(9))
        assert f.feature.dtype == f.children.dtype == f.roots.dtype == np.int32
        # a breadth-first walk over all trees at once, depth by depth, tree by
        # tree and left child first, meets the global ids in increasing order
        nodes, leaves = [], []
        frontier = list(f.roots)
        while frontier:
            nodes += [ref for ref in frontier if ref >= 0]
            leaves += [~ref for ref in frontier if ref < 0]
            frontier = [
                f.children[2 * ref + go_left]
                for ref in frontier
                if ref >= 0
                for go_left in (1, 0)
            ]
        assert nodes == list(range(f.feature.size))
        assert leaves == list(range(f.dist.shape[0]))
        assert f.feature.size > 4 and np.array_equal(f.roots, np.arange(4))

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_growth_temporaries_bounded(self, kind):
        # an ecoli-shaped forest: 224 rows x 7 features, 8 classes, 50 trees
        rng = np.random.default_rng(0)
        ds = make_ds(rng.normal(size=(224, 7)), rng.integers(8, size=224), 8)
        tracemalloc.start()
        try:
            one_forest(ds, kind, 50, TreeParams(), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6_000_000

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_one_large_forest_scored_in_bounded_chunks(self, kind):
        # one forest of 20 trees on 1000 rounded rows: 20,000 positions at
        # the root, scored SCORE_POSITIONS at a time
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=(1000, 30)).round(1), rng.integers(2, size=1000), 2)
        tracemalloc.start()
        try:
            one_forest(ds, kind, 20, TreeParams(), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    @pytest.mark.parametrize("m, C, decimals", [
        pytest.param(2, 8, None, id="2-8"),
        pytest.param(30, 2, None, id="30-2"),
        pytest.param(2, 8, 1, id="2-8-rounded"),
        pytest.param(30, 2, 1, id="30-2-rounded"),
    ])
    def test_grow_bytes_estimates_a_slot_peak(self, kind, m, C, decimals):
        # a cascade slot: 3 fold forests and the refit forest in one frontier,
        # on tie-free columns or on rounded ones, where every column is tied
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, m))
        if decimals is not None:
            X = X.round(decimals)
        ds = make_ds(X, rng.integers(C, size=300), C)
        row_sets = fold_train_rows(ds.n, 3, 2) + [np.arange(ds.n)]
        rngs = [np.random.default_rng(s) for s in range(len(row_sets))]
        n_positions = 12 * sum(len(rows) for rows in row_sets)
        tracemalloc.start()
        try:
            train_forests(ds, [kind] * len(row_sets), 12, TreeParams(), row_sets, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slot, fixed = grow_bytes(ds, [kind], n_positions)
        estimate = slot + fixed
        assert 0.5 * estimate <= peak <= estimate

    @pytest.mark.parametrize("m, C, decimals", [
        pytest.param(2, 8, None, id="2-8"),
        pytest.param(30, 2, None, id="30-2"),
        pytest.param(2, 8, 1, id="2-8-rounded"),
        pytest.param(30, 2, 1, id="30-2-rounded"),
    ])
    def test_grow_bytes_estimates_a_mixed_group_peak(self, m, C, decimals):
        # a slot group at one worker: four slots of both kinds in one frontier
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, m))
        if decimals is not None:
            X = X.round(decimals)
        ds = make_ds(X, rng.integers(C, size=300), C)
        slot = fold_train_rows(ds.n, 3, 2) + [np.arange(ds.n)]
        group = [RANDOM_SPLIT, COMPLETELY_RANDOM] * 2
        kinds = [kind for kind in group for _ in slot]
        rngs = [np.random.default_rng(s) for s in range(len(kinds))]
        slot_positions = 12 * sum(len(rows) for rows in slot)
        tracemalloc.start()
        try:
            train_forests(ds, kinds, 12, TreeParams(), slot * len(group), rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_slot, fixed = grow_bytes(ds, group, slot_positions)
        estimate = len(group) * per_slot + fixed
        assert 0.5 * estimate <= peak <= estimate

    def test_empty_dataset_rejected(self):
        ds = make_ds(np.empty((0, 1)), np.empty(0, dtype=int), 2)
        with pytest.raises(DataError):
            one_forest(ds, RANDOM_SPLIT, 3, TreeParams(), np.random.default_rng(0))


class TestTreeDists:
    def test_example_rows(self):
        f = example_forest()
        out = forest_tree_dists_batch(f, np.zeros((1, 2)))[0]
        np.testing.assert_allclose(out, DISTS)

    def test_dist_is_the_counts_over_their_sums_computed_once(self):
        f = example_forest()
        np.testing.assert_array_equal(f.dist, DISTS)
        # cached, so single-row predictions do not divide again
        assert f.dist is f.dist

    def test_single_tree_matrix(self):
        f = leaf_forest([3, 7], n_features=1)
        out = forest_tree_dists_batch(f, [[5.0]])[0]
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out[0], [0.3, 0.7])

    def test_rows_sum_to_one_property(self):
        rng = np.random.default_rng(3)
        ds = make_ds(rng.normal(size=(40, 5)), rng.integers(3, size=40), 3)
        f = one_forest(ds, RANDOM_SPLIT, 12, TreeParams(), rng)
        dists = forest_tree_dists_batch(f, rng.normal(size=(50, 5)))
        np.testing.assert_allclose(dists.sum(axis=2), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            forest_tree_dists_batch(example_forest(), np.zeros((1, 9)))


def random_forest(rng, n_trees, n_features, num_classes, split_p=0.7, max_depth=6):
    """A forest of random tree shapes, numbered breadth-first as the grower numbers them.

    Each node above ``max_depth`` splits with probability ``split_p``, so
    some roots are leaves; leaves hold random class counts, so two leaves
    almost surely differ in their distributions.
    """
    feature, threshold, children, counts = [], [], [], []
    roots = [None] * n_trees
    # slots: where each node of the current depth is referenced from
    level = [(roots, t) for t in range(n_trees)]
    for depth in range(max_depth + 1):
        next_level = []
        for table, at in level:
            if depth < max_depth and rng.random() < split_p:
                table[at] = len(feature)
                feature.append(rng.integers(n_features))
                threshold.append(rng.normal())
                children += [None, None]
                next_level += [(children, len(children) - 2), (children, len(children) - 1)]
            else:
                table[at] = ~len(counts)
                counts.append(rng.integers(1, 50, size=num_classes))
        level = next_level
    return ForestModel(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        children=np.array(children, dtype=np.int32),
        counts=np.array(counts, dtype=np.uint32),
        roots=np.array(roots, dtype=np.int32),
        weights=uniform_weights(n_trees),
        kind=RANDOM_SPLIT,
        n_features=n_features,
    )


def reference_leaves(forest, X):
    """The leaf each row reaches in each tree, one position at a time."""
    leaves = np.empty((X.shape[0], forest.n_trees), dtype=np.intp)
    for r, x in enumerate(X):
        for t, node in enumerate(forest.roots):
            while node >= 0:
                go_left = x[forest.feature[node]] <= forest.threshold[node]
                node = forest.children[2 * node + go_left]
            leaves[r, t] = ~node
    return leaves


def inputs_with_ties(rng, forest, n):
    """Normal inputs, a quarter of whose cells equal some split threshold."""
    X = rng.normal(size=(n, forest.n_features))
    if forest.threshold.size:
        tie = rng.random(X.shape) < 0.25
        X[tie] = rng.choice(forest.threshold, size=tie.sum())
    return X


class TestWalker:
    """Every route goes through one walker; it must match a position-at-a-time walk."""

    @pytest.mark.parametrize("seed", range(6))
    def test_leaves_equal_a_scalar_walk(self, seed):
        rng = np.random.default_rng(seed)
        forest = random_forest(rng, 7, 3, 4, split_p=[0.5, 0.7, 0.9][seed % 3])
        X = inputs_with_ties(rng, forest, 40)
        np.testing.assert_array_equal(forest_leaves(forest, X), reference_leaves(forest, X))

    def test_concatenated_forests_equal_a_scalar_walk(self):
        rng = np.random.default_rng(11)
        # a depth-0 forest of single-leaf trees sits between two others
        forests = [random_forest(rng, 5, 3, 3), random_forest(rng, 5, 3, 3, split_p=0.0),
                   random_forest(rng, 5, 3, 3, split_p=0.9)]
        X = inputs_with_ties(rng, forests[2], 30)
        rows = rng.integers(30, size=90)
        which = rng.integers(3, size=90)
        got = routed_tree_dists(forests, X, rows, which)
        for i, (r, f) in enumerate(zip(rows, which)):
            leaves = reference_leaves(forests[f], X[r][None, :])[0]
            # leaves almost surely differ in their distributions
            np.testing.assert_array_equal(got[i], forests[f].dist[leaves])

    def test_deepest_caterpillar_leaf_routes(self):
        # node i sends x <= k - i to node i + 1 and larger x to leaf i, so
        # x = -1 walks all n_internal nodes, the most the guard allows
        k = 6
        children = np.empty(2 * k, dtype=np.int32)
        children[0::2] = ~np.arange(k)  # right: leaf i
        children[1::2] = np.arange(1, k + 1)  # left: node i + 1
        children[-1] = ~k
        forest = ForestModel(
            feature=np.zeros(k, dtype=np.int32),
            threshold=k - np.arange(k, dtype=float),
            children=children,
            counts=np.eye(k + 1, dtype=np.uint32),
            roots=np.zeros(1, dtype=np.int32),
            weights=[1.0],
            kind=RANDOM_SPLIT,
            n_features=1,
        )
        X = np.array([[-1.0], [2.5], [k + 0.5]])
        np.testing.assert_array_equal(forest_leaves(forest, X), [[k], [4], [0]])
        np.testing.assert_array_equal(
            routed_tree_dists([forest], X, np.arange(3), np.zeros(3, dtype=int))[:, 0],
            np.eye(k + 1)[[k, 4, 0]],
        )

    def test_child_numbered_below_its_parent_raises(self):
        with pytest.raises(ModelFormatError, match="numbered below its parent"):
            class_vectors_batch(below_parent_forest(), np.array([[-1.0]]))


def below_parent_forest():
    # root 1 splits to node 0, whose two leaves a walk would miss
    return ForestModel(
        feature=np.zeros(2, dtype=np.int32),
        threshold=np.zeros(2),
        children=np.array([~0, ~1, ~2, 0], dtype=np.int32),
        counts=np.eye(3, dtype=np.uint32),
        roots=np.ones(1, dtype=np.int32),
        weights=[1.0],
        kind=RANDOM_SPLIT,
        n_features=1,
    )


def own_child_forest():
    # node 0 sends inputs at or below 0 to itself: a walk there would never end
    return ForestModel(
        feature=np.zeros(1, dtype=np.int32),
        threshold=np.zeros(1),
        children=np.array([~0, 0], dtype=np.int32),
        counts=np.array([[1, 0]], dtype=np.uint32),
        roots=np.zeros(1, dtype=np.int32),
        weights=[1.0],
        kind=RANDOM_SPLIT,
        n_features=1,
    )


class TestWalkTables:
    """Walk tables with self-looping leaves, expanded once per call."""

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 1025])
    @pytest.mark.parametrize("split_p", [0.8, 0.0])
    def test_class_vectors_equal_the_weighted_scalar_walk(self, n, split_p):
        # split_p 0 makes a forest of single-leaf trees, whose walks start on leaves
        rng = np.random.default_rng(n)
        forest = random_forest(rng, 9, 3, 4, split_p=split_p)
        forest = forest.with_weights(rng.dirichlet(np.ones(9)))
        X = inputs_with_ties(rng, forest, n)
        expected = np.einsum("ntc,t->nc", forest.dist[reference_leaves(forest, X)], forest.weights)
        np.testing.assert_array_equal(class_vectors_batch(forest, X), expected)

    def test_child_below_its_parent_raises_through_both_entry_points(self):
        forest = below_parent_forest()
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ModelFormatError, match="numbered below its parent"):
            class_vectors_batch(forest, X)
        with pytest.raises(ModelFormatError, match="numbered below its parent"):
            routed_tree_dists([leaf_forest([[1, 0, 0]]), forest], X, np.arange(2), np.zeros(2, int))

    @pytest.mark.parametrize(
        "children, root",
        [
            pytest.param([~0, 5], 0, id="child-above-the-leaves"),
            pytest.param([~0, ~2], 0, id="child-below-the-leaves"),
            pytest.param([~0, ~1], 1, id="root-above-the-nodes"),
            pytest.param([~0, ~1], ~2, id="root-below-the-leaves"),
        ],
    )
    def test_out_of_range_id_raises_through_both_entry_points(self, children, root):
        def stump(children, root):
            # one internal node and two leaves: ids ~1..0 are in range
            return ForestModel(
                feature=np.zeros(1, dtype=np.int32),
                threshold=np.zeros(1),
                children=np.array(children, dtype=np.int32),
                counts=np.eye(2, dtype=np.uint32),
                roots=np.array([root], dtype=np.int32),
                weights=[1.0],
                kind=RANDOM_SPLIT,
                n_features=1,
            )

        bad, good = stump(children, root), stump([~0, ~1], 0)
        X = np.array([[-1.0], [1.0]])
        with pytest.raises(ModelFormatError, match="^forest 0: .* out of range"):
            class_vectors_batch(bad, X)
        # each forest is checked against its own ids: shifted past the first
        # forest's, a bad id of the first may name a node of the second
        rows, which = np.arange(2), np.zeros(2, dtype=int)
        with pytest.raises(ModelFormatError, match="^forest 0: .* out of range"):
            routed_tree_dists([bad, good], X, rows, which + 1)
        with pytest.raises(ModelFormatError, match="^forest 1: .* out of range"):
            routed_tree_dists([good, bad], X, rows, which)

    def test_child_equal_to_its_parent_raises(self):
        with pytest.raises(ModelFormatError, match="cycle"):
            class_vectors_batch(own_child_forest(), np.array([[1.0], [-1.0]]))

    def test_tables_expanded_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return walk_tables(*args)

        walk_tables = forest_module._walk_tables
        monkeypatch.setattr(forest_module, "_walk_tables", counted)
        rng = np.random.default_rng(3)
        forests = [random_forest(rng, 5, 3, 3) for _ in range(2)]
        # 1025 rows are three blocks of class_vectors_batch
        X = inputs_with_ties(rng, forests[0], 1025)
        class_vectors_batch(forests[0], X)
        assert len(calls) == 1
        routed_tree_dists(forests, X, np.arange(1025), rng.integers(2, size=1025))
        assert len(calls) == 2


class TestTableChecks:
    """The walker's rule is checked by _walk_refs: once per forest through its
    cached walk_refs, once per routed_tree_dists call, and never at load,
    where check_table states every rule of a table."""

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []

        def counted(forests):
            calls.append(len(forests))
            return walk_refs(forests)

        walk_refs = forest_module._walk_refs
        monkeypatch.setattr(forest_module, "_walk_refs", counted)
        return calls

    def test_a_forest_is_checked_once_across_calls(self, checked):
        rng = np.random.default_rng(4)
        forest = random_forest(rng, 5, 3, 3)
        X = inputs_with_ties(rng, forest, 20)
        first = class_vectors_batch(forest, X)
        np.testing.assert_array_equal(class_vectors_batch(forest, X), first)
        assert checked == [1]

    def test_a_refusal_is_not_cached(self, checked):
        forest = own_child_forest()
        for _ in range(2):
            with pytest.raises(ModelFormatError, match="cycle"):
                class_vectors_batch(forest, np.array([[1.0], [-1.0]]))
        assert checked == [1, 1]

    def test_routed_tree_dists_checks_on_every_call(self, checked):
        rng = np.random.default_rng(6)
        forests = [random_forest(rng, 5, 3, 3) for _ in range(2)]
        X = inputs_with_ties(rng, forests[0], 10)
        for _ in range(2):
            routed_tree_dists(forests, X, np.arange(10), rng.integers(2, size=10))
        assert checked == [2, 2]

    def test_a_model_file_with_such_a_table_fails_at_load(self, checked, tmp_path):
        model = CascadeModel(
            levels=[LevelModel([own_child_forest()])],
            config=TrainConfig(mode="baseline"),
            level_scores=(1.0,),
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        message = f"^{re.escape(str(path))}: malformed forest table: an internal child id"
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        assert checked == []


class TestRoutedTreeDists:
    """One routing pass over several forests' node tables concatenated."""

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_equals_routing_each_forest_alone(self, kind):
        rng = np.random.default_rng(5)
        n = 47
        X = rng.normal(size=(n, 4))
        X[:, 1] = X[:, 1].round()
        ds = make_ds(X, rng.integers(3, size=n), 3)
        fold_of = fold_ids(n, 3, 4)
        row_sets = [np.flatnonzero(fold_of != j) for j in range(3)]
        # two slots' fold forests; a depth-0 forest makes single-leaf trees
        forests = []
        for params in (TreeParams(), TreeParams(max_depth=0)):
            rngs = [np.random.default_rng(s) for s in range(3)]
            forests += train_forests(ds, [kind] * 3, 6, params, row_sets, rngs)
        which = np.concatenate([fold_of, fold_of + 3])
        rows = np.tile(np.arange(n), 2)
        got = routed_tree_dists(forests, X, rows, which)
        expected = np.empty_like(got)
        for f, forest in enumerate(forests):
            at = np.flatnonzero(which == f)
            expected[at] = forest_tree_dists_batch(forest, X[rows[at]])
        assert got.shape == (2 * n, 6, 3)
        np.testing.assert_array_equal(got, expected)

    def test_cyclic_table_raises_through_the_shared_walker(self):
        # nodes 0 and 1 send every input to each other; no leaf is reachable
        cyclic = ForestModel(
            feature=np.zeros(2, dtype=np.int32),
            threshold=np.zeros(2),
            children=np.array([1, 1, 0, 0], dtype=np.int32),
            counts=np.array([[1, 0]], dtype=np.uint32),
            roots=np.zeros(1, dtype=np.int32),
            weights=[1.0],
            kind=RANDOM_SPLIT,
            n_features=1,
        )
        fine = leaf_forest([[0, 1]])
        X = np.zeros((3, 1))
        with pytest.raises(ModelFormatError, match="cycle"):
            routed_tree_dists([fine, cyclic], X, np.arange(3), np.array([0, 1, 0]))
        with pytest.raises(ModelFormatError, match="cycle"):
            class_vectors_batch(cyclic, X)
        # the tables are checked whole, before any position walks: a cyclic
        # forest is refused even when no row is routed through it
        with pytest.raises(ModelFormatError, match="cycle"):
            routed_tree_dists([fine, cyclic], X, np.arange(3), np.zeros(3, dtype=int))


class TestClassVector:
    def test_uniform_weights_match_mean(self):
        f = example_forest()
        out = class_vector(f, np.zeros(2), uniform_weights(3))
        np.testing.assert_allclose(out, [0.5333333333333333, 0.3, 0.16666666666666666])
        np.testing.assert_allclose(out, DISTS.mean(axis=0), atol=1e-12)

    def test_weighted_sum_example(self):
        out = class_vector(example_forest(), np.zeros(2), [0.5, 0.3, 0.2])
        np.testing.assert_allclose(out, [0.46, 0.35, 0.19], atol=1e-12)

    def test_one_hot_weight_selects_tree(self):
        f = example_forest()
        for t in range(3):
            w = np.zeros(3)
            w[t] = 1.0
            np.testing.assert_allclose(class_vector(f, np.zeros(2), w), DISTS[t])

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.normal(size=(30, 3)), rng.integers(3, size=30), 3)
        f = one_forest(ds, COMPLETELY_RANDOM, 9, TreeParams(), rng)
        for _ in range(20):
            w = rng.dirichlet(np.ones(9))
            v = class_vector(f, rng.normal(size=3), w)
            assert v.min() >= 0.0
            assert v.sum() == pytest.approx(1.0, abs=1e-9)

    def test_off_simplex_weights_rejected(self):
        f = example_forest()
        with pytest.raises(ValueError, match="simplex"):
            class_vector(f, np.zeros(2), [0.6, 0.6, 0.6])
        with pytest.raises(ValueError, match="simplex"):
            class_vector(f, np.zeros(2), [1.1, -0.1, 0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            class_vector(example_forest(), np.zeros(2), [0.5, 0.5])

    def test_forest_of_no_trees_rejected(self):
        f = example_forest()
        empty = np.empty(0, dtype=np.int32)
        with pytest.raises(ValueError, match="a forest needs at least one tree, got 0"):
            ForestModel(f.feature, f.threshold, f.children, f.counts, empty, np.empty(0),
                        f.kind, f.n_features)

    def test_batch_uses_trained_weights(self):
        f = example_forest().with_weights([0.5, 0.3, 0.2])
        out = class_vectors_batch(f, np.zeros((4, 2)))
        np.testing.assert_allclose(out, np.tile([0.46, 0.35, 0.19], (4, 1)))

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 4096])
    def test_batch_in_row_blocks_equals_the_whole_contraction(self, n):
        rng = np.random.default_rng(n)
        ds = make_ds(rng.normal(size=(224, 7)), rng.integers(8, size=224), 8)
        f = one_forest(ds, COMPLETELY_RANDOM, 50, TreeParams(), rng)
        f = f.with_weights(rng.dirichlet(np.ones(50)))
        X = rng.normal(size=(n, 7))
        whole = np.einsum("ntc,t->nc", forest_tree_dists_batch(f, X), f.weights)
        got = class_vectors_batch(f, X)
        assert got.dtype == whole.dtype
        np.testing.assert_array_equal(got, whole)


class TestUniformEquivalence:
    def test_trained_forest_uniform_equals_tree_mean(self):
        # the frozen-uniform mode must reproduce plain tree averaging exactly
        rng = np.random.default_rng(6)
        ds = make_ds(rng.normal(size=(35, 4)), rng.integers(2, size=35), 2)
        f = one_forest(ds, RANDOM_SPLIT, 11, TreeParams(), rng)
        X = rng.normal(size=(20, 4))
        dists = forest_tree_dists_batch(f, X)
        np.testing.assert_allclose(
            class_vectors_batch(f.with_weights(uniform_weights(11)), X),
            dists.mean(axis=1),
            atol=1e-12,
        )
