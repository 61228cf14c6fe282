import copy

import numpy as np
import pytest

from disdf.cascade import CascadeModel, LevelModel, predict_batch
from disdf.config import TrainConfig
from disdf.data import Dataset, fold_ids
from disdf.errors import DataError, DimensionError, ModelFormatError
from disdf.forest import ForestModel, check_table, train_forests
from disdf import tree as tree_module
from disdf.tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams, grow_trees, tied_columns
from tests.oracles import (
    forest_from_refs,
    forest_tree_dists_batch,
    refs_from_bits,
    table_from_refs,
    train_tree,
)

# a ForestModel's node table, as grow_trees returns it
TABLE = ("feature", "threshold", "is_node", "counts")


def make_ds(X, y, C):
    return Dataset(np.asarray(X, dtype=float), np.asarray(y), C)


def fold_train_rows(n, folds, seed):
    """Each fold's training rows, as a cascade level cuts them from its fold ids."""
    fold_of = fold_ids(n, folds, seed)
    return [np.flatnonzero(fold_of != j) for j in range(folds)]


def one_tree(arrays, n_features, kind=RANDOM_SPLIT):
    """A one-tree forest over one tree's (feature, threshold, children, counts),
    renumbered breadth-first."""
    feature, threshold, children, counts = arrays
    return forest_from_refs(
        feature,
        threshold,
        np.asarray(children, dtype=np.int32),
        counts,
        # node 0 is the root of a tree with any split, else leaf 0 is
        roots=[0 if len(feature) else ~0],
        weights=[1.0],
        kind=kind,
        n_features=n_features,
    )


def one_forest(ds, kind, n_trees, params, rng):
    """``n_trees`` trees of one kind on all of ``ds``: :func:`train_forests` for one forest."""
    return train_forests(ds, [kind], n_trees, params, [np.arange(ds.n)], [rng])[0]


def grow(ds, kind, params, rng):
    """One tree grown on every row of ``ds`` once (no bootstrap), as a forest."""
    (table,) = grow_trees(ds, [kind], params, [np.arange(ds.n)[None, :]], [rng])
    return ForestModel(
        *table,
        weights=[1.0],
        kind=kind,
        n_features=ds.feature_dim,
    )


def leaf_forest(counts, n_features=1):
    """A forest of single-leaf trees; tree t's leaf holds ``counts[t]`` rows per class."""
    counts = np.atleast_2d(np.asarray(counts, dtype=np.uint32))
    T = counts.shape[0]
    return forest_from_refs(
        feature=[],
        threshold=[],
        children=[],
        counts=counts,
        roots=~np.arange(T),
        weights=np.full(T, 1.0 / T),
        kind=COMPLETELY_RANDOM,
        n_features=n_features,
    )


def stump(feature, threshold, left_counts, right_counts, n_features):
    # children[0] is taken when x > threshold, children[1] on a tie or below
    return one_tree(
        ([feature], [threshold], [~1, ~0], np.vstack([left_counts, right_counts])),
        n_features,
    )


def route(tree, x):
    """Leaf distribution a one-tree forest gives for one input."""
    return forest_tree_dists_batch(tree, np.asarray(x, dtype=float)[None, :])[0, 0]


def walk(forest, x, t):
    """Reference walker: one input down tree t, one node at a time."""
    children, roots = refs_from_bits(forest.is_node)
    node = roots[t]
    while node >= 0:
        go_left = x[forest.feature[node]] <= forest.threshold[node]
        node = children[2 * node + int(go_left)]
    return forest.dist[~node]


def tree_depth(tree, t=0):
    children, roots = refs_from_bits(tree.is_node)

    def rec(ref):
        if ref < 0:
            return 0
        return 1 + max(rec(children[2 * ref]), rec(children[2 * ref + 1]))

    return rec(roots[t])


def assert_bit_rules(forest):
    """The forest's bits keep the rules check_table states, read one bit at a
    time, and the references they stand for give the same table back."""
    bits, I, T = forest.is_node, forest.feature.size, forest.n_trees
    assert bits.dtype == bool and bits.shape == (T + 2 * I,)
    assert bits.sum() == I and forest.counts.shape[0] == T + I
    for j, position in enumerate(np.flatnonzero(bits)):
        # internal node j's children start at T + 2j
        assert position < T + 2 * j
    children, roots = refs_from_bits(bits)
    table = table_from_refs(forest.feature, forest.threshold, children, forest.counts, roots)
    for name in TABLE:
        assert table[name].dtype == getattr(forest, name).dtype
        np.testing.assert_array_equal(table[name], getattr(forest, name))


@pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
class TestDegenerateInputs:
    def test_single_sample_gives_one_hot_leaf(self, kind):
        ds = make_ds([[1.0, 2.0]], [1], 3)
        tree = grow(ds, kind, TreeParams(), np.random.default_rng(0))
        assert tree.n_nodes == 1
        np.testing.assert_allclose(route(tree, [9.0, 9.0]), [0, 1, 0])

    def test_pure_node_stops_immediately(self, kind):
        ds = make_ds([[0.0], [1.0], [2.0]], [1, 1, 1], 2)
        tree = grow(ds, kind, TreeParams(), np.random.default_rng(0))
        assert tree.n_nodes == 1


class TestRandomSplitSearch:
    def test_separable_data_gives_depth_one_perfect_tree(self):
        ds = make_ds([[0.0], [1.0], [10.0], [11.0]], [0, 0, 1, 1], 2)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(), np.random.default_rng(0))
        assert tree_depth(tree) == 1
        preds = [
            int(np.argmax(route(tree, row))) for row in ds.features
        ]
        assert preds == ds.labels.tolist()

    def test_threshold_is_midpoint(self):
        ds = make_ds([[0.0], [2.0]], [0, 1], 2)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(), np.random.default_rng(0))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.0)

    def test_constant_features_give_leaf(self):
        ds = make_ds([[3.0], [3.0], [3.0]], [0, 1, 0], 2)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(), np.random.default_rng(0))
        assert tree.n_nodes == 1
        np.testing.assert_allclose(tree.dist[0], [2 / 3, 1 / 3])

    def test_max_depth_cap(self):
        rng = np.random.default_rng(1)
        ds = make_ds(rng.normal(size=(64, 3)), rng.integers(2, size=64), 2)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(max_depth=2), rng)
        assert tree_depth(tree) <= 2

    def test_min_leaf_stops_growth(self):
        ds = make_ds([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], 2)
        tree = grow(
            ds, RANDOM_SPLIT, TreeParams(min_leaf=5), np.random.default_rng(0)
        )
        assert tree.n_nodes == 1


@pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
def test_min_leaf_is_the_smallest_node_that_may_split(kind):
    # a 1-row node is pure, so min_leaf 2 closes no node that 1 leaves open;
    # 3 closes the 2-row nodes that hold both classes
    rng = np.random.default_rng(20)
    ds = make_ds(rng.normal(size=(80, 3)), rng.integers(2, size=80), 2)
    tables = [
        one_forest(ds, kind, 8, TreeParams(min_leaf=min_leaf), np.random.default_rng(21))
        for min_leaf in (1, 2, 3)
    ]
    for name in TABLE:
        np.testing.assert_array_equal(getattr(tables[0], name), getattr(tables[1], name))
    assert tables[2].n_nodes < tables[0].n_nodes


class TestCompletelyRandom:
    def test_thresholds_inside_node_range(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-5, 5, size=(80, 4))
        ds = make_ds(X, rng.integers(3, size=80), 3)
        tree = grow(ds, COMPLETELY_RANDOM, TreeParams(), rng)
        f = tree.feature
        assert np.all(tree.threshold >= X[:, f].min(axis=0))
        assert np.all(tree.threshold < X[:, f].max(axis=0))

    def test_constant_features_give_leaf(self):
        ds = make_ds([[7.0, 7.0], [7.0, 7.0]], [0, 1], 2)
        tree = grow(ds, COMPLETELY_RANDOM, TreeParams(), np.random.default_rng(0))
        assert tree.n_nodes == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_drawn_feature_is_the_picked_varying_column(self, seed):
        # reference: the pick-th True of a (nodes, m) mask of varying columns
        rng = np.random.default_rng(seed)
        m, nodes = 9, 40
        X = rng.normal(size=(2 * nodes, m))
        X[:, ::2] = rng.integers(2, size=(2 * nodes, (m + 1) // 2))  # tied columns
        if seed == 0:
            X[:, :] = X[0]  # every column constant: no varying feature
        tied = tied_columns(X)
        sample = rng.permutation(2 * nodes)
        node = np.repeat(np.arange(nodes), 2)
        start = np.arange(0, 2 * nodes, 2)
        u = rng.random((nodes, 2))
        feature, _, found = tree_module._cr_splits(
            X.ravel(), m, tied, X[:, tied], sample, node, start, u
        )
        pairs = X[sample].reshape(nodes, 2, m)
        varying = pairs[:, 0] != pairs[:, 1]
        n_varying = varying.sum(axis=1)
        pick = np.minimum((u[:, 0] * n_varying).astype(np.intp), n_varying - 1)
        expected = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
        np.testing.assert_array_equal(found, n_varying > 0)
        np.testing.assert_array_equal(feature, expected)
        assert feature.dtype == expected.dtype

    def test_tied_columns_are_those_that_repeat_a_value(self):
        X = np.array([
            [0.5, 1.0, 7.0, -0.0, 3.0],
            [1.5, 1.0, 7.0, 0.0, 2.0],
            [2.5, 2.0, 7.0, 1.0, 1.0],
        ])
        np.testing.assert_array_equal(tied_columns(X), [1, 2, 3])
        assert tied_columns(X[:1]).size == 0
        assert tied_columns(np.ones((4, 0))).size == 0

    @pytest.mark.parametrize("duplicate_rows", [False, True])
    @pytest.mark.parametrize("params", [
        TreeParams(), TreeParams(min_leaf=2), TreeParams(min_leaf=3), TreeParams(max_depth=2),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_checking_only_tied_columns_changes_no_tree(
        self, monkeypatch, duplicate_rows, params, seed
    ):
        rng = np.random.default_rng(seed)
        n = 37
        X = rng.normal(size=(n, 6))
        X[:, 1] = X[:, 1].round()
        X[:, 2] = 4.0
        X[:, 3] = rng.choice([-0.0, 0.0, 1.0], size=n)
        X[:, 4] = (2 * X[:, 4]).round(1)
        y = rng.integers(3, size=n)
        if duplicate_rows:
            # a node that holds both rows of a pair and nothing else cannot
            # split; a repeated row ties every column
            X[-5:] = X[:5]
            y[-5:] = (y[:5] + 1) % 3
        assert tied_columns(X).size == (6 if duplicate_rows else 4)
        ds = make_ds(X, y, 3)
        row_sets = fold_train_rows(n, 3, seed) + [np.arange(n)]
        seeds = np.random.SeedSequence(seed).spawn(len(row_sets))

        def grow_slot():
            rngs = [np.random.default_rng(s) for s in seeds]
            kinds = [COMPLETELY_RANDOM] * len(row_sets)
            return train_forests(ds, kinds, 5, params, row_sets, rngs)

        default = grow_slot()
        # every column checked for a constant value at every node
        monkeypatch.setattr(tree_module, "tied_columns", lambda X: np.arange(X.shape[1]))
        for got, expected in zip(default, grow_slot(), strict=True):
            for name in TABLE:
                assert getattr(got, name).dtype == getattr(expected, name).dtype
                np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


class TestSplitTies:
    def test_first_candidate_drawn_then_lowest_threshold_wins(self):
        # columns 0 and 1 are equal, and on each the cuts at 0.5 and 2.5 have
        # the same Gini score (1/3), below the cut at 1.5 (1/2)
        x = np.array([0.0, 1.0, 2.0, 3.0])
        ds = make_ds(np.column_stack([x, x]), [0, 1, 0, 1], 2)
        winners = set()
        for seed in range(8):
            rng = np.random.default_rng(seed)
            # the root's candidates come in the argsort order of its first draw
            first = int(np.argsort(copy.deepcopy(rng).random(2))[0])
            tree = grow(ds, RANDOM_SPLIT, TreeParams(max_depth=1), rng)
            assert tree.feature[0] == first
            assert tree.threshold[0] == 0.5
            winners.add(first)
        assert winners == {0, 1}

    def test_a_lower_score_beats_the_first_candidate(self):
        # column 1 separates the classes; column 0 only ties with itself
        x = np.array([0.0, 1.0, 2.0, 3.0])
        ds = make_ds(np.column_stack([x, [0.0, 5.0, 0.0, 5.0]]), [0, 1, 0, 1], 2)
        for seed in range(8):
            tree = grow(ds, RANDOM_SPLIT, TreeParams(max_depth=1), np.random.default_rng(seed))
            assert (tree.feature[0], tree.threshold[0]) == (1, 2.5)


class TestPackedOrder:
    """``_packed_order`` is a stable argsort that leaves its keys sorted."""

    def test_equals_a_stable_argsort_on_ties(self):
        keys = np.random.default_rng(0).integers(0, 40, size=5000)
        packed = keys.copy()
        order = tree_module._packed_order(packed)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(packed, np.sort(keys))

    @pytest.mark.parametrize("n", [1, 2, 1000, 1025])
    def test_at_the_largest_key_int64_admits(self, n):
        # positions take (n - 1).bit_length() bits; the key has the rest
        top = np.iinfo(np.int64).max >> (n - 1).bit_length()
        keys = np.random.default_rng(n).choice([0, 1, top - 1, top], size=n)
        packed = keys.copy()
        order = tree_module._packed_order(packed)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(packed, np.sort(keys))


class TestPrediction:
    def test_single_leaf_returns_distribution_for_any_input(self):
        tree = leaf_forest([2, 2, 1])
        for x in ([0.0], [100.0], [-3.5]):
            np.testing.assert_allclose(route(tree, x), [0.4, 0.4, 0.2])

    def test_tie_at_threshold_routes_left(self):
        tree = stump(0, 1.0, [1, 0], [0, 1], n_features=1)
        np.testing.assert_allclose(route(tree, [1.0]), [1.0, 0.0])
        np.testing.assert_allclose(route(tree, [1.0 + 1e-12]), [0.0, 1.0])

    def test_trees_route_independently_through_global_ids(self):
        # a leaf and a stump in one table: the stump's leaf ids are global
        stumpy = stump(1, 0.0, [1, 0], [0, 1], n_features=2)
        forest = forest_from_refs(
            feature=stumpy.feature,
            threshold=stumpy.threshold,
            children=[~2, ~1],
            counts=np.vstack([[1, 1], stumpy.counts]),
            roots=[~0, 0],
            weights=[0.5, 0.5],
            kind=RANDOM_SPLIT,
            n_features=2,
        )
        out = forest_tree_dists_batch(forest, [[9.0, -1.0], [9.0, 1.0]])
        np.testing.assert_array_equal(out[:, 0], [[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(out[:, 1], [[1.0, 0.0], [0.0, 1.0]])

    def test_distributions_sum_to_one_property(self):
        rng = np.random.default_rng(7)
        ds = make_ds(rng.normal(size=(60, 5)), rng.integers(4, size=60), 4)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(), rng)
        X = rng.normal(size=(1000, 5))
        sums = forest_tree_dists_batch(tree, X)[:, 0].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert forest_tree_dists_batch(tree, X)[:, 0].min() >= 0.0

    def test_batch_matches_single(self):
        for kind in (RANDOM_SPLIT, COMPLETELY_RANDOM):
            rng = np.random.default_rng(11)
            ds = make_ds(rng.normal(size=(40, 3)), rng.integers(2, size=40), 2)
            forest = one_forest(ds, kind, 6, TreeParams(), rng)
            X = rng.normal(size=(25, 3))
            batch = forest_tree_dists_batch(forest, X)
            for row, expected in zip(X, batch):
                np.testing.assert_array_equal(
                    forest_tree_dists_batch(forest, row[None, :])[0], expected
                )
                for t in range(forest.n_trees):
                    np.testing.assert_array_equal(walk(forest, row, t), expected[t])

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_routing_matches_reference_walker(self, kind):
        # six rows make pure bootstraps and depth-0 trees single leaves
        rng = np.random.default_rng(13)
        forests = []
        for n, depth in ((6, None), (40, 0), (40, None), (40, 2)):
            ds = make_ds(rng.normal(size=(n, 3)), rng.integers(3, size=n), 3)
            forest = one_forest(ds, kind, 8, TreeParams(max_depth=depth), rng)
            forests.append(forest.with_weights(rng.dirichlet(np.ones(8))))
        root_bits = [f.is_node[: f.n_trees] for f in forests]
        assert any(not bits.all() for bits in root_bits)
        assert any(bits.any() for bits in root_bits)
        X = rng.normal(scale=1.5, size=(60, 3))
        summed = np.zeros((60, 3))
        for forest in forests:
            expected = np.array(
                [[walk(forest, x, t) for t in range(forest.n_trees)] for x in X]
            )
            np.testing.assert_array_equal(forest_tree_dists_batch(forest, X), expected)
            summed += np.einsum("ntc,t->nc", expected, forest.weights)
        model = CascadeModel(
            levels=[LevelModel(forests)],
            config=TrainConfig(),
        )
        np.testing.assert_array_equal(predict_batch(model, X), np.argmax(summed, axis=1))

    def test_cyclic_table_raises_instead_of_hanging(self):
        # the root is leaf 0, and node 0 is its own left child, so a walk
        # that reached it would never leave
        forest = ForestModel(
            feature=np.zeros(2, dtype=np.int32),
            threshold=np.zeros(2),
            is_node=np.array([0, 1, 1, 0, 0], dtype=bool),
            counts=np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint32),
            weights=[1.0],
            kind=RANDOM_SPLIT,
            n_features=1,
        )
        with pytest.raises(ModelFormatError, match="not greater than its parent"):
            forest_tree_dists_batch(forest, np.zeros((3, 1)))

    def test_dimension_mismatch(self):
        tree = leaf_forest([1, 0], n_features=2)
        with pytest.raises(DimensionError):
            route(tree, [1.0])
        with pytest.raises(DimensionError):
            forest_tree_dists_batch(tree, np.zeros((3, 5)))


class TestDeterminism:
    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    def test_same_seed_same_structure(self, kind):
        rng = np.random.default_rng(12)
        ds = make_ds(rng.normal(size=(50, 6)), rng.integers(3, size=50), 3)
        rows = np.random.default_rng(5).integers(0, 50, size=(3, 50))
        (t1,) = grow_trees(ds, [kind], TreeParams(), [rows], [np.random.default_rng(99)])
        (t2,) = grow_trees(ds, [kind], TreeParams(), [rows], [np.random.default_rng(99)])
        for a1, a2 in zip(t1, t2, strict=True):
            np.testing.assert_array_equal(a1, a2)


class TestTreeShape:
    def test_proper_binary_tree(self):
        rng = np.random.default_rng(21)
        ds = make_ds(rng.normal(size=(70, 4)), rng.integers(3, size=70), 3)
        tree = grow(ds, RANDOM_SPLIT, TreeParams(), rng)
        n_internal, n_leaves = tree.feature.size, tree.dist.shape[0]
        children, _ = refs_from_bits(tree.is_node)
        inner = children[children >= 0]
        # every non-root internal node and every leaf is a child exactly once
        assert sorted(inner.tolist()) == list(range(1, n_internal))
        assert sorted((~children[children < 0]).tolist()) == list(range(n_leaves))
        assert n_leaves == n_internal + 1
        # breadth-first ids: a child's id exceeds its parent's
        parents = np.arange(children.size) // 2
        assert np.all(inner > parents[children >= 0])

    def test_leaf_distributions_valid(self):
        rng = np.random.default_rng(22)
        ds = make_ds(rng.normal(size=(30, 2)), rng.integers(2, size=30), 2)
        tree = grow(ds, COMPLETELY_RANDOM, TreeParams(), rng)
        np.testing.assert_allclose(tree.dist.sum(axis=1), 1.0, atol=1e-9)
        assert tree.dist.min() >= 0.0


def tree_nodes(forest, t):
    """Internal node ids of tree t, found by walking from its root."""
    children, roots = refs_from_bits(forest.is_node)
    out, todo = [], [roots[t]]
    while todo:
        ref = todo.pop()
        if ref >= 0:
            out.append(ref)
            todo += [children[2 * ref], children[2 * ref + 1]]
    return out


def node_rows(forest, X, t):
    """Rows of X that reach each node reference of tree t."""
    children, roots = refs_from_bits(forest.is_node)
    rows = {}
    for i, x in enumerate(X):
        ref = roots[t]
        rows.setdefault(ref, []).append(i)
        while ref >= 0:
            ref = children[2 * ref + int(x[forest.feature[ref]] <= forest.threshold[ref])]
            rows.setdefault(ref, []).append(i)
    return rows


class TestLevelwiseGrower:
    @pytest.mark.parametrize("seed", range(20))
    def test_rss_trees_match_depth_first_oracle_on_one_feature(self, seed):
        # with one feature the only candidate is feature 0, so a tree is
        # fixed by its bootstrap rows, which train_forests draws first
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        ds = make_ds(rng.normal(size=(n, 1)).round(1), rng.integers(3, size=n), 3)
        params = TreeParams(min_leaf=int(rng.integers(1, 4)),
                            max_depth=[None, 2, 5][seed % 3])
        T = 6
        forest = one_forest(ds, RANDOM_SPLIT, T, params, np.random.default_rng(seed))
        rows = np.random.default_rng(seed).integers(0, n, size=(T, n))
        values = np.unique(ds.features)
        grid = np.concatenate([
            np.linspace(values[0] - 1, values[-1] + 1, 401),
            values,
            0.5 * (values[1:] + values[:-1]),
        ])[:, None]
        got = forest_tree_dists_batch(forest, grid)
        for t in range(T):
            oracle = one_tree(
                train_tree(ds.subset(rows[t]), RANDOM_SPLIT, params, rng), 1
            )
            np.testing.assert_array_equal(got[:, t], forest_tree_dists_batch(oracle, grid)[:, 0])
            assert sorted(forest.threshold[tree_nodes(forest, t)]) == sorted(oracle.threshold)

    @pytest.mark.parametrize("seed", range(5))
    def test_cr_thresholds_inside_node_range_and_leaves_pure_or_tied(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        X[:, 2] = 1.0  # a feature that never varies
        ds = make_ds(X, rng.integers(3, size=n), 3)
        forest = one_forest(ds, COMPLETELY_RANDOM, 5, TreeParams(), rng)
        for t in range(forest.n_trees):
            for ref, rows in node_rows(forest, X, t).items():
                sub, labels = X[rows], ds.labels[rows]
                if ref >= 0:
                    f, thr = forest.feature[ref], forest.threshold[ref]
                    assert sub[:, f].min() <= thr < sub[:, f].max()
                else:
                    assert np.unique(labels).size == 1 or np.all(sub == sub[0])

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    @pytest.mark.parametrize("n_trees", [1, 3, 50])
    def test_every_table_passes_the_load_checks(self, kind, n_trees):
        rng = np.random.default_rng(n_trees)
        for n in (1, 2, 40):
            X = rng.normal(size=(n, 3))
            y = rng.integers(3, size=n)
            cases = [
                (X, y, TreeParams()),
                (X, np.zeros(n, dtype=int), TreeParams()),  # pure labels
                (np.ones((n, 3)), y, TreeParams()),  # all features constant
                (np.ones((n, 0)), y, TreeParams()),  # no features at all
                (X, y, TreeParams(min_leaf=4)),
                (X, y, TreeParams(max_depth=0)),
                (X, y, TreeParams(max_depth=1)),
            ]
            for features, labels, params in cases:
                forest = one_forest(make_ds(features, labels, 3), kind, n_trees, params, rng)
                check_table(forest)
                assert_bit_rules(forest)
                assert forest.dist.shape[0] == forest.feature.size + n_trees
                if params.max_depth is not None:
                    depths = [tree_depth(forest, t) for t in range(n_trees)]
                    assert max(depths) <= params.max_depth


def forest_depth(forest):
    return max(tree_depth(forest, t) for t in range(forest.n_trees))


class TestOneFrontierPerSlot:
    """A slot's forests grown in one frontier are each the forest grown alone."""

    @pytest.mark.parametrize("kind", [RANDOM_SPLIT, COMPLETELY_RANDOM])
    @pytest.mark.parametrize(
        "params", [TreeParams(), TreeParams(min_leaf=3), TreeParams(max_depth=2)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_forest_by_forest_equal_to_growing_alone(self, kind, params, seed):
        rng = np.random.default_rng(seed)
        n = 31
        X = rng.normal(size=(n, 5))
        X[:, 1] = X[:, 1].round()  # tied values
        X[:, 2] = 4.0  # a constant column
        y = rng.integers(2, size=n)
        y[25:] = 2
        ds = make_ds(X, y, 3)
        # the fold forests, a fold whose labels are pure, and the refit forest
        row_sets = fold_train_rows(n, 3, seed)
        row_sets += [np.arange(25, n), np.arange(n)]
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
        alone_rngs = copy.deepcopy(rngs)
        together = train_forests(ds, [kind] * len(row_sets), 4, params, row_sets, rngs)
        assert len(together) == len(row_sets)
        for rows, forest, alone_rng in zip(row_sets, together, alone_rngs):
            alone = one_forest(ds.subset(rows), kind, 4, params, alone_rng)
            for name in TABLE:
                got, expected = getattr(forest, name), getattr(alone, name)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
        # the pure fold is all single leaves, while the others keep growing
        assert forest_depth(together[3]) == 0
        assert len({forest_depth(f) for f in together}) > 1
        # and every forest drew exactly what it draws alone
        for g, alone_rng in zip(rngs, alone_rngs):
            assert g.random() == alone_rng.random()

    @pytest.mark.parametrize("slot_kinds", [
        pytest.param([RANDOM_SPLIT, COMPLETELY_RANDOM] * 2, id="rss-cr-rss-cr"),
        # kind-major order is then not its own inverse
        pytest.param([COMPLETELY_RANDOM, RANDOM_SPLIT, RANDOM_SPLIT, COMPLETELY_RANDOM],
                     id="cr-rss-rss-cr"),
    ])
    @pytest.mark.parametrize(
        "params", [TreeParams(), TreeParams(min_leaf=3), TreeParams(max_depth=2)]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_slots_of_both_kinds_in_one_call_equal_growing_alone(
        self, slot_kinds, params, seed, monkeypatch
    ):
        rng = np.random.default_rng(seed)
        n = 31
        X = rng.normal(size=(n, 5))
        X[:, 1] = X[:, 1].round()  # tied values
        X[:, 2] = 4.0  # a constant column
        y = rng.integers(2, size=n)
        y[25:] = 2
        ds = make_ds(X, y, 3)
        # per slot: the fold forests, a fold whose labels are pure, the refit forest
        slot = fold_train_rows(n, 3, seed)
        slot += [np.arange(25, n), np.arange(n)]
        kinds = [kind for kind in slot_kinds for _ in slot]
        row_sets = slot * len(slot_kinds)
        seeds = np.random.SeedSequence(seed).spawn(len(row_sets))
        rngs = [np.random.default_rng(s) for s in seeds]
        alone_rngs = copy.deepcopy(rngs)
        # chunks smaller than a 20- or 31-row root but larger than the pure
        # fold's 6-row root: some nodes are scored alone, others several at once
        monkeypatch.setattr(tree_module, "SCORE_POSITIONS", 16)
        together = train_forests(ds, kinds, 4, params, row_sets, rngs)
        monkeypatch.undo()  # each forest alone is scored in one chunk per depth
        assert [forest.kind for forest in together] == kinds
        for kind, rows, forest, alone_rng in zip(kinds, row_sets, together, alone_rngs):
            assert_bit_rules(forest)
            alone = one_forest(ds.subset(rows), kind, 4, params, alone_rng)
            for name in TABLE:
                got, expected = getattr(forest, name), getattr(alone, name)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
        assert all(forest_depth(together[i]) == 0 for i in range(3, len(kinds), len(slot)))
        for g, alone_rng in zip(rngs, alone_rngs):
            assert g.bit_generator.state == alone_rng.bit_generator.state

    def test_row_sets_and_generators_pair_up(self):
        ds = make_ds(np.arange(6.0)[:, None], [0, 1] * 3, 2)
        rngs = [np.random.default_rng(0)]
        with pytest.raises(ValueError):
            train_forests(
                ds, [RANDOM_SPLIT] * 2, 2, TreeParams(), [np.arange(3), np.arange(6)], rngs
            )
        with pytest.raises(DataError):
            train_forests(ds, [RANDOM_SPLIT], 2, TreeParams(), [np.arange(0)], rngs)

    def test_unknown_kind_refused(self):
        ds = make_ds(np.arange(6.0)[:, None], [0, 1] * 3, 2)
        with pytest.raises(ValueError, match="unknown tree kind 'oblique'"):
            train_forests(
                ds, [RANDOM_SPLIT, "oblique"], 2, TreeParams(), [np.arange(6)] * 2,
                [np.random.default_rng(0), np.random.default_rng(1)],
            )
