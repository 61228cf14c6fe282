import multiprocessing
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import disdf
from disdf import cascade, config, pairstats, tree
from disdf.cascade import (
    CascadeModel,
    LevelModel,
    augment_batch,
    predict,
    predict_batch,
    train_cascade,
)
from disdf.config import TrainConfig
from disdf.data import Dataset
from disdf.errors import (
    BadCellError,
    ConfigError,
    DataError,
    DegeneratePairsError,
    DimensionError,
    DisdfError,
)
from disdf.forest import (
    class_vectors_batch,
    uniform_weights,
)
from disdf.pairstats import compute_pair_stats
from disdf.serialize import load_model, save_model
from disdf.tree import COMPLETELY_RANDOM, RANDOM_SPLIT, TreeParams
from disdf.weightopt import ObjectiveParams, Solution, objective
from tests.oracles import forest_tree_dists_batch
from tests.test_forest import TABLE
from tests.test_tree import leaf_forest, one_forest


def blobs(n=60, m=4, gap=8.0, seed=0, num_classes=2):
    """Well-separated Gaussian clusters, one per class."""
    rng = np.random.default_rng(seed)
    per = n // num_classes
    X, y = [], []
    for c in range(num_classes):
        center = np.full(m, c * gap)
        X.append(center + rng.normal(size=(per, m)))
        y.append(np.full(per, c))
    return Dataset(np.vstack(X), np.concatenate(y), num_classes)


def fast_cfg(**kw):
    base = dict(
        trees_per_forest=4,
        fw_iterations=100,
        max_levels=1,
        folds=3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def train_recording_pairs(monkeypatch, ds, cfg, **kw):
    """Train in this process, recording what each forest's pair statistics saw.

    Returns the model and, for each forest of its kept levels in level and
    slot order, the forest, the out-of-fold ``(n, T, C)`` tensor and labels
    that ``compute_pair_stats`` received, and the ``PairStats`` it returned.
    """
    calls = []

    def recording(tree_dists, labels, *args):
        stats = compute_pair_stats(tree_dists, labels, *args)
        calls.append((tree_dists, labels, stats))
        return stats

    monkeypatch.setattr(cascade, "compute_pair_stats", recording)
    model = train_cascade(ds, cfg, **kw)
    forests = [f for level in model.levels for f in level.forests]
    return model, [(f, *call) for f, call in zip(forests, calls)]


def assert_same_models(m1, m2):
    """Equal level scores and, forest by forest, equal node tables and weights."""
    assert m1.level_scores == m2.level_scores
    assert m1.n_levels == m2.n_levels
    for l1, l2 in zip(m1.levels, m2.levels):
        for f1, f2 in zip(l1.forests, l2.forests, strict=True):
            for name in TABLE:
                np.testing.assert_array_equal(getattr(f1, name), getattr(f2, name))


def manual_cascade(forest_counts, n_features):
    """Single-level cascade of single-leaf forests with the given leaf class counts."""
    forests = [leaf_forest([c], n_features) for c in forest_counts]
    return CascadeModel(
        levels=[LevelModel(forests)],
        config=TrainConfig(mode="baseline"),
        level_scores=(1.0,),
    )


class TestStopRule:
    """train_cascade's stop rule, on scripted level scores."""

    @pytest.mark.parametrize(
        "scores, kw, trained, kept",
        [
            pytest.param([0.80, 0.85, 0.85, 0.9], {}, 3, 2, id="plateau"),
            pytest.param([0.9], {}, 1, 1, id="single-level"),
            pytest.param([0.5, 0.6, 0.7, 0.8, 0.9], {}, 5, 5, id="monotone-rise"),
            pytest.param([0.8, 0.8, 0.8, 0.9], {"patience": 2}, 3, 1, id="patience-2"),
            pytest.param([0.8, 0.7, 0.9, 0.85, 0.85, 0.95], {"patience": 2}, 5, 3,
                         id="patience-2-after-a-dip"),
            pytest.param([0.85, 0.85 + 5e-5, 0.9], {}, 2, 1, id="rise-below-tolerance"),
            pytest.param([0.5, 0.6, 0.7, 0.8], {"max_levels": 3}, 3, 3, id="max-levels-cap"),
            pytest.param([0.9, 0.8, 0.7], {"patience": 5}, 3, 1, id="max-levels-after-best"),
        ],
    )
    def test_levels_trained_and_kept(self, monkeypatch, scores, kw, trained, kept):
        calls = []

        def scripted(ds, cfg, seq, workers):
            calls.append(len(calls))
            return LevelModel([]), ds, scores[calls[-1]], ({"level": calls[-1]},)

        monkeypatch.setattr(cascade, "_train_level", scripted)
        model = train_cascade(blobs(n=12), fast_cfg(**{"max_levels": len(scores), **kw}))
        assert len(model.level_scores) == len(calls) == trained
        assert model.level_scores == tuple(scores[:trained])
        assert model.n_levels == len(model.train_info) == kept
        assert [info[0]["level"] for info in model.train_info] == list(range(kept))


class TestDimensions:
    def test_two_level_dimension_recurrence(self):
        # m=10, C=3, M=4: level 1 maps 10 -> 22, level 2 maps 22 -> 34
        ds = blobs(n=30, m=10, num_classes=3, seed=1)
        cfg = fast_cfg(mode="baseline")
        rng = np.random.default_rng(0)
        level1_forests = [
            one_forest(ds, kind, 3, TreeParams(), rng.spawn(1)[0])
            for kind in cfg.forest_kinds()
        ]
        level1 = LevelModel(level1_forests)
        assert level1.output_dim == 22
        augmented = augment_batch(level1, ds.features)
        assert augmented.shape == (30, 22)
        ds2 = Dataset(augmented, ds.labels, ds.num_classes)
        level2_forests = [
            one_forest(ds2, kind, 3, TreeParams(), rng.spawn(1)[0])
            for kind in cfg.forest_kinds()
        ]
        level2 = LevelModel(level2_forests)
        assert level2.output_dim == 34
        assert augment_batch(level2, augmented).shape == (30, 34)

    def test_trained_model_respects_recurrence(self):
        ds = blobs(n=36, m=5, num_classes=3, seed=2)
        model = train_cascade(ds, fast_cfg(max_levels=3, mode="baseline"))
        expected_in = ds.feature_dim
        for level in model.levels:
            assert level.input_dim == expected_in
            assert level.output_dim == expected_in + 4 * ds.num_classes
            expected_in = level.output_dim

    def test_retained_levels_match_best_score(self):
        ds = blobs(n=36, m=5, seed=3)
        model = train_cascade(ds, fast_cfg(max_levels=4))
        scores = model.level_scores
        best, best_idx = -np.inf, 0
        for i, s in enumerate(scores):
            if s > best + 1e-4:
                best, best_idx = s, i
        assert model.n_levels == best_idx + 1


class TestAugment:
    def test_single_forest_augment_values(self):
        forest = leaf_forest([[2, 2, 1]], n_features=5).with_weights(
            [1.0]
        )
        level = LevelModel([forest])
        x = np.arange(5.0)
        out = augment_batch(level, x[None, :])[0]
        assert out.shape == (8,)
        np.testing.assert_array_equal(out[:5], x)
        np.testing.assert_allclose(out[5:], [0.4, 0.4, 0.2])

    def test_appended_blocks_sum_to_one(self):
        ds = blobs(n=30, m=4, seed=4)
        model = train_cascade(ds, fast_cfg())
        level = model.levels[0]
        out = augment_batch(level, ds.features)
        for k in range(len(level.forests)):
            block = out[:, 4 + 2 * k : 4 + 2 * (k + 1)]
            np.testing.assert_allclose(block.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        level = LevelModel([leaf_forest([[1, 0]], n_features=3)])
        with pytest.raises(DimensionError):
            augment_batch(level, np.zeros((1, 4)))


class TestPredict:
    def test_argmax_of_summed_class_vectors(self):
        model = manual_cascade([[7, 3], [2, 3]], n_features=2)
        assert predict(model, np.zeros(2)) == 0

    def test_exact_tie_goes_to_lowest_class(self):
        model = manual_cascade([[1, 1], [1, 1]], n_features=2)
        assert predict(model, np.zeros(2)) == 0

    def test_degenerate_single_tree_cascade(self):
        model = manual_cascade([[0, 0, 1]], n_features=1)
        assert predict(model, np.zeros(1)) == 2

    def test_repeated_calls_agree(self):
        ds = blobs(n=30, m=3, seed=5)
        model = train_cascade(ds, fast_cfg())
        x = ds.features[7]
        assert predict(model, x) == predict(model, x)

    def test_batch_matches_single(self):
        ds = blobs(n=30, m=3, seed=6)
        model = train_cascade(ds, fast_cfg(max_levels=2, mode="baseline"))
        batch = predict_batch(model, ds.features)
        for row, expected in zip(ds.features, batch):
            assert predict(model, row) == expected

    def test_prediction_through_kept_levels(self, tmp_path):
        ds = blobs(n=36, m=4, gap=1.0, seed=1, num_classes=3)
        model = train_cascade(ds, fast_cfg(max_levels=3, patience=2))
        # a model of one level would never augment its inputs
        assert model.n_levels >= 2
        X = np.random.default_rng(2).normal(scale=2.0, size=(50, ds.feature_dim))
        expected_in, features = ds.feature_dim, X
        for level in model.levels:
            assert level.input_dim == expected_in == features.shape[1]
            expected_in += len(level.forests) * ds.num_classes
            if level is not model.levels[-1]:
                features = augment_batch(level, features)
        summed = np.sum([class_vectors_batch(f, features) for f in model.levels[-1].forests], axis=0)
        np.testing.assert_array_equal(predict_batch(model, X), np.argmax(summed, axis=1))
        save_model(model, tmp_path / "m.model")
        loaded = load_model(tmp_path / "m.model")
        assert [level.input_dim for level in loaded.levels] == [
            level.input_dim for level in model.levels
        ]
        np.testing.assert_array_equal(predict_batch(loaded, X), predict_batch(model, X))

    def test_dimension_mismatch(self):
        model = manual_cascade([[1, 0]], n_features=2)
        with pytest.raises(DimensionError):
            predict(model, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        # a NaN would otherwise go right at every split and get a class
        ds = blobs(n=30, m=3, seed=6)
        model = train_cascade(ds, fast_cfg(mode="baseline"))
        X = ds.features[:4].copy()
        X[2, 1] = bad
        with pytest.raises(BadCellError):
            predict_batch(model, X)
        with pytest.raises(BadCellError):
            predict(model, X[2])


class TestWorkerIndependence:
    def test_two_workers_give_identical_tables_and_weights(self):
        ds = blobs(n=36, m=4, seed=15)
        for mode in ("disdf", "baseline"):
            cfg = fast_cfg(max_levels=2, patience=2, mode=mode)
            serial = train_cascade(ds, cfg, workers=1)
            # 2 workers fit groups of 2 slots each; 3 fit uneven groups of 2, 1, 1
            for workers in (2, 3):
                assert_same_models(serial, train_cascade(ds, cfg, workers=workers))

    def test_two_workers_give_the_serial_solves_and_model_bytes(self, tmp_path):
        ds = blobs(n=36, m=4, seed=15)
        cfg = fast_cfg(max_levels=2, patience=2)
        models = [train_cascade(ds, cfg, workers=workers) for workers in (1, 2)]
        serial, two = (model.train_info for model in models)
        assert len(serial) == models[0].n_levels
        for level_1, level_2 in zip(serial, two, strict=True):
            for s1, s2 in zip(level_1, level_2, strict=True):
                assert isinstance(s1, Solution)
                np.testing.assert_array_equal(s1.weights, s2.weights)
                assert (s1.gap, s1.objective, s1.steps) == (s2.gap, s2.objective, s2.steps)
        for workers, model in zip((1, 2), models):
            save_model(model, tmp_path / f"{workers}.bin")
        assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()

    def test_worker_error_reaches_caller_unchanged(self, deadline):
        # one class only: every pair is same-class, raised in the workers at 2
        features = np.random.default_rng(0).normal(size=(12, 3))
        ds = Dataset(features, np.zeros(12, dtype=int), 2)
        errors = []
        for workers in (1, 2):
            with pytest.raises(DegeneratePairsError) as caught:
                train_cascade(ds, fast_cfg(), workers=workers)
            errors.append(caught.value)
        assert type(errors[0]) is type(errors[1]) is DegeneratePairsError
        assert str(errors[0]) == str(errors[1])
        assert multiprocessing.active_children() == []


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a monkeypatched function reaches worker processes only when they fork",
)


def pid_and_divmod(x, y):
    return os.getpid(), divmod(x, y)


def exit_in_worker(parent):
    if os.getpid() != parent:
        os._exit(1)
    return parent


def fail_first_share(i):
    if i == 0:
        raise ValueError("share 0 failed")
    time.sleep(30)


@pytest.fixture(params=multiprocessing.get_all_start_methods())
def start_method(request, monkeypatch):
    """Start ``_map_tasks``'s workers by each method the platform offers."""
    context = multiprocessing.get_context(request.param)
    monkeypatch.setattr(multiprocessing, "Process", context.Process)
    monkeypatch.setattr(multiprocessing, "Pipe", context.Pipe)
    return request.param


class TestWorkerRunner:
    """``cascade._map_tasks``: one worker process per contiguous share of the
    calls; results in map order; no failure hangs or leaves a process; the
    same results by every start method."""

    @pytest.mark.parametrize(
        "calls, workers, shares",
        [(7, 3, [3, 2, 2]), (2, 5, [1, 1]), (1, 4, None)],  # None: run in this process
    )
    def test_shares_keep_map_order(self, deadline, start_method, calls, workers, shares):
        xs, ys = list(range(10, 10 + calls)), list(range(1, calls + 1))
        out = cascade._map_tasks(pid_and_divmod, xs, ys, workers=workers)
        assert [r for _, r in out] == list(map(divmod, xs, ys))
        pids = [pid for pid, _ in out]
        if shares is None:
            assert pids == [os.getpid()]
        else:
            runs = [pids[i] for i in np.cumsum([0] + shares[:-1])]
            assert pids == [pid for pid, size in zip(runs, shares) for _ in range(size)]
            assert len(set(pids)) == len(shares) and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error_naming_its_exit_code(self, deadline, start_method):
        with pytest.raises(DisdfError, match="exit code 1 "):
            cascade._map_tasks(exit_in_worker, [os.getpid()] * 3, workers=2)
        assert multiprocessing.active_children() == []

    def test_failed_share_stops_the_others(self, deadline, start_method):
        # share 1 would sleep for 30 s; it is killed once share 0 fails
        start = time.perf_counter()
        with pytest.raises(ValueError, match="share 0 failed") as caught:
            cascade._map_tasks(fail_first_share, range(2), workers=2)
        assert time.perf_counter() - start < 10
        assert "in fail_first_share" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_two_worker_train_writes_the_serial_model(self, deadline, start_method, tmp_path):
        ds = blobs(n=36, m=4, seed=15)
        cfg = fast_cfg(max_levels=2, patience=2)
        save_model(train_cascade(ds, cfg), tmp_path / "serial.bin")
        save_model(train_cascade(ds, cfg, workers=2), tmp_path / "two.bin")
        assert (tmp_path / "serial.bin").read_bytes() == (tmp_path / "two.bin").read_bytes()
        assert multiprocessing.active_children() == []

    def test_unflushed_output_is_written_once(self):
        # stdout into a pipe is block-buffered (without PYTHONUNBUFFERED): a
        # worker forked with the line still in its buffer would write it again
        code = (
            "print('written before the workers start')\n"
            "from disdf.cascade import _map_tasks\n"
            "assert _map_tasks(abs, [1, -2], workers=2) == [1, 2]\n"
        )
        src = str(Path(disdf.__file__).parents[1])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "written before the workers start\n"


def level_charges(ds, cfg):
    """A level's charges against the memory limit, as ``(kept, slot, fixed, pairs)``:
    its kept trees and class vectors, by the formula of ``_train_level``;
    growing s slots at once takes ``s * slot + fixed``; one forest's pairs.
    """
    n, n_classes, n_trees = ds.n, ds.num_classes, cfg.trees_per_forest
    kept = cfg.forests_per_level * (
        n_trees * (20 * (n - 1) + 4 * n_classes * n + 8) + 16 * n * n_classes
    )
    slot, fixed = tree.grow_bytes(ds, cfg.forest_kinds(), n_trees * cfg.folds * n)
    return kept, slot, fixed, pairstats.pair_bytes(n, n_trees, cfg.pair_budget)


class TestSlotGroups:
    """A level's slots are fitted in groups whose grower temporaries fit in
    memory; a group forms and solves one forest's pairs at a time."""

    @staticmethod
    def record_groups(monkeypatch, folds):
        """Patch cascade.train_forests to list the slots each call grows."""
        sizes = []

        def recording(ds, kinds, *args):
            sizes.append(len(kinds) // (folds + 1))
            return grow(ds, kinds, *args)

        grow = cascade.train_forests
        monkeypatch.setattr(cascade, "train_forests", recording)
        return sizes

    def test_pair_limit_is_charged_per_forest(self, monkeypatch):
        # on 300 rows one forest's pairs outweigh growing all 4 slots at once
        # at both levels, so a limit of one forest's pair charge neither
        # refuses nor splits the level
        ds = blobs(n=300, m=4, seed=16)
        cfg = fast_cfg(max_levels=2, patience=2)
        together = train_cascade(ds, cfg)
        live = []

        def recording(*args):
            # the forests before this one have dropped their pair statistics
            assert all(ref() is None for ref in live)
            stats = compute_pair_stats(*args)
            live.append(weakref.ref(stats))
            return stats

        monkeypatch.setattr(cascade, "compute_pair_stats", recording)
        sizes = self.record_groups(monkeypatch, cfg.folds)
        charge = pairstats.pair_bytes(ds.n, cfg.trees_per_forest, cfg.pair_budget)
        monkeypatch.setattr(config, "MEMORY_LIMIT", charge)
        limited = train_cascade(ds, cfg)
        assert sizes == [4] * len(limited.level_scores) == [4, 4]
        assert len(live) == 4 * len(limited.level_scores)
        assert_same_models(together, limited)

    def test_grower_limit_splits_groups_with_identical_files(self, monkeypatch, tmp_path):
        ds = blobs(n=36, m=4, seed=17)
        cfg = fast_cfg(max_levels=2, patience=2)
        charges = []

        def recording(*args):
            charges.append(estimate(*args))
            return charges[-1]

        estimate = tree.grow_bytes
        monkeypatch.setattr(tree, "grow_bytes", recording)
        # chunks of one root's positions, so the slots, not the fixed part,
        # make up most of a level's charge
        monkeypatch.setattr(tree, "SCORE_POSITIONS", ds.n)
        sizes = self.record_groups(monkeypatch, cfg.folds)
        save_model(train_cascade(ds, cfg), tmp_path / "together.bin")
        assert sizes == [4, 4]
        # a bound every slot fits but the merged group of four does not
        limit = max(slot + fixed for slot, fixed in charges)
        assert limit < min(4 * slot + fixed for slot, fixed in charges)
        monkeypatch.setattr(config, "MEMORY_LIMIT", limit)
        sizes.clear()
        save_model(train_cascade(ds, cfg), tmp_path / "apart.bin")
        assert max(sizes) < 4
        assert (tmp_path / "together.bin").read_bytes() == (tmp_path / "apart.bin").read_bytes()

    def test_limit_below_one_slot_rejected(self, monkeypatch):
        # on 300 rows growing all 4 slots fits below one forest's pair charge
        ds = blobs(n=300, m=4, seed=16)
        cfg, baseline = fast_cfg(), fast_cfg(mode="baseline")
        kept, slot, fixed, charge = level_charges(ds, cfg)
        assert max(kept, 4 * slot + fixed) < charge - 1
        unlimited = train_cascade(ds, baseline)
        monkeypatch.setattr(config, "MEMORY_LIMIT", charge - 1)
        grows = []
        grow = cascade.train_forests
        monkeypatch.setattr(cascade, "train_forests", lambda *a: grows.append(a) or grow(*a))
        with pytest.raises(ConfigError, match="--pair-budget"):
            train_cascade(ds, cfg)
        # refused before any forest is grown
        assert grows == []
        # baseline mode forms no pairs, so the limit neither refuses nor splits
        # its levels: at 1 worker each level grows its 4 slots' 16 forests at once
        limited = train_cascade(ds, baseline)
        assert [len(kinds) for _, kinds, *_ in grows] == [16] * len(limited.level_scores)
        assert_same_models(unlimited, limited)

    def test_workers_that_run_at_once_share_the_limit(self, monkeypatch, tmp_path, deadline):
        ds = blobs(n=36, m=4, seed=18)
        cfg = fast_cfg()
        save_model(train_cascade(ds, cfg), tmp_path / "serial.bin")
        kept, slot, fixed, pairs = level_charges(ds, cfg)
        # one worker's need is growing a slot, above the kept state and the pairs
        need = slot + fixed
        assert max(kept, pairs) < need - 1
        runs = []

        def recording(fit, kinds, seeds, workers):
            runs.append(([len(group) for group in kinds], workers))
            return map_tasks(fit, kinds, seeds, workers=workers)

        map_tasks = cascade._map_tasks
        monkeypatch.setattr(cascade, "_map_tasks", recording)
        # one worker's need fits twice, not four times: 2 workers, each
        # fitting two groups of one slot in turn
        monkeypatch.setattr(config, "MEMORY_LIMIT", 2 * need)
        save_model(train_cascade(ds, cfg, workers=4), tmp_path / "limited.bin")
        assert runs == [([1, 1, 1, 1], 2)]
        assert (tmp_path / "serial.bin").read_bytes() == (tmp_path / "limited.bin").read_bytes()
        # a need above the limit is refused before any tree is grown
        monkeypatch.setattr(cascade, "train_forests", None)
        monkeypatch.setattr(config, "MEMORY_LIMIT", need - 1)
        with pytest.raises(ConfigError, match="--trees"):
            train_cascade(ds, cfg, workers=4)
        assert len(runs) == 1
        assert multiprocessing.active_children() == []

    def test_refused_from_the_forest_count(self, monkeypatch):
        # a billion forests keep far over the limit; the level is refused
        # before a list of a billion forest kinds would be made
        def forest_kinds(cfg):
            raise AssertionError("forest kinds listed before the level was charged")

        ds = blobs(n=24)
        _, slot, fixed, pairs = level_charges(ds, fast_cfg())
        assert max(slot + fixed, pairs) < config.MEMORY_LIMIT
        monkeypatch.setattr(TrainConfig, "forest_kinds", forest_kinds)
        with pytest.raises(ConfigError, match="--forests"):
            train_cascade(ds, fast_cfg(forests_per_level=10**9))

    @pytest.mark.parametrize(
        "n, num_classes, forests, trees",
        [
            (24, 2, 20_000, 2),  # an 8.1 MB model at one level
            (351, 2, 4, 1000),  # all ionosphere rows at the paper's largest T
            (336, 8, 4, 1000),  # all ecoli rows
        ],
    )
    def test_level_kept_state_within_limit_not_refused(self, monkeypatch, n, num_classes,
                                                       forests, trees):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cascade, "_map_tasks", reached)
        cfg = fast_cfg(forests_per_level=forests, trees_per_forest=trees)
        with pytest.raises(Reached):
            train_cascade(blobs(n=n, num_classes=num_classes), cfg)


class TestTrainCascade:
    def test_baseline_mode_keeps_uniform_weights(self):
        ds = blobs(n=30, m=3, seed=7)
        model = train_cascade(ds, fast_cfg(mode="baseline", max_levels=2))
        for level in model.levels:
            for forest in level.forests:
                np.testing.assert_allclose(
                    forest.weights, 1.0 / forest.n_trees, atol=1e-12
                )
        # no weight solve, so no Solution
        assert [set(level) for level in model.train_info] == [{None}] * model.n_levels

    def test_forest_kind_layout(self):
        ds = blobs(n=30, m=3, seed=8)
        model = train_cascade(ds, fast_cfg(mode="baseline"))
        kinds = [f.kind for f in model.levels[0].forests]
        assert kinds == [RANDOM_SPLIT, COMPLETELY_RANDOM, RANDOM_SPLIT, COMPLETELY_RANDOM]

    def test_trained_objective_never_worse_than_uniform(self, monkeypatch):
        ds = blobs(n=48, m=4, seed=9)
        cfg = fast_cfg(fw_iterations=300, max_levels=2, patience=2)
        model, records = train_recording_pairs(monkeypatch, ds, cfg)
        solutions = [solution for level in model.train_info for solution in level]
        assert len(solutions) == len(records) == model.n_levels * cfg.forests_per_level
        for solution, (forest, _, _, stats) in zip(solutions, records):
            assert isinstance(solution, Solution)
            np.testing.assert_array_equal(solution.weights, forest.weights)
            params = ObjectiveParams(stats, cfg.tau, cfg.lam)
            assert solution.objective <= objective(params, uniform_weights(forest.n_trees))
            assert 0 <= solution.steps <= 300

    def test_same_class_distance_not_increased_on_separable_toy(self, monkeypatch):
        # with a small margin the hinge is inactive on separated clusters, so
        # the trained weights cannot enlarge the same-class distance term
        ds = blobs(n=48, m=4, gap=10.0, seed=10)
        cfg = fast_cfg(tau=0.1, lam=0.01, fw_iterations=500)
        _, records = train_recording_pairs(monkeypatch, ds, cfg)
        assert len(records) == cfg.forests_per_level
        for forest, _, _, stats in records:
            w, uniform = forest.weights, uniform_weights(forest.n_trees)
            assert (stats.q_diff @ w).min() >= cfg.tau
            assert (stats.q_diff @ uniform).min() >= cfg.tau
            assert stats.pi @ (w * w) <= stats.pi @ (uniform * uniform) + 1e-12

    def test_single_class_training_fails_in_disdf_mode(self):
        features = np.random.default_rng(0).normal(size=(12, 3))
        ds = Dataset(features, np.zeros(12, dtype=int), 2)
        with pytest.raises(DegeneratePairsError, match="degenerate pair set"):
            train_cascade(ds, fast_cfg())

    def test_single_class_training_works_in_baseline_mode(self):
        features = np.random.default_rng(0).normal(size=(12, 3))
        ds = Dataset(features, np.zeros(12, dtype=int), 2)
        model = train_cascade(ds, fast_cfg(mode="baseline"))
        assert predict(model, features[0]) == 0

    def test_determinism(self):
        ds = blobs(n=36, m=4, seed=11)
        cfg = fast_cfg(seed=123)
        m1 = train_cascade(ds, cfg)
        m2 = train_cascade(ds, cfg)
        np.testing.assert_array_equal(
            predict_batch(m1, ds.features), predict_batch(m2, ds.features)
        )
        for l1, l2 in zip(m1.levels, m2.levels):
            for f1, f2 in zip(l1.forests, l2.forests):
                np.testing.assert_array_equal(f1.weights, f2.weights)

    def test_too_few_rows_rejected(self, monkeypatch):
        # refused by the level's fold ids, before any tree is grown
        monkeypatch.setattr(cascade, "train_forests", None)
        ds = blobs(n=2, m=2, seed=12)
        with pytest.raises(DataError, match="folds = 3 exceeds sample count 2"):
            train_cascade(ds, fast_cfg())

    def test_separable_data_perfectly_classified(self):
        ds = blobs(n=40, m=3, gap=12.0, seed=13)
        model = train_cascade(ds, fast_cfg(trees_per_forest=6))
        assert (predict_batch(model, ds.features) == ds.labels).all()

    def test_baseline_class_vectors_equal_tree_means(self):
        ds = blobs(n=30, m=3, seed=14)
        model = train_cascade(ds, fast_cfg(mode="baseline"))
        X = ds.features[:5]
        for forest in model.levels[0].forests:
            means = forest_tree_dists_batch(forest, X).mean(axis=1)
            np.testing.assert_allclose(
                class_vectors_batch(forest, X), means, atol=1e-12
            )
