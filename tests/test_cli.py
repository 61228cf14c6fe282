import codecs
import hashlib
import io
import json
import multiprocessing
import os
import re
import resource
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import disdf
from disdf.cascade import LevelModel, predict_batch, train_cascade
from disdf import cascade, cli, config
from disdf.cli import main
from disdf.config import TrainConfig
from disdf.data import load_csv
from disdf.errors import DegeneratePairsError, ModelFormatError
from disdf.serialize import FORMAT_VERSION, _Reader, load_model, save_model
from tests.test_cascade import blobs, fast_cfg, level_charges, manual_cascade, needs_fork
from tests.test_forest import TABLE
from tests.test_tree import leaf_forest


@pytest.fixture
def toy_csv(tmp_path):
    """Separable two-class CSV with string labels; label in the last column."""
    rng = np.random.default_rng(0)
    lines = []
    for label, center in (("a", 0.0), ("b", 9.0)):
        for _ in range(12):
            x = center + rng.normal(size=3)
            lines.append(",".join(f"{v:.5f}" for v in x) + f",{label}")
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def features_only(path, out):
    rows = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
    out.write_text("\n".join(rows) + "\n")
    return out


TRAIN_FLAGS = ["--trees", "3", "--fw-iterations", "50", "--max-levels", "1"]


class TestTrain:
    def test_train_writes_model(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "m.model"
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(out), "--seed", "7", *TRAIN_FLAGS,
             "--pair-budget", "none", "--max-depth", "None"]
        )
        assert code == 0
        assert out.exists()
        assert "level(s)" in capsys.readouterr().out
        config = load_model(out).config
        assert config.pair_budget is None and config.max_depth is None

    def test_closed_stdout_after_writing_exit_0(self, toy_csv, tmp_path, monkeypatch, capsys):
        # `disdf train ... | head -c 0`: the model is written before stdout fails
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        out = tmp_path / "m.model"
        try:
            code = main(["train", "--data", str(toy_csv), "--label-col", "3",
                         "--out", str(out), *TRAIN_FLAGS])
        finally:
            os.close(fd)
        assert code == 0
        assert capsys.readouterr().err == ""
        assert load_model(out).n_levels == 1

    def test_missing_data_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "absent.csv"), "--label-col", "0",
             "--out", str(tmp_path / "m.model")]
        )
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_bad_tau_exit_3(self, toy_csv, tmp_path, capsys):
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(tmp_path / "m.model"), "--tau", "0"]
        )
        assert code == 3
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--tau", "inf", "tau"), ("--lambda", "inf", "lambda"), ("--lambda", "nan", "lambda")],
    )
    def test_non_finite_tau_or_lambda_exit_3(
        self, toy_csv, tmp_path, capsys, monkeypatch, flag, value, named
    ):
        # refused by validation, before any tree is grown
        monkeypatch.setattr(cascade, "train_forests", None)
        out = tmp_path / "m.model"
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3", "--out", str(out),
             flag, value]
        )
        assert code == 3
        # a flag has no file and line to name
        assert capsys.readouterr().err.startswith(f"disdf: error: {named} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_negative_seed_exit_3(self, toy_csv, tmp_path, capsys, monkeypatch, command):
        # refused by validation, before any tree is grown
        monkeypatch.setattr(cascade, "train_forests", None)
        args = {"train": ["--out", str(tmp_path / "m.model")],
                "bench": ["--N-list", "9", "--T-list", "1", "--out-dir", str(tmp_path)]}
        code = main(
            [command, "--data", str(toy_csv), "--label-col", "3", *args[command],
             "--seed", "-1"]
        )
        assert code == 3
        assert capsys.readouterr().err == "disdf: error: seed must be >= 0\n"

    def test_label_col_by_header_name(self, toy_csv, tmp_path):
        named = tmp_path / "named.csv"
        named.write_text("x0,x1,x2,label\n" + toy_csv.read_text())
        models = []
        for data, label_col in ((toy_csv, "3"), (named, "label")):
            out = tmp_path / f"{data.stem}.model"
            code = main(
                ["train", "--data", str(data), "--label-col", label_col,
                 "--out", str(out), *TRAIN_FLAGS]
            )
            assert code == 0
            models.append(out.read_bytes())
        assert models[0] == models[1]

    @pytest.mark.parametrize(
        "text, label_col, message",
        [
            ("x0,x1,x2,label\n", "3", "file contains no data rows"),
            ("a\nb\na\n", "0", "need at least one feature column"),
            ("1.0,2.0,a\n3.0,4.0,b\n", "5", "out of range for 3 columns"),
        ],
    )
    def test_unusable_data_file_exit_2(self, tmp_path, capsys, text, label_col, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code = main(
            ["train", "--data", str(path), "--label-col", label_col,
             "--out", str(tmp_path / "m.model")]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_non_finite_tau_in_config_file_exit_3(self, toy_csv, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("tau=inf\n")
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(tmp_path / "m.model"), "--config", str(cfg_file)]
        )
        assert code == 3
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--trees", "abc", "trees_per_forest"),
            ("--pair-budget", "1.5", "pair_budget"),
            ("--lambda", "much", "lam"),
            ("--mode", "fast", "mode"),
        ],
    )
    def test_bad_flag_value_exit_3(self, toy_csv, tmp_path, capsys, flag, value, field):
        # the same parser reads flags and config files, so both exit 3
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(tmp_path / "m.model"), flag, value]
        )
        assert code == 3
        assert field in capsys.readouterr().err

    def test_out_into_missing_directory_rejected_before_training(
        self, toy_csv, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "train_cascade", lambda *a, **k: calls.append(a))
        out = tmp_path / "nodir" / "m.model"
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3", "--out", str(out),
             *TRAIN_FLAGS]
        )
        assert code == 2
        assert calls == []
        assert f"{out.parent} is not a directory" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_out_naming_a_directory_rejected_before_training(
        self, toy_csv, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "train_cascade", lambda *a, **k: calls.append(a))
        out = tmp_path / "outdir"
        out.mkdir()
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3", "--out", str(out),
             *TRAIN_FLAGS]
        )
        assert code == 2
        assert calls == []
        assert f"{out}: it is a directory" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_single_class_csv_exit_2(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0,a\n2.0,a\n")
        code = main(
            ["train", "--data", str(path), "--label-col", "1",
             "--out", str(tmp_path / "m.model")]
        )
        assert code == 2

    def test_config_file_with_flag_override(self, toy_csv, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            "tau=0.7\ntrees_per_forest=3\nfw_iterations=40\nmax_levels=1\n"
            "pair_budget=100\nmax_depth=4\nstratify=yes\n"
        )
        out = tmp_path / "m.model"
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(out), "--config", str(cfg_file), "--tau", "0.9",
             "--pair-budget", "none"]
        )
        assert code == 0
        model = load_model(out)
        assert model.config.tau == 0.9
        assert model.config.trees_per_forest == 3
        assert model.config.pair_budget is None
        assert model.config.max_depth == 4
        assert model.config.stratify is True

    def test_byte_order_marked_files(self, toy_csv, tmp_path, capsys):
        # a BOM neither turns the first data row into a header nor renames a key
        data = tmp_path / "bom.csv"
        data.write_bytes(codecs.BOM_UTF8 + toy_csv.read_bytes())
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_bytes(codecs.BOM_UTF8 + b"trees_per_forest=3\n")
        out = tmp_path / "m.model"
        code = main(
            ["train", "--data", str(data), "--label-col", "3", "--out", str(out),
             "--config", str(cfg_file), "--fw-iterations", "50", "--max-levels", "1"]
        )
        assert code == 0
        assert "on 24 rows" in capsys.readouterr().out
        assert load_model(out).config.trees_per_forest == 3

    def test_bad_config_file_exit_3(self, toy_csv, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.txt"
        args = ["train", "--data", str(toy_csv), "--label-col", "3",
                "--out", str(tmp_path / "m.model"), "--config", str(cfg_file)]
        for text, line, named, override in [
            ("no_such_knob=1\n", 1, "no_such_knob", None),
            ("# defaults\ntau=0.7\nmax_depth=deep\n", 3, "max_depth", ["--max-depth", "2"]),
            ("stratify=maybe\n", 1, "stratify", ["--stratify"]),
            ("tau 0.7\n", 1, "expected '<field>=<value>'", None),
            # values that parse but fail validation
            ("trees_per_forest=3\ntau=inf\n", 2, "tau", ["--tau", "0.7"]),
            ("trees_per_forest=3\nfolds=1\n", 2, "folds", ["--folds", "3"]),
        ]:
            cfg_file.write_text(text)
            assert main(args) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"disdf: error: {cfg_file}:{line}: ") and named in err
            if override:
                # a flag for the same field replaces the bad text
                assert main(args + override + TRAIN_FLAGS) == 0


class TestPredict:
    def train_model(self, toy_csv, tmp_path):
        out = tmp_path / "m.model"
        assert (
            main(
                ["train", "--data", str(toy_csv), "--label-col", "3",
                 "--out", str(out), "--seed", "3", *TRAIN_FLAGS]
            )
            == 0
        )
        return out

    def test_self_consistency_on_training_file(self, toy_csv, tmp_path):
        model_path = self.train_model(toy_csv, tmp_path)
        feats = features_only(toy_csv, tmp_path / "feats.csv")
        pred_path = tmp_path / "preds.csv"
        code = main(
            ["predict", "--model", str(model_path), "--data", str(feats),
             "--out", str(pred_path)]
        )
        assert code == 0
        preds = [int(v) for v in pred_path.read_text().split()]
        # labels "a" then "b" encode to 0 then 1, twelve rows each
        assert preds == [0] * 12 + [1] * 12

    def test_label_col_dropped_when_given(self, toy_csv, tmp_path):
        model_path = self.train_model(toy_csv, tmp_path)
        pred_path = tmp_path / "preds.csv"
        code = main(
            ["predict", "--model", str(model_path), "--data", str(toy_csv),
             "--label-col", "3", "--out", str(pred_path)]
        )
        assert code == 0
        assert len(pred_path.read_text().split()) == 24

    def test_single_label_query_with_label_col(self, toy_csv, tmp_path):
        # a query file need not hold two classes; its labels are not read
        model_path = self.train_model(toy_csv, tmp_path)
        query = tmp_path / "query.csv"
        query.write_text(toy_csv.read_text().replace(",b\n", ",a\n"))
        feats = features_only(toy_csv, tmp_path / "feats.csv")
        outputs = []
        for data, label_args in ((query, ["--label-col", "3"]), (feats, [])):
            out = tmp_path / f"preds_{data.stem}.csv"
            code = main(
                ["predict", "--model", str(model_path), "--data", str(data),
                 *label_args, "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_text())
        assert len(outputs[0].splitlines()) == 24
        assert outputs[0] == outputs[1]

    def test_empty_input_empty_output(self, toy_csv, tmp_path, capsys):
        model_path = self.train_model(toy_csv, tmp_path)
        empty = tmp_path / "empty.csv"
        out = tmp_path / "preds.csv"
        # no rows, and a header row alone
        for text in ("", "x0,x1,x2\n"):
            empty.write_text(text)
            out.unlink(missing_ok=True)
            capsys.readouterr()
            code = main(
                ["predict", "--model", str(model_path), "--data", str(empty),
                 "--out", str(out)]
            )
            assert code == 0
            assert out.read_text() == ""
            assert "0 predictions" in capsys.readouterr().out

    def test_wrong_dimension_exit_3(self, toy_csv, tmp_path, capsys):
        model_path = self.train_model(toy_csv, tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n")
        code = main(
            ["predict", "--model", str(model_path), "--data", str(bad),
             "--out", str(tmp_path / "preds.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "2" in err and "3" in err  # actual and expected dims

    def test_missing_model_exit_2(self, toy_csv, tmp_path):
        code = main(
            ["predict", "--model", str(tmp_path / "no.model"),
             "--data", str(toy_csv), "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2


class TestModelFile:
    def trained(self, seed=0):
        ds = blobs(n=36, m=4, seed=seed)
        return train_cascade(ds, fast_cfg(max_levels=2, fw_iterations=80)), ds

    def test_round_trip_bitwise_identical_predictions(self, tmp_path):
        model, ds = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(1)
        X = rng.normal(scale=4.0, size=(100, ds.feature_dim))
        np.testing.assert_array_equal(
            predict_batch(model, X), predict_batch(loaded, X)
        )
        for l1, l2 in zip(model.levels, loaded.levels):
            for f1, f2 in zip(l1.forests, l2.forests):
                assert f1.kind == f2.kind
                for name in TABLE:
                    a1, a2 = getattr(f1, name), getattr(f2, name)
                    assert a1.dtype == a2.dtype
                    np.testing.assert_array_equal(a1, a2)

    def test_config_echo_round_trips(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).config == model.config

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_truncated_file_detected(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ModelFormatError, match="truncated|checksum"):
            load_model(path)
        # a regular file is sized before its payload is read, so a huge
        # declared payload is neither allocated nor read
        head, sep, payload = blob.partition(b"---\n")
        head = re.sub(rb"bytes \d+", b"bytes %d" % (1 << 60), head)
        path.write_bytes(head + sep + payload)
        with pytest.raises(ModelFormatError,
                           match=rf"truncated payload \({len(payload)} of {1 << 60} bytes\)"):
            load_model(path)

    @pytest.mark.parametrize("cut", [0, 1])
    def test_model_read_through_a_pipe(self, tmp_path, cut):
        # a pipe has no size: its payload is read up to the declared size
        model, ds = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(blob[: len(blob) - cut],))
        writer.start()
        try:
            if cut:
                with pytest.raises(ModelFormatError, match="truncated payload"):
                    load_model(pipe)
            else:
                loaded = load_model(pipe)
                np.testing.assert_array_equal(
                    predict_batch(loaded, ds.features), predict_batch(model, ds.features)
                )
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()

    def retag(self, tmp_path, version):
        model, _ = self.trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        tag = f"DISDF-MODEL {FORMAT_VERSION}\n".encode()
        assert blob.startswith(tag)
        path.write_bytes(f"DISDF-MODEL {version}\n".encode() + blob[len(tag) :])
        return path

    def test_future_version_rejected(self, tmp_path):
        path = self.retag(tmp_path, FORMAT_VERSION + 1)
        with pytest.raises(ModelFormatError, match=f"version {FORMAT_VERSION + 1}"):
            load_model(path)

    # version 1 stored each tree's arrays separately, version 2 left, right
    # and a dist row for every node, version 3 tree counts, level widths and
    # array shapes twice, version 4 float64 leaf distributions and version 5
    # int32 child and root references
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_old_version_file_rejected_exit_2(self, tmp_path, toy_csv, capsys, version):
        path = self.retag(tmp_path, version)
        code = main(
            ["predict", "--model", str(path), "--data", str(toy_csv),
             "--label-col", "3", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2
        assert f"version {version}" in capsys.readouterr().err

    def test_not_a_model_file(self, tmp_path, toy_csv):
        path = tmp_path / "junk.model"
        for head, message in (
            (b"hello world\n", "missing header"),
            (b"NOT-A-MODEL 4\nsha256 0\nbytes 0\n---\n", "bad magic"),
            (b"DISDF-MODEL four\nsha256 0\nbytes 0\n---\n", "malformed version tag"),
            (f"DISDF-MODEL {FORMAT_VERSION}\nsha256 0\nsize 0\n---\n".encode(), "malformed header"),
        ):
            path.write_bytes(head)
            TestStructuralChecks.assert_rejected(path, message, toy_csv, tmp_path)

    def test_class_labels_round_trip(self, tmp_path, toy_csv):
        out = tmp_path / "m.model"
        main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(out), *TRAIN_FLAGS]
        )
        assert load_model(out).class_labels == ("a", "b")


def write_payload(path, payload: bytes) -> None:
    """Write a model file around ``payload`` with a valid header and checksum."""
    digest = hashlib.sha256(payload).hexdigest()
    header = f"DISDF-MODEL {FORMAT_VERSION}\nsha256 {digest}\nbytes {len(payload)}\n"
    path.write_bytes(header.encode() + b"---\n" + payload)


def rewrite_meta(path, edit) -> None:
    """Apply ``edit`` to a model file's JSON block; keep length and checksum valid."""
    payload = path.read_bytes().partition(b"---\n")[2]
    end = 8 + struct.unpack("<Q", payload[:8])[0]
    meta = edit(payload[8:end])
    write_payload(path, struct.pack("<Q", len(meta)) + meta + payload[end:])


def forest_blocks(path):
    """A model file's payload and each stored forest's byte spans in it.

    A forest's spans map ``"sizes"``, its two u64 sizes, and each array name
    to ``(start, end)``; ``"is_node"`` spans its packed bytes.  Blocks are
    found by walking the file, not by content: two arrays of a table can hold
    equal bytes.
    """
    payload = path.read_bytes().partition(b"---\n")[2]
    reader = _Reader(payload, path)
    (meta_len,) = struct.unpack("<Q", reader.take(8))
    num_classes = json.loads(reader.take(meta_len))["num_classes"]
    blocks = []
    while reader.offset < len(payload):
        pos = reader.offset
        t, i = struct.unpack("<2Q", payload[pos : pos + 16])
        spans = {}
        for name, n_bytes in (("sizes", 16), ("weights", 8 * t), ("feature", 4 * i),
                              ("threshold", 8 * i), ("is_node", (t + 2 * i + 7) // 8),
                              ("counts", 4 * (t + i) * num_classes)):
            spans[name] = (pos, pos + n_bytes)
            pos += n_bytes
        reader.forest(num_classes)
        assert reader.offset == pos
        blocks.append(spans)
    return payload, blocks


def rewrite_array(path, name: str, new: np.ndarray) -> None:
    """Replace array ``name`` of the first stored forest by ``new``; bits are
    packed as the file stores them."""
    if new.dtype == bool:
        new = np.packbits(new, bitorder="little")
    payload, blocks = forest_blocks(path)
    start, end = blocks[0][name]
    assert new.nbytes == end - start
    write_payload(path, payload[:start] + new.tobytes() + payload[end:])


def patched(array, index, value):
    out = array.copy()
    out[index] = value
    return out


class TestStructuralChecks:
    """A file with a valid checksum but a broken node table fails at load."""

    @pytest.fixture
    def saved(self, tmp_path):
        model, _ = TestModelFile().trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        return model, path

    @staticmethod
    def assert_rejected(path, message, toy_csv, tmp_path):
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        code = main(
            ["predict", "--model", str(path), "--data", str(toy_csv),
             "--label-col", "3", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2

    @staticmethod
    def four_stumps(model):
        # forest 0 holds four stumps: tree t is node t with leaves 2t and 2t+1
        forest = model.levels[0].forests[0]
        assert np.array_equal(forest.is_node, np.arange(12) < 4)
        return forest

    def test_self_loop_rejected_instead_of_hanging(self, saved, toy_csv, tmp_path):
        model, path = saved
        forest = self.four_stumps(model)
        # tree 3's root becomes a leaf, and node 3 its own left child
        rewrite_array(path, "is_node", patched(forest.is_node, [3, 10], [False, True]))
        self.assert_rejected(path, "not greater than its parent", toy_csv, tmp_path)

    @pytest.mark.parametrize(
        "name, index, value, message",
        [
            ("feature", 0, "input_dim", "feature"),
            ("counts", "first_leaf", (0, 0), "no rows"),
            ("weights", 0, 5.0, "simplex"),
            ("weights", 0, np.nan, "simplex"),
            ("feature", 0, -1, "feature"),
            ("threshold", 0, np.nan, "threshold"),
            ("threshold", 1, np.inf, "threshold"),
            # tree 0's first leaf becomes a fifth internal node, or its root a leaf
            ("is_node", 4, True, "5 bits mark internal nodes, for 4 split features"),
            ("is_node", 0, False, "3 bits mark internal nodes, for 4 split features"),
        ],
    )
    def test_broken_table_rejected(
        self, saved, toy_csv, tmp_path, name, index, value, message
    ):
        model, path = saved
        forest = self.four_stumps(model)
        positions = {"first_leaf": 0}
        values = {"input_dim": model.base_dim}
        array = getattr(forest, name)
        bad = patched(array, positions.get(index, index), values.get(value, value))
        rewrite_array(path, name, bad)
        self.assert_rejected(path, message, toy_csv, tmp_path)

    @pytest.mark.parametrize("forest", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("count", range(2), ids=["n_trees", "n_internal"])
    def test_tampered_count_rejected(self, saved, toy_csv, tmp_path, count, delta, forest):
        _, path = saved
        payload, blocks = forest_blocks(path)
        at = blocks[forest]["sizes"][0] + 8 * count
        (value,) = struct.unpack("<Q", payload[at : at + 8])
        bad = struct.pack("<Q", value + delta)
        write_payload(path, payload[:at] + bad + payload[at + 8 :])
        message = f"^{re.escape(str(path))}: (model payload is truncated|malformed forest table)"
        self.assert_rejected(path, message, toy_csv, tmp_path)

    def test_nonzero_pad_bits_rejected(self, saved, toy_csv, tmp_path):
        model, path = saved
        self.four_stumps(model)
        payload, blocks = forest_blocks(path)
        # 12 bits fill two bytes; the last byte's top four bits are padding
        last = blocks[0]["is_node"][1] - 1
        assert payload[last] == 0
        write_payload(path, payload[:last] + b"\x80" + payload[last + 1 :])
        self.assert_rejected(path, "malformed forest table: pad bits", toy_csv, tmp_path)

    def test_zero_tree_forest_rejected(self, saved, toy_csv, tmp_path):
        model, path = saved
        forest = self.four_stumps(model)
        payload, blocks = forest_blocks(path)
        spans = blocks[0]
        # the block stays self-consistent: no weights, no roots and 2I bits
        # for I internal nodes, of which I leaves
        n_internal = forest.feature.size
        block = struct.pack("<2Q", 0, n_internal) + b"".join(
            payload[slice(*spans[name])] for name in ("feature", "threshold")
        ) + np.packbits(forest.is_node[4:], bitorder="little").tobytes() \
            + forest.counts[:n_internal].astype("<u4").tobytes()
        write_payload(path, payload[: spans["sizes"][0]] + block + payload[spans["counts"][1] :])
        self.assert_rejected(path, "at least one tree", toy_csv, tmp_path)

    def test_trailing_payload_bytes_rejected(self, saved, toy_csv, tmp_path):
        _, path = saved
        write_payload(path, path.read_bytes().partition(b"---\n")[2] + b"\0")
        self.assert_rejected(path, "1 bytes after the last forest", toy_csv, tmp_path)

    def test_level_dims_follow_recurrence(self, tmp_path):
        model = manual_cascade([[3, 2]], n_features=3)
        second = LevelModel([leaf_forest([[1, 9]], n_features=5)])
        model.levels.append(second)
        model.level_scores = (1.0, 1.0)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert [level.input_dim for level in loaded.levels] == [3, 5]


class TestMetadataChecks:
    """A valid checksum over a bad JSON block fails at load and exits 2."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (b'"base_dim"', b'"base_dom"', "'base_dim' is missing"),
            # inside the config, whose keys come first in the sorted block
            (b'"tau"', b'"tan"', "config.*unknown config keys"),
            (b'"fw_iterations": 80', b'"fw_iterations": 0', "config.*fw_iterations"),
            (b'"tau": 0.5', b'"tau": null', "config"),
            (b'"tau": 0.5', b'"tau": Infinity', "config.*tau"),
            (b'"lam": 0.01', b'"lam": NaN', "config.*lambda"),
            (b'"num_classes": 2', b'"num_classes": "2"', "'num_classes' .*type int"),
            (b'"level_scores": [', b'"level_scores": {"a": 0}, "x": [', "level_scores"),
            (b'"levels": [', b'"levels": {"a": 0}, "x": [', "'levels'"),
            (b'"completely-random"', b'"completely-rondom"', "level 0 .*forest kinds"),
            (b'"levels": [[', b'"levels": [7, [', "level 0 .*forest kinds"),
            (b'"levels": [[', b'"levels": [[], [', "level 0 .*forest kinds"),
            (b'"class_labels": null', b'"class_labels": 3', "class labels"),
            (b'{"base_dim"', b'[{"base_dim"', "'config' is missing"),
            # a block that contradicts itself
            (b'"class_labels": null', b'"class_labels": ["a", "b", "c"]',
             "3 class labels for 2 classes"),
            (b'"level_scores": [', b'"level_scores": [], "x": [', "0 level scores for"),
            (b'"levels": [', b'"x": 1, "levels": [', r"unknown metadata keys: \['x'\]"),
            (b'"level_scores": [', b'"level_scores": ["best", ', "level scores are not all numbers"),
            (b'"levels": [', b'"levels": [], "x": [', "model has no levels"),
            (b'"num_classes": 2', b'"num_classes": 1', "'num_classes' has bad value 1"),
            # config values of the wrong type
            (b'"seed": 0', b'"seed": "abc"', "config.*seed must be of type int"),
            (b'"trees_per_forest": 4', b'"trees_per_forest": 2.5',
             "config.*trees_per_forest must be of type int"),
            (b'"stratify": false', b'"stratify": "yes"', "config.*stratify must be of type bool"),
            (b'"lam": 0.01', b'"lam": true', "config.*lam must be of type float"),
            # config values out of range
            (b'"seed": 0', b'"seed": -1', "config.*seed must be >= 0"),
            pytest.param(b'"tau": 0.5', b'"tau": ' + str(10**400).encode(),
                         "config.*tau must be finite", id="tau-beyond-float"),
        ],
    )
    def test_bad_metadata_rejected(self, tmp_path, toy_csv, old, new, message):
        model, _ = TestModelFile().trained()
        path = tmp_path / "m.model"
        save_model(model, path)
        assert old in path.read_bytes()
        if old.startswith(b"{"):
            # the whole block becomes a list holding the original object
            rewrite_meta(path, lambda meta: b"[" + meta + b"]")
        else:
            rewrite_meta(path, lambda meta: meta.replace(old, new, 1))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)
        code = main(
            ["predict", "--model", str(path), "--data", str(toy_csv),
             "--label-col", "3", "--out", str(tmp_path / "p.csv")]
        )
        assert code == 2


def test_mutation_fuzz(tmp_path):
    """Random byte overwrites with a valid checksum: rejected, or predictions valid."""
    model, _ = TestModelFile().trained()
    path = tmp_path / "m.model"
    save_model(model, path)
    payload = path.read_bytes().partition(b"---\n")[2]
    meta_end = 8 + struct.unpack("<Q", payload[:8])[0]
    rng = np.random.default_rng(2024)
    outcomes = {"rejected": 0, "predicted": 0}
    for trial in range(200):
        # even trials hit the JSON block, odd ones the array blocks
        lo, hi = (8, meta_end) if trial % 2 == 0 else (meta_end, len(payload))
        blob = bytearray(payload)
        for pos in rng.integers(lo, hi, size=rng.integers(1, 4)):
            blob[pos] = rng.integers(256)
        write_payload(path, bytes(blob))
        try:
            loaded = load_model(path)
        except ModelFormatError:
            outcomes["rejected"] += 1
            continue
        X = rng.normal(scale=4.0, size=(20, loaded.base_dim))
        preds = predict_batch(loaded, X)
        assert preds.shape == (20,)
        assert preds.min() >= 0 and preds.max() < loaded.num_classes
        outcomes["predicted"] += 1
    assert outcomes["rejected"] > 0 and outcomes["predicted"] > 0


def test_pair_memory_bound_exit_3(tmp_path, monkeypatch, capsys):
    # 300 rows, 3 trees: all 44,850 pairs charge 3.6 MB, over the limit;
    # growing the level's 4 slots takes 1.8 MB and a budget of 20 pairs 17 KB
    ds = blobs(n=300, m=3, seed=19)
    data = tmp_path / "rows.csv"
    data.write_text("".join(f"{x[0]},{x[1]},{x[2]},{y}\n" for x, y in zip(ds.features, ds.labels)))
    limit = 2_000_000
    kept, slot, fixed, pairs = level_charges(load_csv(data, 3), TrainConfig(trees_per_forest=3))
    assert max(kept, 4 * slot + fixed) < limit < pairs
    monkeypatch.setattr(config, "MEMORY_LIMIT", limit)
    out = tmp_path / "m.model"
    args = ["train", "--data", str(data), "--label-col", "3", "--out", str(out), *TRAIN_FLAGS]
    assert main(args) == 3
    assert "--pair-budget" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--pair-budget", "20"]) == 0


def test_grow_memory_bound_exit_3(toy_csv, tmp_path, monkeypatch, capsys):
    # refused before any tree is grown
    monkeypatch.setattr(cascade, "train_forests", None)
    # above the level's kept trees and class vectors (10,992 bytes) and one
    # forest's pairs (23,460), below one slot's grower temporaries
    limit = 100_000
    kept, slot, fixed, pairs = level_charges(load_csv(toy_csv, 3), TrainConfig(trees_per_forest=3))
    assert max(kept, pairs) < limit < slot + fixed
    monkeypatch.setattr(config, "MEMORY_LIMIT", limit)
    out = tmp_path / "m.model"
    args = ["train", "--data", str(toy_csv), "--label-col", "3", "--out", str(out),
            *TRAIN_FLAGS]
    assert main(args) == 3
    assert "--trees grows fewer" in capsys.readouterr().err
    assert not out.exists()


def capped_cli(args, limit):
    """``python -m disdf.cli`` on ``args`` in a process whose address space
    is capped at ``limit`` bytes, so that code which allocates what it should
    refuse fails inside the cap instead of exhausting the host's memory."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(disdf.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "disdf.cli", *args],
        preexec_fn=cap, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("forests", [3_000_000, 1_000_000_000])
def test_oversized_forests_exit_3_before_any_slot(toy_csv, tmp_path, forests):
    # three million forests keep about 6 GiB, and a billion a list of their
    # kinds alone would take 8 GiB; the level is refused before any per-slot
    # state is made, inside a cap of 1.5 GiB
    out = tmp_path / "m.model"
    run = capped_cli(
        ["train", "--data", str(toy_csv), "--label-col", "3", "--out", str(out),
         "--forests", str(forests), "--trees", "2", "--fw-iterations", "5"],
        1536 << 20,
    )
    assert run.returncode == 3, run.stderr
    assert "--forests" in run.stderr
    assert not out.exists()


# flag the hostile file is passed with, and its bytes (None: a model file)
HOSTILE_FILES = {
    "data-not-utf8": ("--data", b"1.0,a\n2.0,\xff\n"),
    "config-not-utf8": ("--config", b"# \xe9t\xe9\ntau=0.5\n"),
    "csv-field-over-limit": ("--data", b"1.0," + b"a" * 200_000 + b"\n"),
    "metadata-nested-100k-deep": ("--model", None),
    # a model file is refused from its first lines, not read whole
    "csv-as-model": ("--model", b"1.0,2.0,3.0,a\n" * 100_000),
}


@pytest.mark.parametrize("case", list(HOSTILE_FILES))
def test_hostile_file_exit_2(case, toy_csv, tmp_path, capsys):
    flag, content = HOSTILE_FILES[case]
    path = tmp_path / "hostile"
    if flag == "--model":
        if content is None:
            # the checksum is valid, so only the JSON parser meets the nesting
            meta = b"[" * 100_000 + b"]" * 100_000
            write_payload(path, struct.pack("<Q", len(meta)) + meta)
        else:
            path.write_bytes(content)
        args = ["predict", "--model", str(path), "--data", str(toy_csv)]
    else:
        path.write_bytes(content)
        data = path if flag == "--data" else toy_csv
        args = ["train", "--data", str(data)]
        if flag == "--config":
            args += ["--config", str(path)]
    assert main(args + ["--label-col", "3", "--out", str(tmp_path / "out")]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--data", "--config"])
def test_endless_data_or_config_exit_2(flag, toy_csv, tmp_path):
    # /dev/zero has no newline: its lines and a config file are read with a
    # bound, inside a cap of 768 MiB that reading it whole would exhaust
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero here")
    args = ["train", "--out", str(tmp_path / "m.model")]
    if flag == "--data":
        args += ["--data", "/dev/zero", "--label-col", "label"]
    else:
        args += ["--data", str(toy_csv), "--label-col", "3", "--config", "/dev/zero"]
    run = capped_cli(args, 768 << 20)
    assert run.returncode == 2, run.stderr
    message = "a line is longer than" if flag == "--data" else "config file /dev/zero is longer"
    assert message in run.stderr


def test_config_file_over_the_bound_exit_2(toy_csv, tmp_path, capsys, monkeypatch):
    cfg_file = tmp_path / "cfg.txt"
    args = ["train", "--data", str(toy_csv), "--label-col", "3", "--out",
            str(tmp_path / "m.model"), "--config", str(cfg_file), "--max-levels", "1"]
    monkeypatch.setattr(cli, "CONFIG_BYTES", 12)
    cfg_file.write_text("tau=0.5\n# a\n")
    assert main(args) == 0
    cfg_file.write_text("tau=0.5\n# ab\n")
    assert main(args) == 2
    assert f"config file {cfg_file} is longer than 12 bytes" in capsys.readouterr().err


@pytest.mark.parametrize("device", ["/dev/zero", "/dev/urandom"])
def test_device_as_model_exit_2(device, toy_csv, tmp_path):
    # an endless file is refused from a bounded read of its first lines,
    # inside a cap of 1 GiB that reading it whole would exhaust
    if not os.path.exists(device):
        pytest.skip(f"no {device} here")
    run = capped_cli(
        ["predict", "--model", device, "--data", str(toy_csv), "--label-col", "3",
         "--out", str(tmp_path / "p.csv")],
        1 << 30,
    )
    assert run.returncode == 2, run.stderr
    assert f"{device}: not a model file (missing header)" in run.stderr


class TestBench:
    def test_smoke_grid(self, toy_csv, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            ["bench", "--data", str(toy_csv), "--label-col", "3",
             "--N-list", "9,12", "--T-list", "1,2", "--reps", "1",
             "--out-dir", str(out_dir), "--trees", "2",
             "--fw-iterations", "40", "--max-levels", "1", "--seed", "1"]
        )
        assert code == 0
        assert (out_dir / "toy_accuracies.csv").exists()
        assert (out_dir / "toy_summary.csv").exists()
        captured = capsys.readouterr().out
        assert "gcF" in captured and "DisDF" in captured

    def test_oversized_n_exit_2(self, toy_csv, tmp_path, capsys):
        code = main(
            ["bench", "--data", str(toy_csv), "--label-col", "3",
             "--N-list", "24", "--T-list", "1", "--reps", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "N" in capsys.readouterr().err

    @pytest.mark.parametrize("under", [(), ("sub",), ("sub", "subsub")])
    def test_out_dir_on_a_file_rejected_before_the_grid(
        self, toy_csv, tmp_path, monkeypatch, capsys, under
    ):
        calls = []
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: calls.append(a))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        code = main(
            ["bench", "--data", str(toy_csv), "--label-col", "3",
             "--N-list", "9", "--T-list", "1", "--reps", "1",
             "--out-dir", str(afile.joinpath(*under))]
        )
        assert code == 2
        assert calls == []
        assert f"{afile} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "toy.csv"]

    @staticmethod
    def bench_spied(monkeypatch, toy_csv, out_dir, *flags):
        """``disdf bench`` on toy_csv with spies on load_csv and run_grid; their calls."""
        calls = []
        monkeypatch.setattr(cli, "load_csv", lambda *a, **k: calls.append("load_csv"))
        monkeypatch.setattr(cli, "run_grid", lambda *a, **k: calls.append("run_grid"))
        code = main(
            ["bench", "--data", str(toy_csv), "--label-col", "3",
             "--N-list", "9", "--T-list", "1", "--reps", "1",
             "--out-dir", str(out_dir), *flags]
        )
        return code, calls

    @pytest.mark.parametrize("name", ["sub/x", "absolute", "x/", ".", ".."])
    def test_name_that_is_not_one_file_name_rejected_before_the_grid(
        self, toy_csv, tmp_path, monkeypatch, capsys, name
    ):
        # both directories exist, so a name reaching them would be written there
        out_dir = tmp_path / "results"
        (out_dir / "sub").mkdir(parents=True)
        (tmp_path / "abs").mkdir()
        if name == "absolute":
            name = str(tmp_path / "abs" / "x")
        code, calls = self.bench_spied(monkeypatch, toy_csv, out_dir, "--name", name)
        assert code == 2
        assert calls == []
        assert "is not a plain file name" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [toy_csv]

    @pytest.mark.parametrize("which", ["accuracies", "summary"])
    def test_csv_path_that_is_a_directory_rejected_before_the_grid(
        self, toy_csv, tmp_path, monkeypatch, capsys, which
    ):
        taken = tmp_path / "results" / f"toy_{which}.csv"
        taken.mkdir(parents=True)
        code, calls = self.bench_spied(monkeypatch, toy_csv, tmp_path / "results")
        assert code == 2
        assert calls == []
        assert f"cannot write {taken}: it is a directory" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [toy_csv]

    @pytest.mark.parametrize(
        "n_list, t_list",
        [("9;12", "1"), ("9", "0"), ("0", "1"), (",", "1")],
    )
    def test_bad_list_exit_3(self, toy_csv, tmp_path, n_list, t_list):
        code = main(
            ["bench", "--data", str(toy_csv), "--label-col", "3",
             "--N-list", n_list, "--T-list", t_list, "--reps", "1",
             "--out-dir", str(tmp_path)]
        )
        assert code == 3


class TestThreads:
    def test_env_override(self, toy_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("DISDF_THREADS", "2")
        out = tmp_path / "m.model"
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(out), *TRAIN_FLAGS]
        )
        assert code == 0

    def test_bad_env_value(self, toy_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("DISDF_THREADS", "lots")
        code = main(
            ["train", "--data", str(toy_csv), "--label-col", "3",
             "--out", str(tmp_path / "m.model"), *TRAIN_FLAGS]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "threads, command, extra",
        [
            ("abc", "train", []),
            ("0", "train", []),
            ("1", "bench", ["--reps", "x"]),
            ("1", "bench", ["--reps", "0"]),
        ],
    )
    def test_bad_count_exit_3(self, toy_csv, tmp_path, capsys, threads, command, extra):
        rest = {
            "train": ["--out", str(tmp_path / "m.model"), *TRAIN_FLAGS],
            "bench": ["--N-list", "9", "--T-list", "1", "--out-dir", str(tmp_path)],
        }[command]
        code = main(
            ["--threads", threads, command, "--data", str(toy_csv), "--label-col", "3",
             *rest, *extra]
        )
        assert code == 3
        assert "must be" in capsys.readouterr().err

    def test_threads_flag_parallel_training(self, toy_csv, tmp_path):
        out_serial = tmp_path / "serial.model"
        out_parallel = tmp_path / "parallel.model"
        base = ["train", "--data", str(toy_csv), "--label-col", "3",
                "--seed", "5", *TRAIN_FLAGS]
        assert main(base + ["--out", str(out_serial)]) == 0
        assert main(["--threads", "2"] + base + ["--out", str(out_parallel)]) == 0
        # parallel dispatch must not change the trained model, byte for byte
        assert out_serial.read_bytes() == out_parallel.read_bytes()
        m_serial = load_model(out_serial)
        m_parallel = load_model(out_parallel)
        X = np.random.default_rng(2).normal(size=(50, 3), scale=5.0)
        np.testing.assert_array_equal(
            predict_batch(m_serial, X), predict_batch(m_parallel, X)
        )

    @needs_fork
    def test_worker_error_exit_3(self, toy_csv, tmp_path, monkeypatch, capsys, deadline):
        def degenerate(*args):
            raise DegeneratePairsError("every pair is a same-class pair (patched)")

        monkeypatch.setattr(cascade, "compute_pair_stats", degenerate)
        out = tmp_path / "m.model"
        code = main(["--threads", "2", "train", "--data", str(toy_csv), "--label-col", "3",
                     "--out", str(out), *TRAIN_FLAGS])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "disdf: error: every pair is a same-class pair (patched)\n"
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_that_dies_exit_1(self, toy_csv, tmp_path, monkeypatch, capsys, deadline):
        parent = os.getpid()

        def die(*args):
            if os.getpid() != parent:
                os._exit(1)
            raise AssertionError("pair statistics ran in the calling process")

        monkeypatch.setattr(cascade, "compute_pair_stats", die)
        out = tmp_path / "m.model"
        code = main(["--threads", "2", "train", "--data", str(toy_csv), "--label-col", "3",
                     "--out", str(out), *TRAIN_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("disdf: error: ") and "exit code 1 " in err
        assert not out.exists()
        assert multiprocessing.active_children() == []
