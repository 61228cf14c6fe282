import codecs
import csv
import gzip
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from disdf.data import Dataset, fold_ids, load_csv, load_features, split
from disdf.errors import BadCellError, DataError, RaggedRowError, SingleClassError

DATA_DIR = Path(os.environ.get("DISDF_DATA_DIR", Path(__file__).parent.parent / "data"))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_labels_encoded_by_first_appearance(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path, 2)
        assert ds.n == 3
        assert ds.num_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.label_names == ("a", "b")

    def test_feature_values_loaded(self, tmp_path):
        path = write(tmp_path, "1.5,-2.0,x\n0.25,3e2,y\n")
        ds = load_csv(path, 2)
        np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.25, 300.0]])

    def test_header_autodetected(self, tmp_path):
        path = write(tmp_path, "f1,f2,target\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_csv(path, 2)
        assert ds.n == 2
        assert ds.label_names == ("0", "1")

    def test_numeric_first_row_is_data(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n")
        assert load_csv(path, 2).n == 2

    def test_label_column_by_name(self, tmp_path):
        path = write(tmp_path, "target,f1\nyes,0.5\nno,0.6\n")
        ds = load_csv(path, "target")
        assert ds.feature_dim == 1
        assert ds.labels.tolist() == [0, 1]

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        ds = load_csv(path, 2)
        assert ds.n == 3
        np.testing.assert_array_equal(ds.features[0], [1.0, 2.0])
        np.testing.assert_array_equal(load_features(path, 2), ds.features)

    def test_byte_order_mark_before_header_names_first_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"target,f1\nyes,0.5\nno,0.6\n")
        ds = load_csv(path, "target")
        assert ds.label_names == ("yes", "no")
        np.testing.assert_array_equal(load_features(path, "target"), [[0.5], [0.6]])

    def test_missing_named_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(path, "target")

    def test_ragged_row_names_the_row(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,a\n3.0,b\n5.0,6.0,a\n")
        with pytest.raises(RaggedRowError, match="row 2"):
            load_csv(path, 2)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,a\n3.0,oops,b\n")
        with pytest.raises(BadCellError, match="row 2, column 1"):
            load_csv(path, 2)

    def test_nan_cell_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,nan,a\n2.0,3.0,b\n")
        with pytest.raises(BadCellError, match="not finite"):
            load_csv(path, 2)

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "1.0,a\n2.0,a\n")
        with pytest.raises(SingleClassError):
            load_csv(path, 1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv", 0)

    def test_negative_label_column(self, tmp_path):
        path = write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n")
        ds = load_csv(path, -1)
        assert ds.feature_dim == 2

    def test_ecoli_shape(self):
        # 336 rows and 8 classes; the prepared CSV drops the non-predictive
        # accession-name column, leaving the 7 numeric features
        path = DATA_DIR / "ecoli.csv"
        if not path.exists():
            pytest.skip(f"{path} not found; run scripts/fetch_uci.py first")
        ds = load_csv(path, -1)
        assert ds.n == 336
        assert ds.num_classes == 8
        assert ds.feature_dim == 7


class TestLoadFeatures:
    def test_plain_matrix(self, tmp_path):
        path = write(tmp_path, "1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_features(path), [[1, 2], [3, 4]])

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path, "a,b\n1.0,2.0\n")
        assert load_features(path).shape == (1, 2)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        assert load_features(path).shape == (0, 0)
        assert load_features(path, "target").shape == (0, 0)

    @pytest.mark.parametrize("label_column", ["target", -1])
    def test_label_column_dropped_as_load_csv_drops_it(self, tmp_path, label_column):
        path = write(tmp_path, "f1,f2,target\n1.0,2.0,x\n3.0,4.5,y\n5.0,6.0,x\n")
        np.testing.assert_array_equal(
            load_features(path, label_column), load_csv(path, label_column).features
        )

    def test_single_label_accepted(self, tmp_path):
        path = write(tmp_path, "1.0,a,2.0\n3.0,a,4.0\n")
        np.testing.assert_array_equal(load_features(path, 1), [[1, 2], [3, 4]])
        with pytest.raises(SingleClassError):
            load_csv(path, 1)


class TestParseRule:
    """Each feature value is ``float(token.strip())``; a faulty file raises its first fault."""

    TOKENS = [
        "1_000", " 2 ", "+.5e-3", "-0", "0", "\u0661\u0662.\u0665", "\uff17",
        "\u00a08\u2003", "\x1c9\x1f", "\t-1.5E+2\t", "5e-324", "-1.7976931348623157e308",
    ]

    def test_each_value_is_float_of_the_stripped_token(self, tmp_path):
        rng = np.random.default_rng(3)
        values = [*rng.normal(scale=1e3, size=12), 0.1, 1 / 3, 2.0**-1074, np.nextafter(1.0, 2.0)]
        tokens = self.TOKENS + [repr(float(v)) for v in values]
        rows = [tokens[i : i + 4] for i in range(0, len(tokens), 4)]
        path = tmp_path / "cells.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
        expected = np.array([[float(t.strip()) for t in row] for row in rows])
        got = load_features(path)
        assert got.shape == expected.shape
        # bit for bit, so -0.0 and 0.0 differ
        assert got.tobytes() == expected.tobytes()
        text = "".join(",".join(row) + f",{'ab'[r % 2]}\n" for r, row in enumerate(rows))
        labelled = write(tmp_path, text, name="labelled.csv")
        assert load_csv(labelled, 4).features.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # a ragged row before a bad cell, and a bad cell before a ragged row
            ("1,2,a\n3,b\nx,4,a\n", RaggedRowError, "row 2 has 2 columns, expected 3"),
            ("1,2,a\nx,4,a\n3,b\n", BadCellError, "row 2, column 0: 'x' is not a number"),
            ("1,2,a\n3,4,5,a\n", RaggedRowError, "row 2 has 4 columns, expected 3"),
            # the first bad cell of a row, by column
            ("1,2,a,4\n3,y,b,z\n", BadCellError, "row 2, column 1: 'y' is not a number"),
            ("1,2,a\n3,4,b\n5, nan ,a\n", BadCellError, "row 3, column 1: 'nan' is not finite"),
            ("1,inf,a\n3,4,b\n", BadCellError, "row 1, column 1: 'inf' is not finite"),
            ("1,2,a\n-1e400,4,b\n", BadCellError, "row 2, column 0: '-1e400' is not finite"),
            # a non-finite cell before a non-number
            ("1,1e400,a\nx,4,b\n", BadCellError, "row 1, column 1: '1e400' is not finite"),
            # a header row is row 1
            ("f,g,label\n1,2,a\n3,abc,b\n", BadCellError, "row 3, column 1: 'abc' is not a number"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, text, error, message):
        path = write(tmp_path, text)
        for load in (load_csv, load_features):
            with pytest.raises(error) as caught:
                load(path, 2)
            assert type(caught.value) is error
            assert message in str(caught.value)

    def test_label_cell_is_not_parsed(self, tmp_path):
        path = write(tmp_path, "1,nan\n2,abc\n")
        np.testing.assert_array_equal(load_features(path, 1), [[1.0], [2.0]])

    @pytest.mark.parametrize(
        "label_column, header, lines, expected",
        [
            # one feature column: the label column is dropped by a scalar pick
            (1, None, ["0.5,a", "1.5,b"], [[0.5], [1.5]]),
            (0, None, ["a,0.5", "b,1.5"], [[0.5], [1.5]]),
            (0, None, ["a,1,2,3", "b,4,5,6"], [[1, 2, 3], [4, 5, 6]]),
            (2, None, ["1,2,a,3", "4,5,b,6"], [[1, 2, 3], [4, 5, 6]]),
            (-1, None, ["1,2,3,a", "4,5,6,b"], [[1, 2, 3], [4, 5, 6]]),
            ("y", "x1,y,x2", ["1,a,2", "3,b,4"], [[1, 2], [3, 4]]),
            ("y", "y,x1", ["a,1", "b,2"], [[1], [2]]),
        ],
    )
    def test_label_column_placements(self, tmp_path, label_column, header, lines, expected):
        text = "".join(f"{line}\n" for line in ([header] if header else []) + lines)
        path = write(tmp_path, text)
        ds = load_csv(path, label_column)
        assert ds.features.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert ds.label_names == ("a", "b")
        np.testing.assert_array_equal(load_features(path, label_column), expected)


def is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def csv_reference(path):
    """A label-less file read with ``csv.reader`` and ``float(token.strip())``; None if it faults."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
    width = len(rows[0]) if rows else 0
    if rows and not all(map(is_number, rows[0])):
        rows = rows[1:]
    if not rows:
        return np.empty((0, 0))
    if any(len(row) != width for row in rows):
        return None
    try:
        values = np.array([[float(token.strip()) for token in row] for row in rows])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def outcome(path):
    """``load_features(path)``'s matrix and None, or None and the error it raised."""
    try:
        return load_features(path), None
    except DataError as exc:
        return None, exc


def refuse(*args, **kwargs):
    raise ValueError("refused, so the cell-by-cell reader runs")


def not_called(*args, **kwargs):
    raise AssertionError("np.loadtxt ran")


class TestNumpyReader:
    """Label-less files numpy's C reader accepts are parsed there, others cell by cell."""

    # tokens numpy parses as float(token.strip()) does
    PLAIN = ["0", "-0", "+7", "-12", "1e5", "-2.5E-3", "+.5e+2", "5.", ".25", "5e-324",
             "1.7976931348623157e308", " 3 ", "\t4\t", "\x1c5\x1f", "\u00a06\u2003", "7\x0c"]
    # tokens it refuses: float accepts some of them, and some are faults
    OTHER = ["0_0", "1_000", "\u0661", "\uff17", "\u0661\u0662.\u0665", '"1.5"', '"2"', "1#2",
             "#", "", " ", "nan", "inf", "-inf", "1e400", "-1e400", "abc"]

    @staticmethod
    def token(rng, clean):
        if not clean and rng.random() < 0.15:
            return str(rng.choice(TestNumpyReader.OTHER))
        if rng.random() < 0.5:
            return str(rng.choice(TestNumpyReader.PLAIN))
        return repr(float(rng.normal() * 10.0 ** rng.integers(-8, 9)))

    def random_file(self, rng, path):
        width = int(rng.integers(1, 5))
        clean = rng.random() < 0.5
        rows = [[self.token(rng, clean) for _ in range(width)] for _ in range(rng.integers(0, 6))]
        if rows and rng.random() < 0.15:
            r = int(rng.integers(len(rows)))
            rows[r] = rows[r][:-1] if width > 1 and rng.random() < 0.5 else rows[r] + ["1"]
        lines = [",".join(row) for row in rows]
        eol = str(rng.choice(["\n", "\r\n", "\r"]))
        if rng.random() < 0.4:
            # a header, whose quoted first name may span two lines
            first = f'"f{eol}0"' if rng.random() < 0.3 else "f0"
            lines.insert(0, ",".join([first] + [f"f{j}" for j in range(1, width)]))
        for _ in range(rng.integers(0, 3)):
            lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(["", "  ", "\t", " , "])))
        text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
        bom = codecs.BOM_UTF8 if rng.random() < 0.3 else b""
        path.write_bytes(bom + text.encode("utf-8"))

    def test_same_matrix_or_same_error_as_cell_by_cell(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(34)
        parsed = []
        real = np.loadtxt

        def spy(*args, **kwargs):
            parsed.append(real(*args, **kwargs))
            return parsed[-1]

        by_numpy = faulty = 0
        for i in range(200):
            path = tmp_path / f"q{i}.csv"
            self.random_file(rng, path)
            expected = csv_reference(path)
            with monkeypatch.context() as patch:
                patch.setattr(np, "loadtxt", spy)
                got, error = outcome(path)
            with monkeypatch.context() as patch:
                patch.setattr(np, "loadtxt", refuse)
                cell_by_cell, cell_error = outcome(path)
            if expected is None:
                faulty += 1
                assert got is None and cell_by_cell is None, path.read_bytes()
                assert type(error) is type(cell_error) and str(error) == str(cell_error)
            else:
                by_numpy += any(got is out for out in parsed)
                for matrix in (got, cell_by_cell):
                    assert matrix.shape == expected.shape, path.read_bytes()
                    # bit for bit, so -0.0 and 0.0 differ
                    assert matrix.tobytes() == expected.tobytes(), path.read_bytes()
        # both readers and both outcomes are exercised
        assert by_numpy >= 40 and faulty >= 40 and 200 - by_numpy - faulty >= 20

    def test_numpy_parses_a_plain_file_and_a_refused_one_falls_back(self, tmp_path, monkeypatch):
        calls, parsed = [], []
        real = np.loadtxt

        def spy(name, **kwargs):
            calls.append(name)
            parsed.append(real(name, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        plain = write(tmp_path, "x,y\n1.5,2\n3,-4e-1\n", name="plain.csv")
        got = load_features(plain)
        assert calls == [os.path.abspath(plain)] and got is parsed[0]
        assert got.tobytes() == np.array([[1.5, 2.0], [3.0, -0.4]]).tobytes()
        fallback = write(tmp_path, "x,y\n0_0,2\n3,-4e-1\n", name="fallback.csv")
        got = load_features(fallback)
        assert len(calls) == 2 and len(parsed) == 1
        assert got.tobytes() == np.array([[0.0, 2.0], [3.0, -0.4]]).tobytes()
        # numpy reads a quote as a character, so csv unquotes a quoted file
        quoted = write(tmp_path, 'x,y\n"1.5",2\n', name="quoted.csv")
        np.testing.assert_array_equal(load_features(quoted), [[1.5, 2.0]])
        assert len(calls) == 3 and len(parsed) == 1

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # numpy's usecols would not see these: every column is read
            ("1,2\n3\n4,5\n", RaggedRowError, "row 2 has 1 columns, expected 2"),
            ("x,y\n1,2\n3,4,5\n", RaggedRowError, "row 3 has 3 columns, expected 2"),
            # numpy's default comments="#" would read 1#2 as 1
            ("1\n1#2\n", BadCellError, "row 2, column 0: '1#2' is not a number"),
            ("1,2\n3,nan\n", BadCellError, "row 2, column 1: 'nan' is not finite"),
        ],
    )
    def test_faults_keep_their_errors(self, tmp_path, text, error, message):
        with pytest.raises(error) as caught:
            load_features(write(tmp_path, text))
        assert type(caught.value) is error
        assert message in str(caught.value)

    @pytest.mark.parametrize("text", ["", "\n\n  \n", "x,y\n", "\nx\n\n"])
    def test_no_data_rows_give_an_empty_matrix(self, tmp_path, text):
        # numpy warns "input contained no data" here, and would give (0, 1)
        assert load_features(write(tmp_path, text)).shape == (0, 0)

    def test_no_data_rows_without_the_warning(self, tmp_path, monkeypatch):
        # as when another thread sets the process-wide warning filters to ignore
        ignore = warnings.simplefilter
        monkeypatch.setattr(warnings, "simplefilter", lambda *args, **kwargs: ignore("ignore"))
        assert load_features(write(tmp_path, "x\n")).shape == (0, 0)

    @pytest.mark.parametrize("text", ["\n  \n\nx,y\n1,2\n3,4\n", "\r\n\r\nx,y\r\n1,2\r\n3,4\r\n"])
    def test_blank_lines_before_a_header(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        np.testing.assert_array_equal(load_features(path), [[1, 2], [3, 4]])

    def test_quoted_cells_are_unquoted_by_csv(self, tmp_path):
        path = write(tmp_path, '"1",2\n3,"4.5"\n')
        np.testing.assert_array_equal(load_features(path), [[1, 2], [3, 4.5]])

    def test_other_path_forms(self, tmp_path, monkeypatch):
        path = write(tmp_path, "1,2\n3,4\n")
        np.testing.assert_array_equal(load_features(os.fsencode(path)), [[1, 2], [3, 4]])
        fd = os.open(path, os.O_RDONLY)
        np.testing.assert_array_equal(load_features(fd), [[1, 2], [3, 4]])
        # numpy would decompress a file by its suffix: such a file is read as csv reads it
        monkeypatch.setattr(np, "loadtxt", not_called)
        np.testing.assert_array_equal(load_features(write(tmp_path, "1,2\n", "q.csv.gz")), [[1, 2]])
        gz = tmp_path / "real.csv.gz"
        gz.write_bytes(gzip.compress(b"1,2\n"))
        with pytest.raises(DataError, match="cannot read"):
            load_features(gz)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_opened_once(self, tmp_path, monkeypatch, deadline):
        fifo = tmp_path / "query.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=("1,2\n3,4\n",), daemon=True)
        writer.start()
        monkeypatch.setattr(np, "loadtxt", not_called)
        np.testing.assert_array_equal(load_features(fifo), [[1, 2], [3, 4]])
        writer.join()


def toy_dataset(n=20, m=3, num_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, m)), rng.integers(num_classes, size=n), num_classes
    )


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = toy_dataset(n=50)
        train, test = split(ds, 30, 15, seed=7)
        assert train.n == 30 and test.n == 15
        joined = np.concatenate([train.features, test.features])
        assert np.unique(joined, axis=0).shape[0] == 45

    def test_same_seed_identical(self):
        ds = toy_dataset(n=40)
        a_train, a_test = split(ds, 25, 10, seed=3)
        b_train, b_test = split(ds, 25, 10, seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_full_copy_boundary(self):
        ds = toy_dataset(n=12)
        train, test = split(ds, 12, 0, seed=0)
        assert train.n == 12 and test.n == 0
        assert test.num_classes == ds.num_classes

    def test_oversized_request_rejected(self):
        ds = toy_dataset(n=10)
        with pytest.raises(DataError, match="exceeds"):
            split(ds, 8, 3, seed=0)

    def test_subsets_keep_parent_class_count(self):
        features = np.arange(8, dtype=float).reshape(8, 1)
        labels = np.array([0, 0, 0, 0, 0, 0, 0, 1])
        ds = Dataset(features, labels, 2)
        train, test = split(ds, 4, 4, seed=1)
        assert train.num_classes == 2 and test.num_classes == 2

    def test_stratified_split_keeps_proportions(self):
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], [80, 20])
        ds = Dataset(rng.normal(size=(100, 2)), labels, 2)
        train, _ = split(ds, 50, 20, seed=11, stratify=True)
        counts = np.bincount(train.labels, minlength=2)
        assert counts.tolist() == [40, 10]

    def test_stratified_split_rounds_by_largest_remainder(self):
        # 8 of 15 rows: exact shares 3.73, 2.67 and 1.6 floor to 3, 2 and 1,
        # and the two largest remainders get the two rows left over
        labels = np.repeat([0, 1, 2], [7, 5, 3])
        ds = Dataset(np.arange(15.0).reshape(15, 1), labels, 3)
        train, test = split(ds, 8, 7, seed=0, stratify=True)
        assert np.bincount(train.labels, minlength=3).tolist() == [4, 3, 1]
        assert sorted(np.concatenate([train.features, test.features]).ravel()) == list(range(15))


class TestFoldIds:
    def test_pinned_holdouts(self):
        # the holdouts of the (train, holdout) pairs this array replaced
        fold_of = fold_ids(10, 3, seed=0)
        assert [np.flatnonzero(fold_of == j).tolist() for j in range(3)] == [
            [2, 4, 6, 7],
            [3, 5, 9],
            [0, 1, 8],
        ]

    def test_exact_division(self):
        assert np.bincount(fold_ids(9, 3, seed=0)).tolist() == [3, 3, 3]

    def test_remainder_goes_to_the_first_folds(self):
        assert np.bincount(fold_ids(10, 3, seed=0)).tolist() == [4, 3, 3]
        assert np.bincount(fold_ids(6, 4, seed=1)).tolist() == [2, 2, 1, 1]

    def test_sizes_at_scale(self):
        fold_of = fold_ids(336, 3, seed=42)
        assert fold_of.shape == (336,)
        assert np.bincount(fold_of).tolist() == [112, 112, 112]

    def test_determinism(self):
        np.testing.assert_array_equal(fold_ids(25, 5, seed=9), fold_ids(25, 5, seed=9))

    def test_bad_fold_counts(self):
        with pytest.raises(DataError, match="exceeds sample count"):
            fold_ids(5, 6, seed=0)
        with pytest.raises(DataError, match="at least 2"):
            fold_ids(5, 1, seed=0)


class TestDatasetInvariants:
    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)

    def test_non_finite_features(self):
        with pytest.raises(BadCellError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 2)

    def test_single_class_count(self):
        with pytest.raises(SingleClassError):
            Dataset(np.zeros((2, 1)), np.zeros(2, dtype=int), 1)

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.7, 0.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0]]
    )
    def test_non_integral_labels_rejected(self, labels):
        # casting would silently truncate 0.5, 1.7, 0.2 to 0, 1, 0
        with pytest.raises(DataError, match="whole numbers"):
            Dataset(np.zeros((3, 2)), labels, 2)

    def test_whole_float_labels_accepted(self):
        ds = Dataset(np.zeros((3, 2)), [0.0, 1.0, 1.0], 2)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1, 1]
