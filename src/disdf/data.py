"""Loading tabular data and producing reproducible splits.

``load_csv`` (training files) and ``load_features`` (query files) share one
CSV reader, ``_read_table``; only ``load_csv`` encodes and checks labels.
Files are read as UTF-8, with or without a byte-order mark.  A regular file
with no label column whose data lines numpy's C reader (``np.loadtxt``)
accepts as finite numbers is parsed there in one call; numpy strips and
converts each cell as ``float(token.strip())`` does, so the values are the
same.  Every other file is read cell by cell with ``csv``, and every error
comes from that reader, which is fed lines of at most ``LINE_CHARS``
characters, newline included, and refuses a longer one.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import BadCellError, DataError, RaggedRowError, SingleClassError


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with 0-based integer class labels.

    ``num_classes`` is carried explicitly so that subsets keep the parent's
    class inventory even when a class is absent from the subset.
    """

    features: np.ndarray  # (n, m) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    label_names: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "f" and not (
            np.isfinite(labels) & (labels == np.trunc(labels))
        ).all():
            raise DataError("labels must be whole numbers")
        labels = labels.astype(np.int64, copy=False)
        if features.ndim != 2:
            raise DataError(f"features must be 2-d, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise DataError(
                f"labels length {labels.shape} does not match "
                f"{features.shape[0]} feature rows"
            )
        if self.num_classes < 2:
            raise SingleClassError(
                f"need at least 2 classes, got {self.num_classes}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataError("labels must lie in [0, num_classes)")
        if features.size and not np.isfinite(features).all():
            raise BadCellError("features contain NaN or infinite values")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.labels[indices],
            self.num_classes,
            self.label_names,
        )


# the longest line, in characters, that the csv reader is fed; a longer one
# is refused before it is read whole
LINE_CHARS = 1 << 24


def _lines(fh, path):
    """The lines of text file ``fh``, each read with a bound of ``LINE_CHARS``."""
    while line := fh.readline(LINE_CHARS):
        if len(line) == LINE_CHARS and line[-1] not in "\r\n":
            raise DataError(f"cannot read {path}: a line is longer than {LINE_CHARS} characters")
        yield line


def _read_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(_lines(fh, path)) if any(map(str.strip, row))]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return rows


def _is_number(token: str) -> bool:
    # used for header detection only; "nan"/"inf" parse as numbers and are
    # rejected later with an error naming the offending cell
    try:
        float(token)
    except ValueError:
        return False
    return True


def _has_header(row, label_idx) -> bool:
    """Whether ``row`` is a header: it has a non-numeric cell outside the label column."""
    return any(not _is_number(cell) for col, cell in enumerate(row) if col != label_idx)


# numpy's loader decompresses a file by its name's suffix
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_plain(path) -> np.ndarray | None:
    """The matrix of a file of feature columns only, from ``np.loadtxt``, or None.

    The first non-blank row is read with ``csv``, as ``_read_table`` reads it,
    for the header rule and the width.  numpy then parses the lines after a
    header, or every line, as plain comma-separated floats, with no comments
    and no quotes.  The result is kept only if numpy accepted the file without
    a warning, it has rows, its width is the first row's and every value is
    finite; otherwise None, and ``_read_table`` reads the file cell by cell.

    An accepted line holds ``width`` ASCII float literals with optional
    whitespace around them, which ``csv`` splits into the same cells.  numpy
    strips the same whitespace as ``str.strip`` (``Py_UNICODE_ISSPACE``) and
    converts with ``PyOS_string_to_double``, as ``float`` does, so each value
    is ``float(token.strip())``.  Blank lines, which numpy skips, are skipped
    by ``_read_rows`` too; whitespace-only lines, quotes, ``#``, ``0_0``,
    non-ASCII digits and ragged rows make numpy refuse the file.  Files numpy
    would open otherwise than as read here (a pipe or device, which must be
    opened once, or a compressed suffix) are left to ``csv``.
    """
    try:
        # absolute and str, so numpy takes it for neither a URL nor a list of lines
        name = os.path.abspath(os.fsdecode(path))
    except TypeError:  # a file descriptor
        return None
    if not os.path.isfile(name) or os.path.splitext(name)[1].lower() in _COMPRESSED:
        return None
    try:
        with open(name, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(_lines(fh, path))
            first = next((row for row in reader if any(map(str.strip, row))), None)
    except (OSError, UnicodeDecodeError, csv.Error, DataError):
        return None
    if first is None:
        return None
    # recorded, not raised: the filters are process-wide, and another thread's
    # warning in this window then only sends this file to csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            features = np.loadtxt(
                name, dtype=np.float64, comments=None, delimiter=",",
                skiprows=reader.line_num if _has_header(first, None) else 0,
                encoding="utf-8-sig", ndmin=2, quotechar=None,
            )
        except (ValueError, OSError):
            return None
    # a header-only file warns "input contained no data"; its (0, 0) comes from
    # csv, so no rows is refused even if another thread reset the filters
    if caught or not len(features) or features.shape[1] != len(first) \
            or not np.isfinite(features).all():
        return None
    return features


def _first_fault(path, data_rows, width, feature_cols, first_line) -> DataError:
    """The error for the first ragged row or bad feature cell in file order.

    Called only once a parse of the rows has failed, so one exists.
    """
    for line_no, row in enumerate(data_rows, first_line):
        if len(row) != width:
            return RaggedRowError(
                f"{path}: row {line_no} has {len(row)} columns, expected {width}"
            )
        for col in feature_cols:
            token = row[col].strip()
            try:
                value = float(token)
            except ValueError:
                return BadCellError(
                    f"row {line_no}, column {col}: {token!r} is not a number"
                )
            if not math.isfinite(value):
                return BadCellError(f"row {line_no}, column {col}: {token!r} is not finite")


def _read_table(path, label_column) -> tuple[np.ndarray, list[str] | None]:
    """Parse a CSV into its (n, m) float feature matrix and its label tokens.

    ``label_column`` is ``None`` (all columns are features and the tokens are
    ``None``), a 0-based column index, or a column name, which requires a
    header row.  Otherwise a header row is assumed present iff the first row
    has a non-numeric cell outside the label column.  A file without data rows
    yields a (0, 0) matrix and no tokens.

    Each feature value is ``float(token.strip())`` of its cell.  With no
    label column, a regular file whose data lines are all the first row's
    number of finite ASCII float literals is parsed by ``np.loadtxt``, which
    strips and converts a cell as ``float(token.strip())`` does
    (``_read_plain`` gives the rule).  Any other file is read with ``csv`` and
    parsed in one pass over all its feature cells.  If that pass fails, the
    cells are walked in file order and the first fault is raised: a row whose
    column count differs from the first row's (:class:`RaggedRowError`), or a
    feature cell that is not a number or not finite (:class:`BadCellError`).
    The error names the row, counting non-blank rows from 1 with the header,
    the 0-based column and the stripped token.  Every error comes from this
    cell-by-cell reader, never from numpy.
    """
    if label_column is None:
        features = _read_plain(path)
        if features is not None:
            return features, None
    rows = _read_rows(path)
    if not rows:
        return np.empty((0, 0), dtype=np.float64), None
    width = len(rows[0])
    if isinstance(label_column, str):
        header = [c.strip() for c in rows[0]]
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(
                f"{path}: no column named {label_column!r} in header {header}"
            ) from None
        has_header = True
    else:
        label_idx = None
        if label_column is not None:
            label_idx = int(label_column)
            if not -width <= label_idx < width:
                raise DataError(
                    f"{path}: label column {label_idx} out of range for {width} columns"
                )
            label_idx %= width
        has_header = _has_header(rows[0], label_idx)
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        return np.empty((0, 0), dtype=np.float64), None
    feature_cols = [col for col in range(width) if col != label_idx]
    if not feature_cols:
        raise DataError(f"{path}: need at least one feature column")

    n, m = len(data_rows), len(feature_cols)
    features = None
    if all(len(row) == width for row in data_rows):
        if label_idx is None:
            cells = chain.from_iterable(data_rows)
        elif m == 1:
            # itemgetter of one column gives the cell itself, not a 1-tuple
            cells = map(itemgetter(*feature_cols), data_rows)
        else:
            cells = chain.from_iterable(map(itemgetter(*feature_cols), data_rows))
        try:
            features = np.fromiter(map(float, map(str.strip, cells)), np.float64, count=n * m)
        except ValueError:
            pass
    if features is None or not np.isfinite(features).all():
        raise _first_fault(path, data_rows, width, feature_cols, 2 if has_header else 1)
    features = features.reshape(n, m)
    if label_idx is None:
        return features, None
    return features, [row[label_idx].strip() for row in data_rows]


def load_csv(path, label_column) -> Dataset:
    """Load a CSV file with one label column into a :class:`Dataset`.

    ``label_column`` is a 0-based column index or, when the file has a header
    row, a column name.  Labels are re-encoded to contiguous 0-based indices
    in order of first appearance.  A header row is assumed present iff the
    first row contains a non-numeric cell outside the label column.  Each
    feature value is ``float(token.strip())``; a ragged row or a feature cell
    that is not a finite number raises the first such fault in file order
    (``_read_table`` gives the rule).
    """
    features, tokens = _read_table(path, label_column)
    if not tokens:
        raise DataError(f"{path}: file contains no data rows")
    encoding: dict[str, int] = {}
    labels = [encoding.setdefault(token, len(encoding)) for token in tokens]
    if len(encoding) < 2:
        raise SingleClassError(
            f"{path}: label column has a single class {tokens[0]!r}"
        )
    return Dataset(features, labels, len(encoding), tuple(encoding))


def load_features(path, label_column=None) -> np.ndarray:
    """The (n, m) float feature matrix of a CSV, read as by :func:`load_csv`.

    A given ``label_column`` is dropped unread, so any labels are accepted.  A
    file without data rows yields a (0, 0) matrix.  Values and the error for a
    faulty file follow :func:`load_csv`'s one rule.
    """
    return _read_table(path, label_column)[0]


def split(
    ds: Dataset,
    n_train: int,
    n_test: int,
    seed,
    stratify: bool = False,
) -> tuple[Dataset, Dataset]:
    """Draw disjoint uniformly-random train/test subsets.

    Both subsets keep the parent's ``num_classes``.  Deterministic for a
    fixed seed.  With ``stratify=True`` the train subset allocates class
    slots proportionally (largest-remainder rounding) before sampling.
    """
    if n_train < 0 or n_test < 0:
        raise DataError("split sizes must be non-negative")
    if n_train + n_test > ds.n:
        raise DataError(
            f"n_train + n_test = {n_train + n_test} exceeds dataset size {ds.n}"
        )
    rng = np.random.default_rng(seed)
    if stratify and n_train > 0:
        train_idx = _stratified_indices(ds.labels, ds.num_classes, n_train, rng)
        rest = np.setdiff1d(np.arange(ds.n), train_idx, assume_unique=True)
        test_idx = rng.permutation(rest)[:n_test]
    else:
        perm = rng.permutation(ds.n)
        train_idx = perm[:n_train]
        test_idx = perm[n_train : n_train + n_test]
    return ds.subset(np.sort(train_idx)), ds.subset(np.sort(test_idx))


def _stratified_indices(labels, num_classes, n_train, rng) -> np.ndarray:
    counts = np.bincount(labels, minlength=num_classes)
    exact = counts * (n_train / labels.size)
    alloc = np.floor(exact).astype(int)
    remainder = exact - alloc
    short = n_train - alloc.sum()
    # remainders in [0, 1) sum to short, so the short largest are all positive:
    # each of those classes has a row left, and the allocation sums to n_train
    alloc[np.argsort(-remainder)[:short]] += 1
    picked = []
    for c in range(num_classes):
        members = np.nonzero(labels == c)[0]
        picked.append(rng.permutation(members)[: alloc[c]])
    return np.concatenate(picked)


def fold_ids(n: int, folds: int, seed) -> np.ndarray:
    """The fold that holds out each of rows {0..n-1}, as an (n,) array.

    The ``folds`` holdouts are pairwise disjoint, cover all rows, and differ in
    size by at most one, the larger ones first; fold ``j`` trains on the rows
    whose id is not ``j``.
    """
    if folds < 2:
        raise DataError(f"folds must be at least 2, got {folds}")
    if folds > n:
        raise DataError(f"folds = {folds} exceeds sample count {n}")
    sizes = np.full(folds, n // folds)
    sizes[: n % folds] += 1
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[np.random.default_rng(seed).permutation(n)] = np.repeat(np.arange(folds), sizes)
    return fold_of
