"""Model persistence: a versioned, checksummed binary format.

Layout: a text header (magic, format version, payload sha256 and byte count)
followed by the binary payload: a length-prefixed JSON block (``config``,
``base_dim``, ``num_classes``, ``class_labels``, ``level_scores`` and
``levels``, each level the list of its forests' kinds), then one block per
forest, level by level and forest by forest.  A forest block is three
little-endian u64 sizes, T trees, I internal nodes and L leaves, then the
raw little-endian bytes of ``weights`` (T f8), ``feature`` (I i4),
``threshold`` (I f8), ``children`` (2I i4), ``counts`` (L x num_classes u4),
each leaf's training rows per class, and ``roots`` (T i4), the compact node
table of :class:`~disdf.forest.ForestModel`.  Each fact is stored once: the
block's sizes fix every array's shape, a leaf's class distribution follows
from its class counts, and a level's input width follows from ``base_dim``
and the levels before it.  A round trip is bit-exact, so predictions are
bitwise identical.

Files of versions 1 to 4 are rejected.  Loading checks the JSON block's
keys, types and values, one class label per class and a score per level,
and that no bytes follow the last forest, so a file with a valid checksum
but a missing or unknown key fails with :class:`ModelFormatError` instead of
a bare ``KeyError``.  This module states no rule of a node table: each
forest block read is checked by :func:`~disdf.forest.check_table`, and its
weights by :class:`~disdf.forest.ForestModel`, before any input is routed,
and a refusal is raised with the file's path.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct

import numpy as np

from .cascade import CascadeModel, LevelModel
from .config import TrainConfig
from .errors import ConfigError, ModelFormatError
from .forest import ForestModel, check_table
from .tree import TREE_KINDS

MAGIC = "DISDF-MODEL"
FORMAT_VERSION = 5
# per forest, in file order after its three sizes; all but weights are
# ForestModel's node table
_FOREST_ARRAYS = (
    ("weights", "<f8"),
    ("feature", "<i4"),
    ("threshold", "<f8"),
    ("children", "<i4"),
    ("counts", "<u4"),
    ("roots", "<i4"),
)
_META_KEYS = ("config", "base_dim", "num_classes", "level_scores", "class_labels", "levels")


class _Reader:
    def __init__(self, payload: bytes, path):
        self.payload = payload
        self.path = path
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.payload):
            raise ModelFormatError(f"{self.path}: model payload is truncated")
        out = self.payload[self.offset : self.offset + n]
        self.offset += n
        return out

    def forest(self, num_classes: int) -> dict:
        """One forest block's arrays, their lengths set by the block's three sizes."""
        t, i, l = struct.unpack("<3Q", self.take(24))
        sizes = (t, i, i, 2 * i, l * num_classes, t)  # in _FOREST_ARRAYS order
        arrays = {
            name: np.frombuffer(self.take(n * np.dtype(code).itemsize), dtype=code).copy()
            for (name, code), n in zip(_FOREST_ARRAYS, sizes)
        }
        arrays["counts"] = arrays["counts"].reshape(l, num_classes)
        return arrays


def _model_meta(model: CascadeModel) -> dict:
    return {
        "config": model.config.to_dict(),
        "base_dim": model.base_dim,
        "num_classes": model.num_classes,
        "level_scores": list(model.level_scores),
        "class_labels": list(model.class_labels) if model.class_labels else None,
        "levels": [[f.kind for f in level.forests] for level in model.levels],
    }


def save_model(model: CascadeModel, path) -> None:
    buf = io.BytesIO()
    meta = json.dumps(_model_meta(model), sort_keys=True).encode()
    buf.write(struct.pack("<Q", len(meta)))
    buf.write(meta)
    for level in model.levels:
        for forest in level.forests:
            buf.write(struct.pack("<3Q", forest.n_trees, forest.feature.size,
                                  forest.counts.shape[0]))
            for name, code in _FOREST_ARRAYS:
                buf.write(np.ascontiguousarray(getattr(forest, name), dtype=code).tobytes())
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{MAGIC} {FORMAT_VERSION}\nsha256 {digest}\nbytes {len(payload)}\n---\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(payload)


def load_model(path) -> CascadeModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, payload = blob.partition(b"---\n")
    if not sep:
        raise ModelFormatError(f"{path}: not a model file (missing header)")
    lines = head.decode(errors="replace").splitlines()
    if len(lines) < 3 or not lines[0].startswith(MAGIC + " "):
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    try:
        version = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ModelFormatError(f"{path}: malformed version tag") from None
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    try:
        fields = dict(line.split(None, 1) for line in lines[1:3])
        expect_bytes = int(fields["bytes"])
        expect_digest = fields["sha256"]
    except (KeyError, ValueError):
        raise ModelFormatError(f"{path}: malformed header") from None
    if len(payload) != expect_bytes:
        raise ModelFormatError(
            f"{path}: truncated payload ({len(payload)} of {expect_bytes} bytes)"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != expect_digest:
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupted")

    reader = _Reader(payload, path)
    (meta_len,) = struct.unpack("<Q", reader.take(8))
    try:
        meta = json.loads(reader.take(meta_len))
    except (ValueError, RecursionError) as exc:
        raise ModelFormatError(f"{path}: bad metadata block: {exc}") from None

    # the file, not the caller's configuration, is at fault when its config is bad
    try:
        config = TrainConfig.from_dict(_field(path, meta, "config", dict))
    except ConfigError as exc:
        raise ModelFormatError(f"{path}: bad config in metadata: {exc}") from None
    num_classes = _field(path, meta, "num_classes", int, range(2, 2**31))
    input_dim = _field(path, meta, "base_dim", int, range(1, 2**31))
    scores = _field(path, meta, "level_scores", list)
    labels = meta.get("class_labels")
    if not all(isinstance(x, (int, float)) for x in scores):
        raise ModelFormatError(f"{path}: level scores are not all numbers")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise ModelFormatError(f"{path}: class labels are not a list of strings")
    if labels is not None and len(labels) != num_classes:
        raise ModelFormatError(
            f"{path}: {len(labels)} class labels for {num_classes} classes"
        )
    level_kinds = _field(path, meta, "levels", list)
    if not level_kinds:
        raise ModelFormatError(f"{path}: model has no levels")
    if len(scores) < len(level_kinds):
        raise ModelFormatError(
            f"{path}: {len(scores)} level scores for {len(level_kinds)} levels"
        )
    unknown = sorted(set(meta) - set(_META_KEYS))
    if unknown:
        raise ModelFormatError(f"{path}: unknown metadata keys: {unknown}")
    levels = []
    for kinds in level_kinds:
        if not (isinstance(kinds, list) and kinds and all(k in TREE_KINDS for k in kinds)):
            raise ModelFormatError(
                f"{path}: level {len(levels)} is not a non-empty list of forest "
                f"kinds from {TREE_KINDS}: {kinds!r}"
            )
        forests = []
        for kind in kinds:
            table = reader.forest(num_classes)
            weights = table.pop("weights")
            # the block's sizes fix the weights' length; ForestModel checks their values
            try:
                check_table(**table, n_features=input_dim)
                forests.append(
                    ForestModel(**table, weights=weights, kind=kind, n_features=input_dim)
                )
            except ModelFormatError as exc:
                raise ModelFormatError(f"{path}: {exc}") from None
            except ValueError as exc:
                raise ModelFormatError(f"{path}: malformed forest table: {exc}") from None
        levels.append(LevelModel(forests))
        input_dim = levels[-1].output_dim
    if reader.offset != len(payload):
        raise ModelFormatError(
            f"{path}: {len(payload) - reader.offset} bytes after the last forest"
        )
    return CascadeModel(
        levels=levels,
        config=config,
        level_scores=tuple(scores),
        class_labels=tuple(labels) if labels else None,
    )


def _field(path, block, key: str, kind: type, choices=None):
    """``block[key]``, which must exist, have type ``kind`` and lie in ``choices``."""
    value = block.get(key) if isinstance(block, dict) else None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ModelFormatError(
            f"{path}: metadata field {key!r} is missing or not of type {kind.__name__}"
        )
    if choices is not None and value not in choices:
        raise ModelFormatError(
            f"{path}: metadata field {key!r} has bad value {value!r}"
        )
    return value

