"""Model persistence: a versioned, checksummed binary format.

Layout: a small text header (magic, format version, payload sha256 and byte
count) followed by the binary payload.  The payload is a length-prefixed JSON
structure block (config, dims, and per level and forest its kind and tree
count) followed by six arrays per forest, level by level and forest by
forest: ``weights``, ``feature``, ``threshold``, ``children``, ``dist`` and
``roots``, the forest's compact node table (see
:class:`~disdf.forest.ForestModel`).  Arrays are raw little-endian bytes, so
a load/save round trip is bit-exact and predictions are bitwise identical.

Version 1 (every tree's arrays stored separately) and version 2 (``left``,
``right`` and a ``dist`` row for every node) files are rejected.  Loading
checks the JSON block's keys, types and values, that the block agrees with
itself (its ``mode`` with the config's, one class label per class, a score
for every level) and each table's structure, so a file with a valid
checksum but a missing or unknown key, a cyclic, shared, orphaned or
out-of-range reference, an out-of-range feature or a non-finite threshold
fails with :class:`ModelFormatError` instead of a bare ``KeyError``, a hang
or misrouting at prediction.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct

import numpy as np

from .cascade import CascadeModel, LevelModel
from .config import MODES, TrainConfig
from .errors import ConfigError, ModelFormatError
from .forest import SIMPLEX_TOL, ForestModel, check_weights
from .tree import TREE_KINDS

MAGIC = "DISDF-MODEL"
FORMAT_VERSION = 3
# per forest, in file order; all but weights are ForestModel's node table
_FOREST_ARRAYS = (
    ("weights", "<f8"),
    ("feature", "<i4"),
    ("threshold", "<f8"),
    ("children", "<i4"),
    ("dist", "<f8"),
    ("roots", "<i4"),
)

_DTYPES = {"<i4": np.dtype("<i4"), "<f8": np.dtype("<f8")}
_META_KEYS = ("config", "base_dim", "num_classes", "mode", "level_scores", "class_labels",
              "levels")


def _pack_array(buf: io.BytesIO, arr: np.ndarray) -> None:
    code = arr.dtype.str
    if code not in _DTYPES:
        raise ModelFormatError(f"unsupported array dtype {code}")
    raw = np.ascontiguousarray(arr).tobytes()
    buf.write(struct.pack("<3sB", code.encode(), arr.ndim))
    buf.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    buf.write(struct.pack("<Q", len(raw)))
    buf.write(raw)


class _Reader:
    def __init__(self, payload: bytes):
        self.payload = payload
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.payload):
            raise ModelFormatError("model payload is truncated")
        out = self.payload[self.offset : self.offset + n]
        self.offset += n
        return out

    def array(self) -> np.ndarray:
        code, ndim = struct.unpack("<3sB", self.take(4))
        dtype = _DTYPES.get(code.decode(errors="replace"))
        if dtype is None:
            raise ModelFormatError(f"unknown array dtype tag {code!r}")
        shape = struct.unpack(f"<{ndim}Q", self.take(8 * ndim))
        (nbytes,) = struct.unpack("<Q", self.take(8))
        raw = self.take(nbytes)
        try:
            return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise ModelFormatError(f"inconsistent array block: {exc}") from None


def _model_meta(model: CascadeModel) -> dict:
    return {
        "config": model.config.to_dict(),
        "base_dim": model.base_dim,
        "num_classes": model.num_classes,
        "mode": model.config.mode,
        "level_scores": list(model.level_scores),
        "class_labels": list(model.class_labels) if model.class_labels else None,
        "levels": [
            {
                "input_dim": level.input_dim,
                "forests": [
                    {"kind": f.kind, "n_trees": f.n_trees} for f in level.forests
                ],
            }
            for level in model.levels
        ],
    }


def save_model(model: CascadeModel, path) -> None:
    buf = io.BytesIO()
    meta = json.dumps(_model_meta(model), sort_keys=True).encode()
    buf.write(struct.pack("<Q", len(meta)))
    buf.write(meta)
    for level in model.levels:
        for forest in level.forests:
            for name, _ in _FOREST_ARRAYS:
                _pack_array(buf, getattr(forest, name))
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

    reader = _Reader(payload)
    (meta_len,) = struct.unpack("<Q", reader.take(8))
    try:
        meta = json.loads(reader.take(meta_len))
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad metadata block: {exc}") from None

    # the file, not the caller's configuration, is at fault when its config is bad
    try:
        config = TrainConfig.from_dict(_field(path, meta, "config", dict))
    except (ConfigError, TypeError) as exc:
        raise ModelFormatError(f"{path}: bad config in metadata: {exc}") from None
    num_classes = _field(path, meta, "num_classes", int, range(2, 2**31))
    base_dim = _field(path, meta, "base_dim", int, range(1, 2**31))
    if _field(path, meta, "mode", str, MODES) != config.mode:
        raise ModelFormatError(
            f"{path}: mode {meta['mode']!r} differs from the config's {config.mode!r}"
        )
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
    level_metas = _field(path, meta, "levels", list)
    if not level_metas:
        raise ModelFormatError(f"{path}: model has no levels")
    if len(scores) < len(level_metas):
        raise ModelFormatError(
            f"{path}: {len(scores)} level scores for {len(level_metas)} levels"
        )
    _check_keys(path, meta, _META_KEYS)
    levels = []
    input_dim = base_dim
    for level_meta in level_metas:
        if _field(path, level_meta, "input_dim", int) != input_dim:
            raise ModelFormatError(
                f"{path}: level {len(levels)} has input dim "
                f"{level_meta['input_dim']}, expected {input_dim}"
            )
        if not _field(path, level_meta, "forests", list):
            raise ModelFormatError(f"{path}: level {len(levels)} has no forests")
        _check_keys(path, level_meta, ("input_dim", "forests"))
        forests = []
        for forest_meta in level_meta["forests"]:
            n_trees = _field(path, forest_meta, "n_trees", int)
            kind = _field(path, forest_meta, "kind", str, TREE_KINDS)
            _check_keys(path, forest_meta, ("kind", "n_trees"))
            arrays = {name: reader.array() for name, _ in _FOREST_ARRAYS}
            _check_forest(path, arrays, n_trees, input_dim, num_classes)
            forests.append(
                ForestModel(
                    **arrays, kind=kind, num_classes=num_classes, n_features=input_dim
                )
            )
        levels.append(LevelModel(forests, input_dim=input_dim))
        input_dim = levels[-1].output_dim
    return CascadeModel(
        levels=levels,
        base_dim=base_dim,
        num_classes=num_classes,
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


def _check_keys(path, block: dict, keys) -> None:
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ModelFormatError(f"{path}: unknown metadata keys: {unknown}")


def _check_forest(path, arrays: dict, n_trees: int, input_dim: int, num_classes: int):
    """Reject a node table that could hang, misroute or index out of bounds."""

    def bad(what: str):
        raise ModelFormatError(f"{path}: malformed forest table: {what}")

    for name, code in _FOREST_ARRAYS:
        if arrays[name].dtype.str != code:
            bad(f"{name} has dtype {arrays[name].dtype.str}, expected {code}")
    feature, children, roots = arrays["feature"], arrays["children"], arrays["roots"]
    dist = arrays["dist"]
    n_internal = feature.size
    if n_trees < 1 or roots.shape != (n_trees,) or arrays["weights"].shape != (n_trees,):
        bad(f"roots and weights must have length n_trees = {n_trees}")
    for name, size in (("feature", n_internal), ("threshold", n_internal),
                       ("children", 2 * n_internal)):
        if arrays[name].shape != (size,):
            bad(f"{name} has shape {arrays[name].shape}, expected ({size},)")
    if dist.ndim != 2 or dist.shape[1] != num_classes:
        bad(f"dist has shape {dist.shape}, expected (n_leaves, {num_classes})")
    n_leaves = dist.shape[0]
    refs = np.concatenate([roots, children])
    if np.any(refs >= n_internal) or np.any(refs < -n_leaves):
        bad("a node or leaf id in roots or children is out of range")
    parent = np.arange(children.size) // 2
    if np.any((children >= 0) & (children <= parent)):
        bad("an internal child id is not greater than its parent's id")
    # with ids increasing down every path, one reference per node and leaf
    # makes each tree a proper binary tree hanging from exactly one root
    nodes = np.bincount(refs[refs >= 0], minlength=n_internal)
    leaves = np.bincount(~refs[refs < 0], minlength=n_leaves)
    if np.any(nodes != 1) or np.any(leaves != 1):
        bad("a node or leaf is not referenced exactly once by roots and children")
    if np.any(feature < 0) or np.any(feature >= input_dim):
        bad(f"a split feature is outside [0, {input_dim})")
    # a NaN threshold would send every input right
    if not np.isfinite(arrays["threshold"]).all():
        bad("a split threshold is not finite")
    if not (
        np.isfinite(dist).all()
        and np.all(dist >= -SIMPLEX_TOL)
        and np.all(np.abs(dist.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
    ):
        bad("a leaf distribution is off the unit simplex")
    try:
        check_weights(arrays["weights"], n_trees)
    except ValueError as exc:
        bad(str(exc))
