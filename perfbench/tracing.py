"""Spans and counts per library module, recorded by wrapping module-level names.

The traced run replaces a function with a wrapper at the place its caller
looks it up (``disdf.cascade.train_forest``, not ``disdf.forest.train_forest``)
and restores it afterwards.  Spans are kept in memory.  Counts come from the
public attributes of what a call returns, or from the ``nbytes`` of returned
arrays, never from private fields.  A name that a later refactor removed is
reported as an absent layer; its time then shows up in its caller's self time.

Wrappers do not reach process-pool workers, so the traced run trains with one
worker.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import inspect
import os
import time

import numpy as np

import disdf


# every per-layer metric with its unit, in report order
UNITS = {
    "forest.grow_s": "s",
    "tree.trees_grown": "count",
    "tree.grow_ms_per_tree.rss": "ms",
    "tree.grow_ms_per_tree.cr": "ms",
    "tree.nodes_per_tree.rss": "count",
    "tree.nodes_per_tree.cr": "count",
    "forest.oof_route_s": "s",
    "forest.deploy_route_s": "s",
    "forest.route_rows_trees_per_s": "1/s",
    "pairstats.s": "s",
    "pairstats.pairs": "count",
    "pairstats.result_mb": "MB",
    "weightopt.fw_s": "s",
    "weightopt.fw_calls": "count",
    "weightopt.fw_us_per_iter": "us",
    "weightopt.trained_share": "share",
    "cascade.span_s": "s",
    "cascade.self_s": "s",
    "cascade.levels_trained": "count",
    "cascade.levels_kept": "count",
    "cascade.parallel_efficiency": "share",
    "evaluation.train_baseline_s": "s",
    "evaluation.train_disdf_s": "s",
    "evaluation.duplicate_tree_share": "share",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.file_mb": "MB",
    "data.load_csv_s": "s",
    "data.load_features_s": "s",
    "data.cells_per_s": "1/s",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Span:
    layer: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(bound: inspect.BoundArguments, name: str, position: int):
    """An argument by name, or by position if a refactor renamed it."""
    if name in bound.arguments:
        return bound.arguments[name]
    values = list(bound.arguments.values())
    return values[position] if position < len(values) else None


def _digest(obj, h) -> None:
    """Hash a call's inputs, to spot a forest grown twice from the same inputs."""
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.random.Generator):
        h.update(repr(obj.bit_generator.state).encode())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _digest(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest(item, h)
    else:
        h.update(repr(obj).encode())


def _array_bytes(obj) -> int:
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return sum(v.nbytes for v in fields if isinstance(v, np.ndarray))


def _nodes(forest):
    if hasattr(forest, "n_nodes"):
        return int(forest.n_nodes)
    return sum(int(tree.n_nodes) for tree in forest.trees)


def _uniform(w) -> bool:
    return bool(np.all(w == w[0]))


class Tracer:
    """Wraps library functions, records spans and derives per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []
        self._seen: set[str] = set()
        self._recording = True

    # -- recording ---------------------------------------------------------

    def _open(self, layer: str) -> Span:
        span = Span(layer, time.perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.seconds
        self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. the benchmark's output checks."""
        previous, self._recording = self._recording, False
        try:
            yield
        finally:
            self._recording = previous

    def begin_unit(self) -> None:
        """Forest inputs are compared for duplicates within one unit of work."""
        self._seen.clear()

    def wrap(self, module, name: str, layer: str, before=None, after=None) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return original(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            attrs = before(bound) if before else {}
            span = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            span.attrs.update(attrs)
            if after:
                span.attrs.update(after(bound, result))
            return result

        setattr(module, name, traced)
        self._patches.append((module, name, original))

    def install(self) -> None:
        cascade, evaluation = disdf.cascade, disdf.evaluation
        self.wrap(cascade, "train_forest", "forest.grow", self._forest_key, self._forest_counts)
        self.wrap(cascade, "forest_tree_dists_batch", "forest.oof_route",
                  after=lambda b, r: {"rows_trees": r.shape[0] * r.shape[1]})
        self.wrap(cascade, "class_vectors_batch", "forest.deploy_route",
                  after=lambda b, r: {"rows_trees": np.shape(_arg(b, "X", 1))[0]
                                      * _arg(b, "forest", 0).n_trees})
        self.wrap(cascade, "compute_pair_stats", "pairstats",
                  after=lambda b, r: {"pairs": r.n_pairs, "bytes": _array_bytes(r)})
        self.wrap(cascade, "frank_wolfe", "weightopt",
                  before=lambda b: {"iterations": _arg(b, "n_iterations", 1)})
        for module in (disdf, evaluation):
            self.wrap(module, "train_cascade", "cascade",
                      before=lambda b: {"mode": _arg(b, "cfg", 1).mode},
                      after=self._cascade_counts)
        self.wrap(disdf, "save_model", "serialize.save",
                  after=lambda b, r: {"bytes": os.path.getsize(_arg(b, "path", 1))})
        self.wrap(disdf, "load_model", "serialize.load")
        self.wrap(disdf, "load_csv", "data.load_csv",
                  after=lambda b, r: {"cells": r.features.size})
        self.wrap(disdf, "load_features", "data.load_features",
                  after=lambda b, r: {"cells": r.size})

    def remove(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _forest_key(self, bound):
        h = hashlib.sha256()
        for value in bound.arguments.values():
            _digest(value, h)
        key = h.hexdigest()
        duplicate = key in self._seen
        self._seen.add(key)
        return {"duplicate": duplicate, "kind": _arg(bound, "kind", 1)}

    @staticmethod
    def _forest_counts(bound, forest):
        return {"trees": forest.n_trees, "nodes": _nodes(forest)}

    @staticmethod
    def _cascade_counts(bound, model):
        weights = [f.weights for level in model.levels for f in level.forests]
        return {
            "levels_trained": len(model.level_scores),
            "levels_kept": model.n_levels,
            "forests": len(weights),
            "trained": sum(not _uniform(w) for w in weights),
        }

    # -- metrics -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, per traced pass (one set-up plus one unit of work)."""

        def spans(layer, **match):
            return [s for s in self.spans if s.layer == layer
                    and all(s.attrs.get(k) == v for k, v in match.items())]

        def seconds(some):
            return sum(s.seconds for s in some)

        def total(some, key):
            return sum(s.attrs.get(key, 0) for s in some)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        grow, oof = spans("forest.grow"), spans("forest.oof_route")
        deploy = spans("forest.deploy_route")
        pairs, fw, cascades = spans("pairstats"), spans("weightopt"), spans("cascade")
        disdf_runs = spans("cascade", mode=disdf.MODE_DISDF)
        saves, loads = spans("serialize.save"), spans("serialize.load")
        csv, features = spans("data.load_csv"), spans("data.load_features")

        out = {"forest.grow_s": seconds(grow) / passes,
               "tree.trees_grown": total(grow, "trees") / passes}
        for short, kind in (("rss", disdf.RANDOM_SPLIT), ("cr", disdf.COMPLETELY_RANDOM)):
            of_kind = spans("forest.grow", kind=kind)
            trees = total(of_kind, "trees")
            out[f"tree.grow_ms_per_tree.{short}"] = ratio(seconds(of_kind), trees, 1e3)
            out[f"tree.nodes_per_tree.{short}"] = ratio(total(of_kind, "nodes"), trees)
        out.update({
            "forest.oof_route_s": seconds(oof) / passes,
            "forest.deploy_route_s": seconds(deploy) / passes,
            "forest.route_rows_trees_per_s": ratio(total(oof + deploy, "rows_trees"),
                                                   seconds(oof + deploy)),
            "pairstats.s": seconds(pairs) / passes,
            "pairstats.pairs": total(pairs, "pairs") / passes,
            "pairstats.result_mb": max((s.attrs["bytes"] for s in pairs), default=0) / 1e6,
            "weightopt.fw_s": seconds(fw) / passes,
            "weightopt.fw_calls": len(fw) / passes,
            "weightopt.fw_us_per_iter": ratio(seconds(fw), total(fw, "iterations"), 1e6),
            "weightopt.trained_share": ratio(total(disdf_runs, "trained"),
                                             total(disdf_runs, "forests")),
            "cascade.span_s": seconds(cascades) / passes,
            "cascade.self_s": sum(s.seconds - s.child_s for s in cascades) / passes,
            "cascade.levels_trained": ratio(total(cascades, "levels_trained"), len(cascades)),
            "cascade.levels_kept": ratio(total(cascades, "levels_kept"), len(cascades)),
            "evaluation.train_baseline_s":
                seconds(spans("cascade", mode=disdf.MODE_BASELINE)) / passes,
            "evaluation.train_disdf_s": seconds(disdf_runs) / passes,
            "evaluation.duplicate_tree_share":
                ratio(total(spans("forest.grow", duplicate=True), "trees"), total(grow, "trees")),
            "serialize.save_s": seconds(saves) / passes,
            "serialize.load_s": seconds(loads) / passes,
            "serialize.file_mb": max((s.attrs["bytes"] for s in saves), default=0) / 1e6,
            "data.load_csv_s": seconds(csv) / passes,
            "data.load_features_s": seconds(features) / passes,
            "data.cells_per_s": ratio(total(csv + features, "cells"), seconds(csv + features)),
        })
        return out
