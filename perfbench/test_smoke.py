"""Smoke test of the benchmark itself: every workload once, at a tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import multiprocessing
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run

run.import_library()

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# workload-specific metrics each workload prints above its result line
PRINTED = {
    "holdout-paired": ["rep_s", "train_baseline_s", "train_disdf_s"],
    "train-pairs-2w": ["train_s"],
    "predict-multiclass": ["predict_rows_per_s"],
}
COMMON = ["setup_s", "unit_s", "setup_wall_s", "unit_wall_s", "reference_s", "predict_one_ms",
          "predict_one_p95_ms", "peak_rss_mb", "failed_ops"]


def run_tiny(name, trace, tmp_path):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    return run.run_workload(workload, seed=3, seconds=0, trace=trace, work=str(tmp_path))


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_has_a_unit_and_no_check_fails(name, trace, tmp_path):
    result, lines = run_tiny(name, trace, tmp_path)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    assert result["failed"] == 0, lines
    assert result["correct"] and result["attempted"] > 0
    json.dumps(result)
    if not trace:
        text = "\n".join(lines)
        for metric in COMMON + PRINTED[name] + list(result["metrics"]):
            assert f"  {metric} " in text, metric


def test_reference_runs_in_parallel_copies_and_reaps_them():
    assert reference.reference_s(2) > 0.0
    assert multiprocessing.active_children() == []


def test_a_removed_layer_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.wrap(types.SimpleNamespace(__name__="refactored"), "forest_tree_dists_batch",
                "forest.oof_route")
    assert tracer.absent == ["refactored.forest_tree_dists_batch"]
    metrics = tracer.metrics(passes=1)
    assert set(metrics) == set(tracing.UNITS) - {"trace.overhead_s", "cascade.parallel_efficiency"}
    assert all(value == 0.0 for value in metrics.values())


def test_missing_library_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "holdout-paired",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
