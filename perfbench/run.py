"""Benchmark of the disdf library: end-to-end times, a traced per-module breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload holdout-paired --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` of the checkout; the script exits with
a non-zero code and no result when it is missing.  Each workload (see
``workloads.py`` for what each one stands for and why it was chosen) builds
its inputs from ``--seed``, sets up several times, and repeats one unit of
work on the same inputs (on ``holdout-paired``, a fixed cycle of inputs)
until ``--seconds`` of units have passed.  The set-ups are spread over that
time.  Every unit's outputs are checked; the checks feed ``failed_ops``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (checks attempted and failed) and
``metrics``.  With ``--trace 0`` the metrics are the graded end-to-end ones:

* ``setup_s`` - median time to set up: generate the data, write it as CSV
  and load it with ``load_csv``; on ``predict-multiclass`` also train the
  model with 2 workers and save it.
* ``unit_s`` - median time of one unit of work: one paired repetition on
  ``holdout-paired`` (``rep_s``), one 2-worker ``train_cascade`` on
  ``train-pairs-2w`` (``train_s``), one predict job (``load_model``,
  ``load_features``, ``predict_batch``) on ``predict-multiclass``.
* ``peak_rss_mb`` - the larger of the process's own and its children's peak
  resident set size.

Both times are taken at reference speed: each set-up's and each unit's wall
time is divided by the mean time of a fixed reference loop run just before
and just after it, and multiplied by the loop's nominal time (see
``reference.py``).  Around a 2-worker unit the loop runs in 2 processes at
once.  This is done because the machine's speed drifts more than any bound
a wall time could hold.  On a 2-vCPU cloud VM (Python 3.11, numpy 2.4,
OpenBLAS 0.3) the cores are shared with other tenants: CPU time equals wall
time, there is no steal time, yet a fixed loop ran up to 1.8 times slower
for minutes at a time.  Over ten seeds of 30 s each, the runs' median unit
wall times spread (quartile distance over median) 13.9% on
``holdout-paired``, 5.2% on ``train-pairs-2w`` and 15.0% on
``predict-multiclass``, and at reference speed 4.3%, 4.4% and 3.5%; the
set-up times 16.6%, 12.5% and 20.0% against 6.0%, 5.4% and 7.5%.  In an
earlier set the unit wall times of ``train-pairs-2w`` spread 18.9% against
9.3% at reference speed.  A library change that makes a unit faster lowers
its time at reference speed in proportion, since the loop never calls the
library.  The report lines give the wall times (``setup_wall_s``,
``unit_wall_s``, median and best) and the loop's own time (``reference_s``)
too.

The lines above the JSON print every metric by name with its unit, including
the workload-specific ones that are not graded because they exist on one
workload only: ``rep_s``, ``train_baseline_s``, ``train_disdf_s``,
``train_s``, ``predict_rows_per_s``, ``predict_one_ms`` (median of 200
single-row ``predict()`` calls) and its 95th percentile, held-out accuracy,
``failed_ops`` and a fingerprint of the deployed weights and predictions.

With ``--trace 1`` the run wraps the library's module-level functions (see
``tracing.py``) and reports busy time and counts per module, per pass of one
set-up plus one unit of work, trained with one worker because wrappers do not
reach pool workers.  Each pass then repeats the unit untraced, so that the
run reports its own overhead (``trace.overhead_s``, best traced minus best
untraced unit) and, on ``train-pairs-2w``, also with 2 workers for
``cascade.parallel_efficiency``: best traced serial time over (2 x best
untraced 2-worker time).  Layers that a workload does not exercise read 0.

BLAS is pinned to one thread before numpy loads, and pool children inherit
the pin.  Unpinned, a 2-worker disdf train (400 rows, 50 trees, one level) on
a 2-core machine took 33-54 s against 10-11 s pinned, because each of the 2
workers also starts 2 OpenBLAS threads.  The library itself never caps BLAS
threads in its pool workers; that is a defect of the program, which this pin
hides from the benchmark.
"""

import os

BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

END_TO_END = {"setup_s": "s", "unit_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import disdf from the checkout's ``src/``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import disdf
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import disdf from {src}: {exc}")
    if not Path(disdf.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: disdf was imported from {disdf.__file__}, not from {src}")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
    }


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib * 1024 / 1e6


def state_digest(state) -> str:
    """Hash of what a set-up produced, to check that set-up is deterministic."""
    h = hashlib.sha256()
    for key in sorted(state):
        value = state[key]
        for item in value if isinstance(value, list) else [value]:
            if hasattr(item, "features"):
                item = np.hstack([item.features, item.labels[:, None]])
            if isinstance(item, np.ndarray):
                h.update(item.tobytes())
            elif key.endswith("_path"):
                h.update(Path(item).read_bytes())
    return h.hexdigest()


def repeatable(units) -> bool:
    """Units of the same variant gave the same results."""
    first = {}
    return all(first.setdefault(u.variant, u.fingerprint) == u.fingerprint for u in units)


def set_up(workload, seed, workers, work):
    state = workload.setup(work, seed, workers)
    state["seed"] = seed
    return state


def quantile_high(values):
    """95th percentile; exact with SINGLE_ROW_CALLS samples, 10 of them beyond."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def run_untraced(workload, seed, seconds, work, checks, lines):
    from reference import NOMINAL_S, reference_s
    from workloads import single_row_latencies

    def at_nominal(wall, before, after):
        """Wall time scaled to the machine speed at which the reference takes NOMINAL_S."""
        return wall * NOMINAL_S / (0.5 * (before + after))

    # set-ups are spread over the measured time, so that their median, like
    # the units', is taken from the whole run rather than its first seconds;
    # refs[i] is the reference loop just before unit i, refs[i + 1] just after
    setup_walls, setup_times, digests, units = [], [], [], []
    copies = workload.workers if workload.parallel_unit else 1
    refs = [reference_s(copies)]
    start, setup_spent = time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - start - setup_spent
        due = workload.setup_repeats
        if seconds > 0:
            due = min(due, 1 + int(elapsed * workload.setup_repeats / seconds))
        if len(setup_times) < due:
            t0 = time.perf_counter()
            before = reference_s()
            t1 = time.perf_counter()
            state = set_up(workload, seed, workload.workers, work)
            wall = time.perf_counter() - t1
            setup_walls.append(wall)
            setup_times.append(at_nominal(wall, before, reference_s()))
            digests.append(state_digest(state))
            setup_spent += time.perf_counter() - t0
            continue
        variant = len(units) % workload.variants
        unit = workload.unit(state, workload.workers, variant)
        unit.variant = variant
        workload.check(state, unit, checks, work)
        if not units:
            serve = state["serve"]  # the model single-row calls are timed on
        unit.outputs = None  # keep memory flat over the run; peak RSS is a metric
        units.append(unit)
        refs.append(reference_s(copies))
        if elapsed >= seconds and len(setup_times) == workload.setup_repeats:
            break
    checks.expect(len(set(digests)) == 1, "set-ups of one seed differ")
    checks.expect(repeatable(units), "repeated units gave different results")
    latencies = single_row_latencies(*serve, checks)

    unit_times = [at_nominal(u.seconds, before, after)
                  for u, before, after in zip(units, refs, refs[1:])]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "unit_s": statistics.median(unit_times),
        "peak_rss_mb": peak_rss_mb(),
    }

    def report(name, values, unit, note=""):
        lines.append(f"  {name:<22}{statistics.median(values):12.4f} {unit:<5} median of "
                     f"{len(values)}, best {min(values):.4f}{note}")

    report("setup_s", setup_times, "s", " (at reference speed)")
    report("unit_s", unit_times, "s", f" (at reference speed; {workload.unit_name})")
    report("setup_wall_s", setup_walls, "s")
    report("unit_wall_s", [u.seconds for u in units], "s")
    report("reference_s", refs, "s", f" (fixed loop around each unit; nominal {NOMINAL_S})")
    for key in units[0].parts:
        values = [u.parts[key] for u in units]
        if key.endswith("per_s"):  # a rate: the best unit is the fastest
            lines.append(f"  {key:<22}{statistics.median(values):12.4f} 1/s   median of "
                         f"{len(values)}, best {max(values):.4f}")
        elif key.endswith("_s"):
            report(key, values, "s")
        else:
            lines.append(f"  {key:<22}{statistics.median(values):12.4f}       median of "
                         f"{len(values)}")
    if "train_s" in state:
        lines.append(f"  {'setup train_s':<22}{state['train_s']:12.4f} s     last set-up")
    ms = [t * 1e3 for t in latencies]
    lines.append(f"  {'predict_one_ms':<22}{statistics.median(ms):12.4f} ms    "
                 f"median of {len(ms)} calls")
    lines.append(f"  {'predict_one_p95_ms':<22}{quantile_high(ms):12.4f} ms    "
                 f"95th percentile of {len(ms)} calls")
    lines.append(f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb']:12.4f} MB")
    lines.append(f"  {'fingerprint':<22}{units[0].fingerprint:>12}       first unit")
    return metrics


def run_traced(workload, seed, seconds, work, checks, lines):
    from tracing import UNITS, Tracer

    def unit(state, workers, variant):
        result = workload.unit(state, workers, variant)
        result.variant = variant
        with tracer.paused():
            workload.check(state, result, checks, work)
        return result

    # each pass: a traced set-up and unit, then the same unit untraced (and, for
    # the pool workload, with its workers), so that overhead compares like runs
    tracer = Tracer()
    tracer.install()
    traced, plain, parallel = [], [], []
    try:
        deadline = time.perf_counter() + seconds
        while True:
            tracer.begin_unit()
            state = set_up(workload, seed, 1, work)
            variant = len(traced) % workload.variants
            traced.append(unit(state, 1, variant))
            with tracer.paused():
                plain.append(unit(state, 1, variant))
                if workload.parallel_unit:
                    parallel.append(unit(state, workload.workers, variant))
            if time.perf_counter() >= deadline:
                break
    finally:
        tracer.remove()
    checks.expect(repeatable(traced + plain + parallel),
                  "tracing or the worker count changed the results")

    metrics = tracer.metrics(len(traced))
    traced_s = min(u.seconds for u in traced)
    metrics["trace.overhead_s"] = traced_s - min(u.seconds for u in plain)
    metrics["cascade.parallel_efficiency"] = (
        traced_s / (workload.workers * min(u.seconds for u in parallel)) if parallel else 0.0
    )
    for name, value in metrics.items():
        lines.append(f"  {name:<34}{value:14.4f} {UNITS[name]}")
    children = sum(metrics[k] for k in ("forest.grow_s", "forest.oof_route_s",
                                        "pairstats.s", "weightopt.fw_s"))
    lines.append(f"  train_cascade span {metrics['cascade.span_s']:.4f} s = "
                 f"growth + OOF routing + pair stats + FW {children:.4f} s "
                 f"+ cascade.self_s {metrics['cascade.self_s']:.4f} s")
    lines.append(f"  {len(traced)} traced pass(es); best unit traced {traced_s:.4f} s, "
                 f"untraced {min(u.seconds for u in plain):.4f} s")
    if tracer.absent:
        lines.append(f"  absent layers (reported as 0): {', '.join(tracer.absent)}")
    return {name: metrics[name] for name in UNITS}, UNITS


def run_workload(workload, seed, seconds, trace, work):
    """Run one workload; returns its result object and its report lines."""
    from workloads import Checks

    checks = Checks()
    mode = "traced" if trace else "untraced"
    lines = [f"workload {workload.name} (seed {seed}, {seconds} s, {mode}): "
             f"{workload.shape.mimics}-shaped, {workload.shape.n_rows} rows x "
             f"{workload.shape.n_features} features, {len(workload.shape.class_counts)} classes",
             f"  env {json.dumps(environment(), sort_keys=True)}"]
    if trace:
        values, units = run_traced(workload, seed, seconds, work, checks, lines)
    else:
        values, units = run_untraced(workload, seed, seconds, work, checks, lines), END_TO_END
    failed = len(checks.failures)
    lines.append(f"  {'failed_ops':<22}{failed:12d}      of {checks.attempted} checks")
    lines.extend(f"  FAILED: {what}" for what in checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=work_root)
    results = {}
    try:
        for name in names:
            result, lines = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                         args.trace, work)
            print("\n".join(lines), flush=True)
            results[name] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
