#!/usr/bin/env python3
"""Benchmark a change against a parent revision in alternating pairs; write BENCH_<tag>.json.

Run from anywhere inside the repository:

  python3 scripts/bench_pairs.py --parent HEAD~1 --tag walker \\
      --workload predict-multiclass --seed 7 --seconds 10 --pairs 10

Both sides run from sibling copies in one temporary directory, which is
removed on exit: the parent revision's files from ``git archive``, and this
checkout's files that git does not ignore, uncommitted changes included, so
neither side runs from a place the other does not.  Each pair runs
``perfbench/run.py`` once in each copy, the parent first in even pairs and
second in odd ones, so that a drift in machine speed falls on both sides
alike.  Nothing is measured here: the file holds what perfbench printed, the
final JSON line and the report lines above it, and statistics over those
values.

Per workload and metric the file gives each side's median and quartiles, the
change's median minus the parent's beside the parent's own quartile spread
(a delta smaller than that spread is noise), and in how many pairs the
change was better.  Metrics come from the final JSON line (``final``) and
from the numeric report lines (``report``, such as ``predict_one_ms``, which
is raw wall time).  ``fingerprints_match`` says per pair whether both sides
printed the same fingerprint of weights and predictions (None for a traced
run, which prints none).
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPORT_LINE = re.compile(r"^  ([a-z_][\w.]*)\s+(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)(?:\s|$)")
FINGERPRINT_LINE = re.compile(r"^  fingerprint\s+([0-9a-f]+)\s")
ENV_LINE = re.compile(r"^  env (\{.*\})$")


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def higher_is_better(root: Path) -> set[str]:
    """Names of metrics whose larger value is better, from BENCHMARK.json if there is one."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return set()
    return {m["name"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])
            if m.get("better") == "higher"}


def export_revision(root: Path, commit: str, dest: Path) -> None:
    """Write ``commit``'s tracked files into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(root), "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, archive.args)


def copy_checkout(root: Path, dest: Path) -> None:
    """Copy the checkout's files that git does not ignore, as they are on disk, into ``dest``."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        source = root / name
        if source.is_file():  # a tracked file deleted from disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_perfbench(side_root: Path, argv: list[str]) -> dict:
    proc = subprocess.run(argv, cwd=side_root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    run = {"returncode": proc.returncode, "final": None, "report": {}, "fingerprint": None,
           "env": None}
    if proc.returncode != 0 or not lines:
        run["stderr_tail"] = proc.stderr.splitlines()[-20:]
        return run
    run["final"] = json.loads(lines[-1])
    for line in lines[:-1]:
        if m := FINGERPRINT_LINE.match(line):
            run["fingerprint"] = m.group(1)
        elif m := ENV_LINE.match(line):
            run["env"] = json.loads(m.group(1))
        elif m := REPORT_LINE.match(line):
            run["report"][m.group(1)] = float(m.group(2))
    return run


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "spread": q3 - q1}


def summarize(runs: list[dict], higher: set[str]) -> dict:
    """Per metric: both sides' medians and quartiles, the delta and the change's wins."""
    values = {}  # (source, metric) -> pair -> side -> value
    for run in runs:
        if run["final"] is None:
            continue
        sources = {"final": {k: v["value"] for k, v in run["final"]["metrics"].items()},
                   "report": run["report"]}
        for source, metrics in sources.items():
            for name, value in metrics.items():
                values.setdefault((source, name), {}).setdefault(run["pair"], {})[run["side"]] = value
    summary = {"final": {}, "report": {}}
    for (source, name), by_pair in sorted(values.items()):
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        parent = spread([p["parent"] for p in pairs])
        change = spread([p["change"] for p in pairs])
        better = "higher" if name in higher or name.endswith("per_s") else "lower"
        sign = 1 if better == "higher" else -1
        delta = change["median"] - parent["median"]
        summary[source][name] = {
            "better": better,
            "parent": parent,
            "change": change,
            "delta": delta,
            "delta_pct": 100 * delta / parent["median"] if parent["median"] else None,
            "parent_spread": parent["spread"],
            "delta_beyond_parent_spread": abs(delta) > parent["spread"],
            "change_wins": sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs),
            "pairs": len(pairs),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<tag>.json at the root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    parent_commit = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = {"commit": git(root, "rev-parse", "HEAD"),
              "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no"))}
    out = args.out or root / f"BENCH_{args.tag}.json"

    # a SIGTERM unwinds through the finally below, so the copies are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    sides = {"parent": scratch / "parent", "change": scratch / "change"}
    runs = []
    try:
        export_revision(root, parent_commit, sides["parent"])
        copy_checkout(root, sides["change"])
        for workload in args.workload:
            argv_ = [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)]
            for pair in range(args.pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    run = run_perfbench(sides[side], argv_)
                    run.update(workload=workload, pair=pair, side=side, command=argv_[1:])
                    runs.append(run)
                    print(f"{workload} pair {pair} {side}: exit {run['returncode']}, "
                          f"fingerprint {run['fingerprint']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    higher = higher_is_better(root)
    workloads = {}
    for workload in args.workload:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = []
        for pair in range(args.pairs):
            by_side = {r["side"]: r for r in mine if r["pair"] == pair}
            prints = [by_side[s]["fingerprint"] for s in ("parent", "change")]
            pairs.append({
                "pair": pair,
                "first": "parent" if pair % 2 == 0 else "change",
                "fingerprints": dict(zip(("parent", "change"), prints)),
                "fingerprints_match": None if None in prints else prints[0] == prints[1],
                "failed_checks": {s: (by_side[s]["final"] or {}).get("failed") for s in by_side},
            })
        workloads[workload] = {"pairs": pairs, "summary": summarize(mine, higher)}
    result = {
        "schema": 1,
        "tag": args.tag,
        "command": ["scripts/bench_pairs.py", *(sys.argv[1:] if argv is None else argv)],
        "environment": {
            "perfbench": next((r["env"] for r in runs if r["env"]), None),
            "machine": platform.machine(),
            "system": platform.system(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "parent": {"revision": args.parent, "commit": parent_commit},
        "change": change,
        "settings": {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                     "pairs": args.pairs},
        "workloads": workloads,
        "runs": runs,
    }
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
