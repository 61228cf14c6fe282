"""scripts/bench_pairs.py: HEAD against itself end to end, and the two copies it runs from."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def worktrees() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
                          check=True, capture_output=True, text=True).stdout


def files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_text() for p in root.rglob("*") if p.is_file()}


@pytest.fixture
def git_checkout():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"],
                            capture_output=True, text=True)
    has_head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True)
    if inside.stdout.strip() != "true" or has_head.returncode != 0:
        pytest.skip("not a git work tree with a commit")


def test_head_against_itself_writes_the_schema_and_removes_its_copies(git_checkout, tmp_path):
    temp = tmp_path / "temp"
    temp.mkdir()
    out = tmp_path / "BENCH_self.json"
    before = worktrees()
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--tag", "self", "--workload",
         "holdout-paired", "--seed", "7", "--seconds", "0", "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "TMPDIR": str(temp)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # both sides ran from copies that are gone, and git gained no worktree
    assert worktrees() == before
    assert not any(temp.iterdir())

    result = json.loads(out.read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()
    assert result["schema"] == 1 and result["tag"] == "self"
    assert result["parent"] == {"revision": "HEAD", "commit": head}
    assert result["change"]["commit"] == head
    assert result["command"][0] == "scripts/bench_pairs.py"
    assert set(result["environment"]["perfbench"]) >= {"nproc", "python", "numpy"}
    assert [(r["pair"], r["side"]) for r in result["runs"]] == [(0, "parent"), (0, "change")]
    for run in result["runs"]:
        assert run["returncode"] == 0
        assert run["final"]["failed"] == 0
        assert run["command"][:3] == ["perfbench/run.py", "--workload", "holdout-paired"]
        assert "predict_one_ms" in run["report"]
    workload = result["workloads"]["holdout-paired"]
    (pair,) = workload["pairs"]
    assert pair["first"] == "parent"
    assert pair["fingerprints_match"] is True
    assert pair["failed_checks"] == {"parent": 0, "change": 0}
    for source, metrics in workload["summary"].items():
        for name in {"final": ("setup_s", "unit_s", "peak_rss_mb"),
                     "report": ("predict_one_ms",)}[source]:
            entry = metrics[name]
            assert entry["better"] == "lower" and entry["pairs"] == 1
            assert entry["parent"]["spread"] == 0.0 == entry["parent_spread"]
            assert entry["change_wins"] in (0, 1)
            assert entry["delta"] == pytest.approx(
                entry["change"]["median"] - entry["parent"]["median"])


def test_sides_are_the_parent_archive_and_the_checkout_as_on_disk(git_checkout, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("*.pyc\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "gone.py").write_text("committed\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + args, check=True, capture_output=True)
    commit = bench_pairs.git(repo, "rev-parse", "HEAD")
    (repo / "pkg" / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("untracked\n")
    (repo / "pkg" / "cache.pyc").write_text("ignored\n")

    bench_pairs.export_revision(repo, commit, tmp_path / "parent")
    bench_pairs.copy_checkout(repo, tmp_path / "change")
    assert files(tmp_path / "parent") == {
        ".gitignore": "*.pyc\n", "pkg/kept.py": "committed\n", "gone.py": "committed\n"}
    assert files(tmp_path / "change") == {
        ".gitignore": "*.pyc\n", "pkg/kept.py": "edited\n", "new.py": "untracked\n"}
