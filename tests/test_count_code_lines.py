"""scripts/count_code_lines.py: code lines are lines with a token of code."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "count_code_lines.py"

SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment line
def f(x):
    """A function docstring."""
    s = """a string in code
over two lines"""
    return (x +
            len(s))


class C:
    "a one-line docstring"
    y = 1
    "a bare string statement"
'''


def load_script():
    spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, def, the string's two lines, the return's two, class and y
    assert load_script().code_lines(SNIPPET) == 8


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not Python\n")
    run = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "pkg")],
                         capture_output=True, text=True, check=True)
    counts = [line.split()[0] for line in run.stdout.splitlines()]
    assert counts == ["8", "1", "9"]
    assert run.stdout.splitlines()[-1].endswith("total")
