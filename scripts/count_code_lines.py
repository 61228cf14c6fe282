#!/usr/bin/env python3
"""Count the code lines of Python files: lines that hold a token of code.

Run from the repository root:

  python3 scripts/count_code_lines.py                 # src/disdf
  python3 scripts/count_code_lines.py src/disdf/cascade.py src/disdf/tree.py

Blank lines, comments and docstrings are not code.  A docstring is any
statement that is only a string (or adjacent strings), so a bare string
statement anywhere counts as one.  A line is counted once however many
tokens it holds, and a multi-line string in code counts each of its lines.
Prints one line per file, with its count, and a total over all of them; a
directory stands for the ``*.py`` files under it.
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token of code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/disdf"],
                        help="Python files or directories (default: src/disdf)")
    files = python_files(parser.parse_args(argv).paths)
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
