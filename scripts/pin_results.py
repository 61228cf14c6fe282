#!/usr/bin/env python3
"""Write tests/pinned_results.json: what the seeded cascades of tests/test_pinned.py compute.

Run from the repository root:

  python3 scripts/pin_results.py

The file records the Python and numpy that wrote it and the platform key
(the machine and numpy's enabled CPU features) under which tests/test_pinned.py
compares weights and class vectors exactly.  Rewrite it only for a change
that is meant to change results.
"""

import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from tests.test_pinned import CASES, PINNED, TOL, case_results, platform_key  # noqa: E402


def main() -> None:
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform_key(),
        "tolerance": TOL,
        "cases": {name: case_results(name) for name in sorted(CASES)},
    }
    PINNED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {PINNED.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
