#!/usr/bin/env python3
"""Benchmark of the content-based pub/sub reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attr-split --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: program sources not found at {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
