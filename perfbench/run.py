"""Benchmark of the LifeRaft reproduction: one workload per invocation.

    python3 perfbench/run.py --workload backlog-scan --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``BENCHMARK.json`` lists both.

This module stays import-light: the process backend spawns its workers
from a fresh interpreter that imports the main module again.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from lrbench.bench import main as run_workload

    return run_workload(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
