#!/usr/bin/env python3
"""Benchmark of the cadlag-convex batch CLI.

Run from the repository root:

    python3 bench/run.py --workload oracle-lattice --seed 33 --seconds 20 --trace 0

One process, one caller: each op is an in-process ``cadlagconvex.cli.main``
call and the next op starts when the previous one returns.  The timed loop
runs whole passes over the workload's ops until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def import_package() -> None:
    """Import the package from this checkout's ``src/``, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "cadlagconvex", "__init__.py")):
        sys.exit(f"bench: no cadlagconvex sources under {SRC}")
    sys.path[:0] = [SRC, BENCH]
    import cadlagconvex
    home = os.path.dirname(os.path.dirname(os.path.abspath(cadlagconvex.__file__)))
    if home != SRC:
        sys.exit(f"bench: cadlagconvex imported from {home}, not {SRC}")


def main(argv=None) -> int:
    started = time.perf_counter()
    p = argparse.ArgumentParser(description="benchmark of the cadlag-convex batch CLI")
    p.add_argument("--workload", choices=("oracle-lattice", "calculus", "preset-cli"))
    p.add_argument("--seed", type=int, default=33)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-golden", action="store_true",
                   help="record today's outcomes as golden data and exit")
    args = p.parse_args(argv)
    if not args.write_golden and args.workload is None:
        p.error("--workload is required")
    import_package()
    import harness
    if args.write_golden:
        harness.write_golden()
    else:
        harness.run(args, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
