"""Run one workload of the surrogate-forge benchmark and print its result.

    python3 perfbench/run.py --workload fit|pipeline|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The last line of standard output is one
JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1). The full
report, with the environment block, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Cap BLAS threads at min(2, nproc) before numpy is imported."""
    cap = min(MAX_THREADS, os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        try:
            given = int(os.environ.get(var, cap))
        except ValueError:
            given = cap
        os.environ[var] = str(max(1, min(given, cap)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "pipeline", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "surrogate_forge" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}", file=sys.stderr)
        return 2

    pin_blas_threads()
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    report = harness.run(args.workload, args.seed, args.seconds, args.trace, HERE / "out")
    print("env " + json.dumps(report["env"], sort_keys=True))
    for line in report["failures"]:
        print("failure " + line.replace("\n", " | "))
    print(json.dumps(report["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
