"""memloc benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload knn-sweep --seed 1 --seconds 10 --trace 0

The program is imported from the `src/` of the checkout this file sits
in.  Everything runs in this process on one thread, except the set-up
probes, which are fresh processes run one at a time.

--trace 0 reports the end-to-end metrics from untraced passes; --trace 1
reports the per-layer metrics from a run that alternates traced and
untraced passes, and writes its spans to perfbench/results/.  The last
line of standard output is the JSON result; the lines before it give
the seed, the inputs, the samples behind each median and the digest of
the simulated outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare_environment() -> None:
    """Pin BLAS to one thread and import memloc from this checkout only."""
    if not (SRC / "memloc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no memloc sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import memloc
    if Path(memloc.__file__).resolve().parent != (SRC / "memloc").resolve():
        raise SystemExit(f"perfbench: memloc imported from {memloc.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["knn-sweep", "dtree-sweep", "gather-chain"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for at least this long (after a warm-up pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
