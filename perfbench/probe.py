"""Set-up probe: run in a fresh process, print its set-up seconds.

Set-up covers `import memloc`, the workload's program-side set-up from
its inputs (build_kernel for the sweeps), making the pass directory,
and the first call into each simulator.  harness.py starts this
script several times and reports the median.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--inputs", required=True, help="the workload's inputs as JSON")
    args = p.parse_args()
    run.prepare_environment()
    from workloads import WORKLOADS, warm_up
    WORKLOADS[args.workload].setup(json.loads(args.inputs))
    work = run.HERE / "work" / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    warm_up()
    seconds = time.perf_counter() - T0
    shutil.rmtree(work, ignore_errors=True)
    print(f"{seconds:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
