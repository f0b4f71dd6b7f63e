#!/usr/bin/env python3
"""Print cProfile's top functions for one repetition of a benchmark workload.

Usage, from anywhere inside a source checkout:

    python3 scripts/profile_workload.py WORKLOAD [--skip K]

WORKLOAD is a workload name of perfbench/spec.json (branin-samsbo,
laser-samsbo, safeucb-branin, verify-bounds).  The script runs repetition 0
of benchmark seed 1 through perfbench/workloads.py, as the benchmark's worker
does, with BLAS pinned to one thread and src/ on the import path.  It
imports perfbench/ and changes nothing there.

Without --skip the profile covers the whole repetition, set-up included.
With --skip K it covers only the operations after the first K: the loop
steps after iteration K, or the Bayesian coverage trials after trial K and
the frequentist suite, and what the repetition does after its last operation
(the benchmark's digest of the trace rows).  Late steps are the ones whose
cost grows with the data, so --skip isolates them from the safe-seed search
and the first fits.
The 30 functions with the most self time are printed, with cProfile's
columns; profiling slows the run, so read the shares, not the seconds.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402 - the thread pins above must come before numpy
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SEED = 1
TOP = 30


def main() -> int:
    with open(os.path.join(PERFBENCH, "spec.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(specs))
    parser.add_argument("--skip", type=int, default=None, metavar="K",
                        help="profile only the operations after the first K")
    args = parser.parse_args()
    if args.skip is not None and args.skip < 0:
        parser.error("--skip must be nonnegative")

    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    import workloads

    profiler = cProfile.Profile()
    operations = 0

    def between():
        # runs before each operation; the profile starts before operation K
        nonlocal operations
        if operations == args.skip:
            profiler.enable()
        operations += 1

    if args.skip is None:
        profiler.enable()
    result = workloads.repetition(specs[args.workload], SEED, 0, between)
    profiler.disable()

    scope = "whole repetition" if args.skip is None else f"operations after the first {args.skip}"
    print(f"{args.workload}, seed {SEED}, repetition 0, {scope}: {operations} operations, "
          f"{result.tally.attempted} attempted, errors {result.errors or 'none'}")
    if args.skip is not None and operations <= args.skip:
        print(f"nothing profiled: the repetition has {operations} operations")
        return 1
    pstats.Stats(profiler).sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
