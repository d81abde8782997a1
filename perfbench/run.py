"""Benchmark of the BIVoC reproduction: one workload per process.

    python3 perfbench/run.py --workload calls --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json): ``calls`` (the call-center study),
``churn`` (the churn study) and ``live`` (a warm-started stream behind
the query server).  Inputs are generated from ``--seed``.  With
``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` a separate traced run
reports the per-layer metrics and writes spans and a profile to
``perfbench/out/``.  Outputs are checked on every run: ``correct``,
``attempted`` and ``failed`` report the result.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.  The process
pins itself to one CPU (see ``main``).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["calls", "churn", "live"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time a run may fill (at least one "
                             "unit is measured)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input (self-tests)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is missing: no {SRC}/repro; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from harness import run_workload

    # One CPU for the whole process: ingest, the query client and the
    # server's handler threads take turns (one runs at a time), and on a
    # shared VM a hand-off to the other CPU waits for it to be woken,
    # which added 1-15 ms to the p99 of millisecond queries.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.scale, HERE,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
