#!/usr/bin/env python3
"""Run the full identity-suite battery at chosen bounds and time each suite.

Each suite's line is reported as ``qtmac verify`` reports it, with the
suite's seconds appended; the exit code follows the same rule (2 if a
check failed, else 1 if a suite checked nothing, else 0).

Example:
    python scripts/run_verify.py --max-n 3 --max-mod 2
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from qtmac import cli, verify


def timed_runs(max_n: int, max_mod: int):
    for name in verify.SUITES:
        start = time.perf_counter()
        (report,) = verify.run_suite(name, max_n, max_mod)
        yield report, time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-mod", type=int, default=2)
    args = ap.parse_args()
    return cli.report_suites(timed_runs(args.max_n, args.max_mod))


if __name__ == "__main__":
    sys.exit(main())
