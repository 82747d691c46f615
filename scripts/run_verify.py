#!/usr/bin/env python3
"""Run the full identity-suite battery at chosen bounds and time each suite.

Example:
    python scripts/run_verify.py --max-n 3 --max-mod 2
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from qtmac import verify


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--max-mod", type=int, default=2)
    args = ap.parse_args()

    failed = False
    for name in verify.SUITES:
        start = time.time()
        (rep,) = verify.run_suite(name, args.max_n, args.max_mod)
        status = "pass" if rep.ok else "FAIL"
        print(f"[{status}] {rep.suite}: {rep.checked} checks "
              f"({time.time() - start:.1f}s)")
        for msg in rep.failures[:5]:
            print(f"    {msg}")
        failed = failed or not rep.ok
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
