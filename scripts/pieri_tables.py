#!/usr/bin/env python3
"""Print branching-coefficient tables for all compositions in a small range.

Example:
    python scripts/pieri_tables.py --n 2 --max-mod 2 --r 1
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from qtmac.scalar import GENERIC, AlgebraError
from qtmac import comb, pieri


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--max-mod", type=int, default=2)
    ap.add_argument("--r", type=int, default=1)
    args = ap.parse_args()

    try:
        for eta in comb.compositions_up_to(args.n, args.max_mod):
            table = pieri.pieri_homogeneous(eta, args.r)
            print(f"e_{args.r} * E_{comb.comp_str(eta)}:")
            for lam, coeff in sorted(table.items()):
                print(f"    {comb.comp_str(lam)}: {GENERIC.text(coeff)}")
    except AlgebraError as exc:
        ap.error(str(exc))


if __name__ == "__main__":
    main()
