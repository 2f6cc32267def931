#!/usr/bin/env python3
"""How fast do the residue classes of (e_p(n) mod m) even out?

Runs the joint histogram at a ladder of limits and prints the worst
relative deviation from the uniform main term at each rung.  The
deviations should shrink roughly like a power of N.

    python3 scripts/equidistribution_scan.py
    python3 scripts/equidistribution_scan.py --primes 3,5 --mods 4,2 \
        --limits 1e4,1e5,1e6 --threads 4
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factexp.cli import int_list, integer
from factexp.experiments import ScanConfig, discrepancy, joint_histogram


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--primes", type=int_list, default=(3, 5, 7))
    ap.add_argument("--mods", type=int_list, default=(2, 2, 2))
    ap.add_argument("--limits", type=int_list, default=(10**4, 10**5, 10**6, 10**7))
    ap.add_argument("--threads", type=integer, default=1)
    args = ap.parse_args()

    print(f"primes {args.primes}, mods {args.mods}")
    print(f"{'N':>12}  {'main term':>12}  {'max |dev|':>10}  {'rel dev':>9}  "
          f"{'worst class':>12}  {'secs':>6}")
    for limit in args.limits:
        t0 = time.monotonic()
        try:
            hist = joint_histogram(
                ScanConfig(primes=args.primes, mods=args.mods, limit=limit),
                threads=args.threads,
            )
        except (ValueError, MemoryError) as err:
            print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
            return 1
        elapsed = time.monotonic() - t0
        rep = discrepancy(hist)
        cls = ",".join(str(a) for a in rep.worst_class)
        print(f"{limit:>12}  {rep.main_term:>12.1f}  {rep.max_abs_dev:>10.0f}  "
              f"{rep.max_rel_dev:>9.5f}  {cls:>12}  {elapsed:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
