#!/usr/bin/env python3
"""How far must a scan run before every parity pattern shows up?

For k = 1..max_k, over the first k odd primes, finds the smallest N
such that every one of the 2^k parity patterns of
(e_3(n), e_5(n), ..., e_{p_k}(n)) has a witness below N, by doubling
the scan bound until coverage is complete.  The growth of these N_k is
what the (astronomically larger) theoretical thresholds bound from
above.

    python3 scripts/parity_coverage_growth.py
    python3 scripts/parity_coverage_growth.py --max-k 7
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factexp.cli import integer
from factexp.experiments import pattern_coverage
from factexp.primes import nth_odd_prime


def smallest_covering_limit(primes) -> tuple[int, int]:
    """(N_k, slowest witness): doubling search, then the exact maximum."""
    limit = 64
    while True:
        report = pattern_coverage(primes, limit)
        if report.complete:
            worst = max(report.minimal)
            return worst + 1, worst
        limit *= 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=integer, default=6)
    args = ap.parse_args()

    print(f"{'k':>2}  {'primes':<28}  {'patterns':>8}  {'N_k':>10}  "
          f"{'slowest witness':>15}  {'secs':>6}")
    for k in range(1, args.max_k + 1):
        primes = tuple(nth_odd_prime(i) for i in range(1, k + 1))
        t0 = time.monotonic()
        n_k, worst = smallest_covering_limit(primes)
        elapsed = time.monotonic() - t0
        print(f"{k:>2}  {str(primes):<28}  {2**k:>8}  {n_k:>10}  "
              f"{worst:>15}  {elapsed:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
