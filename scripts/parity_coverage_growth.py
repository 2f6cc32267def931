#!/usr/bin/env python3
"""How far must a scan run before every parity pattern shows up?

For k = 1..max_k, over the first k odd primes, prints N_k: the smallest
N such that every one of the 2^k parity patterns of
(e_3(n), e_5(n), ..., e_{p_k}(n)) has a witness below N.  One coverage
pass over the first max_k odd primes, scanning at most --limit integers,
gives every N_k at once (`CoverageReport.covering_limits`); the k whose
N_k lies past the limit are named as not covered.  The growth of these
N_k is what the (astronomically larger) theoretical thresholds bound
from above.

    python3 scripts/parity_coverage_growth.py
    python3 scripts/parity_coverage_growth.py --max-k 16 --limit 1e7
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factexp.cli import integer
from factexp.experiments import CLASS_CAP, pattern_coverage
from factexp.primes import nth_odd_prime


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=integer, default=6)
    ap.add_argument("--limit", type=integer, default=1 << 24,
                    help="scan budget: the most integers the pass looks at")
    args = ap.parse_args()
    # the pass keeps one first witness per pattern, 2^max_k in all
    top = CLASS_CAP.bit_length() - 1
    if not 1 <= args.max_k <= top:
        ap.error(f"--max-k must be in [1, {top}], got {args.max_k}")

    primes = tuple(nth_odd_prime(i) for i in range(1, args.max_k + 1))
    t0 = time.monotonic()
    try:
        report = pattern_coverage(primes, args.limit)
    except (ValueError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    limits = report.covering_limits()
    elapsed = time.monotonic() - t0

    print(f"{'k':>2}  {'p_k':>4}  {'patterns':>8}  {'N_k':>11}")
    for k, n_k in enumerate(limits, 1):
        print(f"{k:>2}  {primes[k - 1]:>4}  {2**k:>8}  {n_k:>11}")
    if len(limits) < args.max_k:
        missed = range(len(limits) + 1, args.max_k + 1)
        ks = f"{missed[0]}" if len(missed) == 1 else f"{missed[0]}..{missed[-1]}"
        print(f"k = {ks}: not covered below --limit {args.limit}")
    print(f"one pass over {args.max_k} primes in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
