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

Beside each N_k it prints a coupon-collector model of it
(`coupon_model`): s_k, the share of n whose parity code differs from
that of n - 1; C_k = 2^k (k ln 2 + gamma) / s_k, the expected wait for
all 2^k codes at s_k fresh uniform codes per n; and N_k / C_k.

    python3 scripts/parity_coverage_growth.py
    python3 scripts/parity_coverage_growth.py --max-k 16 --limit 1e7
"""

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factexp.cli import integer
from factexp.experiments import CLASS_CAP, pattern_coverage
from factexp.primes import nth_odd_prime


# Euler's constant, the gamma of the coupon collector's expected wait
EULER_GAMMA = 0.5772156649015329


def coupon_model(primes, n_k: int):
    """(s_k, C_k, N_k / C_k) for the k = len(primes) primes and their N_k.

    e_p(n) - e_p(n - 1) = v_p(n) (Legendre), so the parity code of n
    differs from that of n - 1 exactly where some v_p(n) is odd.  That
    holds for a share sum_{a odd} p^-a (1 - 1/p) = 1/(p + 1) of n, and by
    the Chinese remainder theorem independently across the primes, so
    s_k = 1 - prod p/(p + 1), an exact Fraction.  Collecting all 2^k codes
    takes 2^k (k ln 2 + gamma) uniform draws on average, so at s_k draws
    per n the model's wait is C_k = 2^k (k ln 2 + gamma) / s_k, a float.
    """
    k = len(primes)
    share = 1 - math.prod(Fraction(p, p + 1) for p in primes)
    wait = 2**k * (k * math.log(2) + EULER_GAMMA) / share
    return share, wait, n_k / wait


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

    print(f"{'k':>2}  {'p_k':>4}  {'patterns':>8}  {'N_k':>11}  {'s_k':>8}  {'C_k':>11}  {'N_k/C_k':>7}")
    for k, n_k in enumerate(limits, 1):
        share, wait, ratio = coupon_model(primes[:k], n_k)
        print(f"{k:>2}  {primes[k - 1]:>4}  {2**k:>8}  {n_k:>11}  {float(share):>8.6f}"
              f"  {wait:>11.0f}  {ratio:>7.3f}")
    if len(limits) < args.max_k:
        missed = range(len(limits) + 1, args.max_k + 1)
        ks = f"{missed[0]}" if len(missed) == 1 else f"{missed[0]}..{missed[-1]}"
        print(f"k = {ks}: not covered below --limit {args.limit}")
    print(f"one pass over {args.max_k} primes in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
