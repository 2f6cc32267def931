"""The coupon-collector model of N_k in scripts/parity_coverage_growth.py."""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from factexp.exponents import exponent_range
from factexp.primes import nth_odd_prime

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "parity_coverage_growth.py"
_spec = importlib.util.spec_from_file_location("parity_coverage_growth", SCRIPT)
growth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(growth)


def odd_primes(k):
    return tuple(nth_odd_prime(i) for i in range(1, k + 1))


@pytest.mark.parametrize("k,share", [(1, Fraction(1, 4)), (2, Fraction(3, 8)),
                                     (3, Fraction(29, 64)), (4, Fraction(383, 768))])
def test_code_change_share_is_exact(k, share):
    # 1 - 3/4, 1 - 3/4 * 5/6, ... * 7/8, ... * 11/12
    got, wait, ratio = growth.coupon_model(odd_primes(k), 1000)
    assert isinstance(got, Fraction)
    assert got == share
    assert wait == pytest.approx(2**k * (k * math.log(2) + 0.5772156649015329) / share, rel=1e-12)
    assert ratio == pytest.approx(1000 / wait, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 6, 10])
def test_code_changes_on_a_fixed_range_follow_the_share(k):
    # the parity code of n differs from that of n - 1 where the parity of
    # some e_p does; the data are fixed, so the bound is not a statistical one
    primes = odd_primes(k)
    start, size = 10**9 + 7, 1 << 20
    changed = np.zeros(size, dtype=bool)
    for p in primes:
        parity = exponent_range(start - 1, start + size, p, mod=2)
        changed |= parity[1:] != parity[:-1]
    share = growth.coupon_model(primes, 1)[0]
    assert np.count_nonzero(changed) / size == pytest.approx(float(share), rel=1e-3)
