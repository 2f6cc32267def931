"""Completely q-additive functions and the joint-system gcd checks."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factexp.exponents import _tile_span, digit_sum
from factexp.qadditive import (
    TABLE_CAP,
    KimEntry,
    KimSystem,
    QAdditiveFunction,
    check_system,
    derive_invariants,
    evaluate_range,
    kim_error_exponent,
)


def digit_sum_function(q: int) -> QAdditiveFunction:
    return QAdditiveFunction(q=q, table=tuple(range(q)))


@st.composite
def small_functions(draw):
    q = draw(st.integers(2, 24))
    values = draw(st.lists(st.integers(-40, 40), min_size=q, max_size=q))
    values[0] = 0
    return QAdditiveFunction(q=q, table=tuple(values))


def digit_levels_oracle(f: QAdditiveFunction, start: int, stop: int, mod=None) -> np.ndarray:
    """f on [start, stop) one base-q digit level at a time: a //, a % and
    a table lookup per level, reduced at every level when mod is set."""
    table = np.asarray(f.table, dtype=np.int64)
    ns = np.arange(start, stop, dtype=np.int64)
    acc = np.zeros(ns.shape, dtype=np.int64)
    qj = 1
    while qj < max(stop, 2):
        acc += np.take(table, (ns // qj) % f.q)
        if mod is not None:
            acc %= mod
        qj *= f.q
    return acc


def test_digit_sum_table_is_the_digit_sum():
    f = digit_sum_function(7)
    for n in range(2000):
        assert f(n) == digit_sum(n, 7)


def test_zero_maps_to_zero():
    f = digit_sum_function(5)
    assert f(0) == 0
    assert f.evaluate(0) == 0


@given(small_functions(), st.integers(1, 10**6), st.integers(1, 6), st.data())
def test_complete_additivity(f, a, k, data):
    # the defining equation: f(a*q^k + b) = f(a) + f(b) for b < q^k
    b = data.draw(st.integers(0, f.q**k - 1))
    assert f(a * f.q**k + b) == f(a) + f(b)


def test_construction_rejections():
    with pytest.raises(ValueError):
        QAdditiveFunction(q=1, table=(0,))
    with pytest.raises(ValueError):
        QAdditiveFunction(q=3, table=(1, 0, 0))  # f(0) != 0
    with pytest.raises(ValueError):
        QAdditiveFunction(q=3, table=(0, 1))  # wrong length
    with pytest.raises(ValueError):
        QAdditiveFunction(q=TABLE_CAP + 1, table=())


def test_evaluate_rejects_negative():
    with pytest.raises(ValueError):
        digit_sum_function(3).evaluate(-1)


@given(small_functions(), st.integers(0, 5000), st.integers(0, 400))
def test_evaluate_range_matches_scalar(f, start, width):
    arr = evaluate_range(f, start, start + width)
    assert arr.tolist() == [f(n) for n in range(start, start + width)]


@given(small_functions(), st.integers(2, 97))
def test_evaluate_range_mod(f, m):
    plain = evaluate_range(f, 0, 600)
    reduced = evaluate_range(f, 0, 600, mod=m)
    assert np.array_equal(reduced, plain % m)


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 10, 81, 169, 300, 70001]), st.integers(1, 96),
       st.integers(0, 2**30), st.integers(-3, 3), st.integers(2, 3),
       st.sampled_from([None, 2, 7, 1000]), st.data())
def test_evaluate_range_straddles_tiles(q, c, block, shift, blocks, mod, data):
    # tiles of 2^16, 3^10, 10^4, 81^2, 169^2 and 300 or 70001 entries
    f = QAdditiveFunction(q=q, table=tuple(r * c % 97 - 48 if r else 0 for r in range(q)))
    span = _tile_span(q)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = evaluate_range(f, start, stop, mod=mod)
    assert np.array_equal(got, digit_levels_oracle(f, start, stop, mod))
    for a in range(start // span, (stop - 1) // span + 2):
        for n in (a * span - 1, a * span, a * span + 1, start, stop - 1):
            if start <= n < stop:
                assert got[n - start] == (f(n) if mod is None else f(n) % mod)


def test_evaluate_range_reduces_each_level():
    # table values near the int64 edge only work because the accumulator
    # is reduced at every digit level
    f = QAdditiveFunction(q=2, table=(0, 1 << 61))
    arr = evaluate_range(f, 0, 64, mod=1000)
    assert arr.tolist() == [f(n) % 1000 for n in range(64)]


def test_evaluate_range_empty_and_bad_range():
    assert evaluate_range(digit_sum_function(3), 5, 5).size == 0
    with pytest.raises(ValueError):
        evaluate_range(digit_sum_function(3), 5, 4)


def test_invariants_of_digit_sums():
    s10 = digit_sum_function(10)
    assert derive_invariants(s10, 3) == (1, 3)  # gcd(3, 9) = 3, residuals vanish
    assert derive_invariants(s10, 5) == (1, 1)  # gcd(5, 9) = 1
    assert derive_invariants(digit_sum_function(2), 9) == (1, 1)


def test_invariants_of_zero_function():
    z = QAdditiveFunction(q=6, table=(0,) * 6)
    assert derive_invariants(z, 12) == (0, 12)


@given(small_functions(), st.integers(2, 60))
def test_invariants_match_unoptimized_definition(f, m):
    F = f(1)
    d = gcd(m, (f.q - 1) * F)
    for r in range(2, f.q):
        d = gcd(d, f(r) - r * F)
    result = derive_invariants(f, m)
    assert result == (F, d)
    # d is seeded with a gcd against m, so it always divides the modulus
    assert m % result[1] == 0
    # and recomputing changes nothing
    assert derive_invariants(f, m) == result


def test_invariants_reject_bad_modulus():
    with pytest.raises(ValueError):
        derive_invariants(digit_sum_function(3), 1)


def test_entry_make_and_base_mismatch():
    f = digit_sum_function(10)
    entry = KimEntry.make(f, 3)
    assert (entry.q, entry.m, entry.F, entry.d) == (10, 3, 1, 3)
    with pytest.raises(ValueError):
        KimEntry(q=9, m=3, f=f, F=1, d=3)
    with pytest.raises(ValueError):
        KimEntry(q=10, m=1, f=f, F=1, d=3)


def test_system_needs_entries():
    with pytest.raises(ValueError):
        KimSystem(())


def test_system_of_coprime_digit_sums_passes():
    system = KimSystem.of([(digit_sum_function(2), 2), (digit_sum_function(3), 2)])
    assert system.k == 2
    report = check_system(system)
    assert report.pairwise_coprime_bases
    assert report.gcd_F_d_one == (True, True)
    assert report.pairwise_coprime_d
    assert report.all_pass


def test_system_flags_shared_base():
    system = KimSystem.of([(digit_sum_function(4), 3), (digit_sum_function(2), 2)])
    report = check_system(system)
    assert not report.pairwise_coprime_bases
    assert not report.all_pass


def test_system_flags_shared_d():
    # both entries have d = 3; bases 10 and 7 are coprime, so the failure
    # is isolated to the pairwise-coprime-d condition
    system = KimSystem.of([(digit_sum_function(10), 3), (digit_sum_function(7), 3)])
    report = check_system(system)
    assert report.pairwise_coprime_bases
    assert all(report.gcd_F_d_one)
    assert not report.pairwise_coprime_d
    assert not report.all_pass


def test_error_exponent_values():
    assert kim_error_exponent(1, 2, 2) == Fraction(1, 120 * 8 * 4)
    assert kim_error_exponent(2, 9, 2) == Fraction(1, 120 * 4 * 729 * 4)
    assert kim_error_exponent(1, 3, 2) == Fraction(1, 12960)


def test_error_exponent_overflow_and_rejections():
    with pytest.raises(OverflowError):
        kim_error_exponent(1000, 10**4, 10**4)
    with pytest.raises(ValueError):
        kim_error_exponent(0, 2, 2)
    with pytest.raises(ValueError):
        kim_error_exponent(1, 1, 2)
    with pytest.raises(ValueError):
        kim_error_exponent(1, 2, 1)
