"""e_p(n) and base-p digit arithmetic.

The factorial-factorization oracle keeps the floor-sum honest, and the
two digit identities are pinned against it property-style.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factexp.exponents import (
    DigitExpansion,
    ExponentStream,
    _floor_sum_range,
    _tile_span,
    base_digits,
    digit_sum,
    exponent_range,
    legendre_exponent,
    p_adic_valuation,
)

primes_st = st.sampled_from([2, 3, 5, 7, 11, 13, 47, 97])
# tile sizes 2^16, 3^10, 47^2, 97^2, and the prime itself above 2^16
tiled_primes_st = st.sampled_from([2, 3, 47, 97, 65537, 1000003])


def boundary_points(start: int, stop: int, span: int):
    """Both ends of [start, stop) and every n within one of a multiple of span."""
    points = {start, stop - 1}
    for a in range(start // span, (stop - 1) // span + 2):
        points.update(n for n in (a * span - 1, a * span, a * span + 1) if start <= n < stop)
    return sorted(points)


def factorial_valuation(n: int, p: int) -> int:
    # slow but independent: factor p out of n! itself
    f = math.factorial(n)
    e = 0
    while f % p == 0:
        f //= p
        e += 1
    return e


def test_hand_checked_values():
    assert legendre_exponent(4, 2) == 3  # 4! = 24
    assert legendre_exponent(10, 2) == 8
    assert legendre_exponent(10, 3) == 4
    assert legendre_exponent(100, 5) == 24
    assert legendre_exponent(0, 11) == 0
    assert legendre_exponent(6, 7) == 0  # n < p


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_matches_factorial_factorization(p):
    for n in range(200):
        assert legendre_exponent(n, p) == factorial_valuation(n, p)


@given(st.integers(0, 10**9), primes_st)
def test_digit_sum_identity(n, p):
    assert legendre_exponent(n, p) == (n - digit_sum(n, p)) // (p - 1)


@given(st.integers(0, 10**9), primes_st)
def test_digit_weight_identity(n, p):
    acc, w = 0, 0  # w runs through (p^j - 1)/(p - 1)
    for d in base_digits(n, p).digits:
        acc += d * w
        w = w * p + 1
    assert acc == legendre_exponent(n, p)


@given(st.integers(0, 10**12), st.integers(2, 50))
def test_base_digits_round_trip(n, b):
    exp = base_digits(n, b)
    assert exp.value() == n
    assert sum(exp.digits) == digit_sum(n, b)


def test_digit_expansion_canonical_form():
    assert base_digits(0, 7).digits == (0,)
    assert base_digits(7, 7).digits == (0, 1)
    with pytest.raises(ValueError):
        DigitExpansion(10, (1, 2, 0))  # trailing zero digit
    with pytest.raises(ValueError):
        DigitExpansion(10, ())
    with pytest.raises(ValueError):
        DigitExpansion(10, (10,))
    with pytest.raises(ValueError):
        DigitExpansion(1, (0,))
    with pytest.raises(ValueError):
        DigitExpansion(10, (-1,))


def test_len_counts_digits():
    assert len(base_digits(0, 2)) == 1
    assert len(base_digits(255, 2)) == 8


def test_prime_argument_enforced():
    with pytest.raises(ValueError):
        legendre_exponent(10, 4)
    with pytest.raises(ValueError):
        legendre_exponent(10, 1)
    with pytest.raises(ValueError):
        p_adic_valuation(8, 6)
    with pytest.raises(ValueError):
        exponent_range(0, 10, 9)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        legendre_exponent(-1, 3)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)
    with pytest.raises(ValueError):
        base_digits(-1, 3)


def test_valuation_values():
    assert p_adic_valuation(8, 2) == 3
    assert p_adic_valuation(9, 3) == 2
    assert p_adic_valuation(7, 2) == 0
    assert p_adic_valuation(1, 13) == 0
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)


@given(st.integers(1, 10**9), primes_st)
def test_valuation_divides_exactly(m, p):
    v = p_adic_valuation(m, p)
    assert m % p**v == 0
    assert (m // p**v) % p != 0


def test_stream_matches_scratch_computation():
    s = ExponentStream(3)
    assert s.current_exponent == 0
    for n in range(1, 500):
        assert s.advance() == (n, legendre_exponent(n, 3))


def test_stream_with_offset_and_modulus():
    s = ExponentStream(5, start=123, modulus=7)
    assert s.current_exponent == legendre_exponent(123, 5) % 7
    for n in range(124, 400):
        got_n, got_e = s.advance()
        assert got_n == n
        assert got_e == legendre_exponent(n, 5) % 7


def test_stream_rejections_and_repr():
    with pytest.raises(ValueError):
        ExponentStream(4)
    with pytest.raises(ValueError):
        ExponentStream(3, start=-1)
    with pytest.raises(ValueError):
        ExponentStream(3, modulus=1)
    assert "p=5" in repr(ExponentStream(5, start=10))


def test_exponent_range_matches_scalar():
    for p in (2, 3, 13):
        arr = exponent_range(0, 300, p)
        assert arr.dtype == np.int64
        assert arr.tolist() == [legendre_exponent(n, p) for n in range(300)]


@given(st.integers(0, 10**6), st.integers(0, 300), primes_st)
def test_exponent_range_windows(start, width, p):
    arr = exponent_range(start, start + width, p)
    assert arr.tolist() == [legendre_exponent(n, p) for n in range(start, start + width)]


def test_exponent_range_near_the_top():
    start = (1 << 62) - 5
    arr = exponent_range(start, start + 10, 3)
    assert arr.tolist() == [legendre_exponent(n, 3) for n in range(start, start + 10)]


def test_exponent_range_mod():
    plain = exponent_range(0, 1000, 3)
    reduced = exponent_range(0, 1000, 3, mod=5)
    assert np.array_equal(reduced, plain % 5)


def test_exponent_range_edges_and_rejections():
    assert exponent_range(10, 10, 3).size == 0
    with pytest.raises(ValueError):
        exponent_range(5, 4, 3)
    with pytest.raises(ValueError):
        exponent_range(-1, 4, 3)
    with pytest.raises(ValueError):
        exponent_range(0, 1 << 63, 3)
    with pytest.raises(ValueError):
        exponent_range(0, 10, 3, mod=1)


@settings(max_examples=40)
@given(tiled_primes_st, st.integers(0, 2**40), st.integers(-3, 3), st.integers(2, 3),
       st.sampled_from([None, 2, 3, 10]), st.data())
def test_exponent_range_straddles_tiles(p, block, shift, blocks, mod, data):
    span = _tile_span(p)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = exponent_range(start, stop, p, mod=mod)
    want = _floor_sum_range(start, stop, p)
    if mod is not None:
        want %= mod
    assert np.array_equal(got, want)
    for n in boundary_points(start, stop, span):
        e = legendre_exponent(n, p)
        assert e == (n - digit_sum(n, p)) // (p - 1)
        assert got[n - start] == (e if mod is None else e % mod)


def test_exponent_range_huge_prime_allocates_only_the_output():
    p = 2**61 - 1
    tracemalloc.start()
    try:
        got = exponent_range(2**62, 2**62 + 10**6, p, mod=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < got.nbytes + (1 << 16)
    assert np.array_equal(got, _floor_sum_range(2**62, 2**62 + 10**6, p) % 2)
    # the block boundary at 2p = 2^62 - 2, against the scalar route
    start = 2 * p - 5
    assert exponent_range(start, start + 10, p).tolist() == [
        legendre_exponent(n, p) for n in range(start, start + 10)
    ]
