"""Primality and factorization helpers against brute-force and well-known
values."""

import math
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factexp.primes import (ODD_PRIME_INDEX_CAP, _shown, factorize, is_prime, nth_odd_prime,
                            primes_up_to)

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97,
]


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_matches_known_list():
    assert primes_up_to(100) == PRIMES_BELOW_100


def test_sieve_edges():
    assert primes_up_to(-5) == []
    assert primes_up_to(0) == []
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(3) == [2, 3]


def test_prime_counting_checkpoint():
    # pi(10^4) = 1229
    assert len(primes_up_to(10**4)) == 1229


def test_is_prime_small_block():
    for n in range(2000):
        assert is_prime(n) == trial_division(n), n


@given(st.integers(min_value=0, max_value=10**6))
def test_is_prime_agrees_with_trial_division(n):
    assert is_prime(n) == trial_division(n)


def test_is_prime_large_known_values():
    assert is_prime(2**61 - 1)  # Mersenne
    assert is_prime(18446744073709551557)  # largest prime below 2^64
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(561)  # Carmichael
    assert not is_prime(41041)  # Carmichael
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_rejects_beyond_64_bits():
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_messages_name_a_number_past_512_bits_by_its_width():
    assert [_shown(n) for n in (2**512 - 1, 1 - 2**512)] == [2**512 - 1, 1 - 2**512]
    assert [_shown(n) for n in (2**512, -(2**512))] == ["a 513-bit number"] * 2
    # 10^5000 has 5001 digits, past the interpreter's default int-to-str cap
    with pytest.raises(ValueError, match=r"^primality test is only deterministic below "
                                         r"2\*\*64, got a 16610-bit number$"):
        is_prime(10**5000)
    with pytest.raises(ValueError, match="^can only factor n >= 1, got a 16610-bit number$"):
        factorize(-(10**5000))
    with pytest.raises(ValueError, match="^odd-prime index a 16610-bit number exceeds the cap"):
        nth_odd_prime(10**5000)


@given(st.integers(min_value=1, max_value=2**40 - 1))
def test_factorize_multiplies_back_to_primes(n):
    factors = factorize(n)
    assert math.prod(r**e for r, e in factors.items()) == n
    assert all(is_prime(r) and e >= 1 for r, e in factors.items())


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(10**9 + 6) == {2: 1, 500000003: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_refuses_work_past_its_trial_bound():
    # 1048573 is the largest prime below 2^20 and 1048583 the smallest above
    assert factorize(1048573 * 1048583) == {1048573: 1, 1048583: 1}
    with pytest.raises(ValueError, match="^cannot factor 1099526307889: "):
        factorize(1048583**2)
    with pytest.raises(ValueError, match="^cannot factor 2305843009213693951: "):
        factorize(2**61 - 1)


def test_nth_odd_prime_sequence():
    assert [nth_odd_prime(i) for i in range(1, 11)] == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert nth_odd_prime(100) == 547
    # the 100001st prime, from one sieve to the Rosser bound
    assert nth_odd_prime(10**5) == 1299721
    odd = primes_up_to(30000)[1:]
    assert [nth_odd_prime(i) for i in range(1, 3001)] == odd[:3000]


def test_nth_odd_prime_rejects_bad_index():
    with pytest.raises(ValueError):
        nth_odd_prime(0)
    with pytest.raises(ValueError):
        nth_odd_prime(-3)


def test_nth_odd_prime_refuses_an_index_past_the_cap_before_sieving():
    assert ODD_PRIME_INDEX_CAP == 10**6
    t0 = time.monotonic()
    for i in (ODD_PRIME_INDEX_CAP + 1, 10**10, 10**100):
        with pytest.raises(ValueError, match=f"^odd-prime index {i} exceeds the cap of 1000000$"):
            nth_odd_prime(i)
    assert time.monotonic() - t0 < 0.1
