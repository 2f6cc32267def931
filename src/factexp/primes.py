"""Primality and prime enumeration helpers.

Everything here is exact: the Miller-Rabin witness set below decides
primality deterministically for every n < 2**64, and the sieve is a plain
Eratosthenes bytearray.
"""

from functools import lru_cache
from math import isqrt

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic witness set for n < 2^64 (miller-rabin.appspot.com).
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_U63 = 1 << 63
_U64 = 1 << 64


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n >= _U64:
        raise ValueError(f"primality test is only deterministic below 2**64, got {n}")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES_64:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(sieve) if flag]


def nth_odd_prime(i: int) -> int:
    """The i-th odd prime: 3, 5, 7, 11, ...  Indexing starts at 1."""
    if i < 1:
        raise ValueError(f"odd-prime index must be >= 1, got {i}")
    limit = 64
    while True:
        odd = primes_up_to(limit)[1:]
        if len(odd) >= i:
            return odd[i - 1]
        limit *= 2
