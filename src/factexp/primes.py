"""Primality, factorization and prime enumeration helpers.

Everything here is exact: the Miller-Rabin witness set below decides
primality deterministically for every n < 2**64, `factorize` is the
package's one trial-division loop, and the sieve is a plain Eratosthenes
bytearray.
"""

from functools import lru_cache
from itertools import compress
from math import isqrt, log

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic witness set for n < 2^64 (miller-rabin.appspot.com).
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_U63 = 1 << 63
_U64 = 1 << 64

# Largest trial divisor `factorize` tries: every n < 2^40 factors within
# it, and a larger n that would need more is refused before that work.
_TRIAL_LIMIT = 1 << 20

# Largest index `nth_odd_prime` accepts, refusing larger ones before sieving
ODD_PRIME_INDEX_CAP = 10**6


def _shown(n: int) -> int | str:
    """n for an error message: itself up to 512 bits (155 digits), and "a
    N-bit number" past that, whose digits could run past the interpreter's
    int-to-str cap and would bury the message."""
    return n if n.bit_length() <= 512 else f"a {n.bit_length()}-bit number"


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2**64."""
    if n >= _U64:
        raise ValueError(f"primality test is only deterministic below 2**64, got {_shown(n)}")
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


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division.

    No divisor above 2**20 is tried, so every n < 2**40 is factored; an n
    whose cofactor still has a possible factor past that bound raises
    ValueError naming n.
    """
    if n < 1:
        raise ValueError(f"can only factor n >= 1, got {_shown(n)}")
    factors = {}
    rest = n
    d = 2
    while d * d <= rest:
        if d > _TRIAL_LIMIT:
            raise ValueError(
                f"cannot factor {_shown(n)}: it needs trial divisors above {_TRIAL_LIMIT}")
        while rest % d == 0:
            rest //= d
            factors[d] = factors.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if rest > 1:
        factors[rest] = 1
    return factors


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def nth_odd_prime(i: int) -> int:
    """The i-th odd prime: 3, 5, 7, 11, ...  Indexing starts at 1, and
    an index above ODD_PRIME_INDEX_CAP is refused.  It is the n-th prime
    for n = i + 1, below n(ln n + ln ln n) for n >= 6 (Rosser), so one
    sieve to that bound finds it."""
    if i < 1:
        raise ValueError(f"odd-prime index must be >= 1, got {_shown(i)}")
    if i > ODD_PRIME_INDEX_CAP:
        raise ValueError(f"odd-prime index {_shown(i)} exceeds the cap of {ODD_PRIME_INDEX_CAP}")
    n = i + 1
    limit = int(n * (log(n) + log(log(n)))) + 1 if n >= 6 else 11
    return primes_up_to(limit)[i]
