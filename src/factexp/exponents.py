"""Base-p digit arithmetic and the exponent of a prime in n!.

e_p(n) denotes the exponent of the prime p in the factorization of n!,
with e_p(0) = 0 because 0! = 1.  Three classical identities compute it:

    e_p(n) = sum_{j>=1} floor(n / p^j)                      (floor sum)
           = sum_j n_j * (p^j - 1)/(p - 1)                  (digit weights)
           = (n - s_p(n)) / (p - 1)                         (digit sum)

where n = sum n_j p^j is the base-p expansion and s_p(n) = sum n_j.  The
scalar `legendre_exponent` computes the floor sum; the test suite pins
all three against each other.

`exponent_range`, the vectorized workhorse behind the scan harness,
splits n = A*P + b with b < P = p^J and uses

    e_p(n) = e_p(b) + A*(P - 1)/(p - 1) + e_p(A),

so a range is a short run of blocks, each one slice of a cached table
of e_p on [0, P) plus one exact scalar offset, with no division per
element.  The vectorized floor sum only builds that table and serves
the tests as an oracle.  `ExponentStream` advances e_p(n) -> e_p(n+1) in
amortized constant time via e_p(n+1) - e_p(n) = v_p(n+1).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .primes import _U63, is_prime

# Range kernels tile by the largest power of the base that is at most
# this, or by the base itself when it is larger.
_TILE = 1 << 16


def _require_base(p: int) -> None:
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


@dataclass(frozen=True)
class DigitExpansion:
    """Digits of a nonnegative integer, least significant first.

    Canonical form: no most-significant zero digit, except that the
    value 0 is the single digit [0].
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        _require_base(self.base)
        object.__setattr__(self, "digits", tuple(self.digits))
        if not self.digits:
            raise ValueError("digit vector must be nonempty")
        if any(d < 0 or d >= self.base for d in self.digits):
            raise ValueError(f"digit out of range for base {self.base}: {self.digits}")
        if len(self.digits) > 1 and self.digits[-1] == 0:
            raise ValueError("non-canonical expansion: most-significant digit is zero")

    def value(self) -> int:
        """Reconstruct the integer the digits encode."""
        acc = 0
        for d in reversed(self.digits):
            acc = acc * self.base + d
        return acc

    def __len__(self) -> int:
        return len(self.digits)


def base_digits(n: int, p: int) -> DigitExpansion:
    """Canonical base-p expansion of n >= 0, least significant digit first."""
    _require_base(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return DigitExpansion(p, (0,))
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return DigitExpansion(p, tuple(digits))


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    _require_base(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    s = 0
    while n:
        s += n % p
        n //= p
    return s


def legendre_exponent(n: int, p: int) -> int:
    """e_p(n): the exponent of the prime p in n!, by the floor sum."""
    _require_prime(p)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    e = 0
    while n:
        n //= p
        e += n
    return e


def p_adic_valuation(m: int, p: int) -> int:
    """Largest j with p^j dividing m; rejects m = 0."""
    _require_prime(p)
    if m < 1:
        raise ValueError(f"valuation needs m >= 1, got {m}")
    j = 0
    while m % p == 0:
        m //= p
        j += 1
    return j


class ExponentStream:
    """Incremental tracker of e_p(n) over consecutive n.

    Each `advance` moves the cursor from n to n+1 and adds v_p(n+1) to
    the running exponent, so a scan over [a, b) costs one valuation per
    step instead of a from-scratch floor sum.  With a modulus the
    exponent is kept reduced, which is all the residue scans need.

    Streams are single-owner: share nothing, move freely.
    """

    __slots__ = ("prime", "modulus", "cursor", "current_exponent")

    def __init__(self, prime: int, start: int = 0, modulus: int | None = None):
        _require_prime(prime)
        if start < 0:
            raise ValueError(f"start must be nonnegative, got {start}")
        if modulus is not None and modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.prime = prime
        self.modulus = modulus
        self.cursor = start
        e = legendre_exponent(start, prime)
        self.current_exponent = e if modulus is None else e % modulus

    def advance(self) -> tuple[int, int]:
        """Step to n+1; return (n+1, e_p(n+1)) (reduced if a modulus is set)."""
        n = self.cursor + 1
        e = self.current_exponent + p_adic_valuation(n, self.prime)
        if self.modulus is not None:
            e %= self.modulus
        self.cursor = n
        self.current_exponent = e
        return n, e

    def __repr__(self) -> str:
        mod = f", mod {self.modulus}" if self.modulus is not None else ""
        return f"ExponentStream(p={self.prime}, n={self.cursor}, e={self.current_exponent}{mod})"


def _tile_span(base: int) -> int:
    """The largest power of base that is at most max(base, 2**16)."""
    span = base
    while span * base <= _TILE:
        span *= base
    return span


def _tiled_range(start: int, stop: int, span: int, tile, offset, mod: int | None) -> np.ndarray:
    """Values on [start, stop) of a function g with g(A*span + b) =
    tile[b] + offset(A) for 0 <= b < span, as an int64 array.

    `tile` is an array of the span values, or None when they are all 0;
    offset(A) is an exact Python int.  With `mod` the offsets are reduced
    before they are added and the result once at the end, so the sums
    stay below the largest tile value plus mod.
    """
    out = np.empty(stop - start, dtype=np.int64)
    n = start
    while n < stop:
        a, b = divmod(n, span)
        end = min(stop, n - b + span)
        off = offset(a) if mod is None else offset(a) % mod
        block = out[n - start : end - start]
        if tile is None:
            block.fill(off)
        else:
            np.add(tile[b : b + end - n], off, out=block)
        n = end
    if mod is not None:
        out %= mod
    return out


def _floor_sum_range(start: int, stop: int, p: int) -> np.ndarray:
    """The vectorized floor sum: e_p(n) for n in [start, stop), one int64
    division per base-p level over every element."""
    ns = np.arange(start, stop, dtype=np.int64)
    acc = np.zeros(ns.shape, dtype=np.int64)
    pj = p
    while pj < stop:
        acc += ns // pj
        pj *= p
    return acc


@lru_cache(maxsize=32)
def _exponent_tile(p: int) -> np.ndarray:
    # e_p on [0, p^J), unreduced so one table serves every modulus
    tile = _floor_sum_range(0, _tile_span(p), p)
    tile.flags.writeable = False
    return tile


def exponent_range(start: int, stop: int, p: int, mod: int | None = None) -> np.ndarray:
    """e_p(n) for every n in [start, stop) as an int64 array.

    Tiled by P = the largest power of p that is at most max(p, 2**16): for
    n = A*P + b with b < P, e_p(n) = e_p(b) + A*(P - 1)/(p - 1) + e_p(A).
    e_p(b) comes from a cached table built by the floor sum (for p > 2**16
    it is 0, and no table exists), and the block offset is computed
    exactly by `legendre_exponent`.  With `mod` the values come back
    reduced.  The range must sit below 2**63, so every value fits int64.
    """
    _require_prime(p)
    if mod is not None and mod < 2:
        raise ValueError(f"modulus must be >= 2, got {mod}")
    if start < 0 or stop < start:
        raise ValueError(f"bad range [{start}, {stop})")
    if stop >= _U63:
        raise ValueError(f"range end must stay below 2**63, got {stop}")
    span = _tile_span(p)
    tile = _exponent_tile(p) if p <= _TILE else None
    weight = (span - 1) // (p - 1)
    return _tiled_range(
        start, stop, span, tile, lambda a: a * weight + legendre_exponent(a, p), mod
    )
