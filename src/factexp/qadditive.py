"""Completely q-additive functions and the joint-system gcd hypotheses.

A function f on the nonnegative integers is completely q-additive when
f(0) = 0 and f(a*q^k + b) = f(a) + f(b) for a >= 1, k >= 1, 0 <= b < q^k.
Equivalently, f sums a fixed value table over the base-q digits of its
argument, which is how it is represented here.

For a k-tuple of such functions on pairwise coprime bases, the joint
residue counts |{n < N : f_i(n) = a_i mod m_i for all i}| match the
uniform main term N/(m_1...m_k) up to O(N^(1-delta)) under gcd
hypotheses on the invariants

    F = f(1),
    d = gcd(m, (q-1)*F, f(r) - r*F for 2 <= r <= q-1),

a result of Kim on joint distributions of q-additive functions.
`check_system` evaluates exactly those hypotheses and
`kim_error_exponent` the accompanying exponent delta = 1/(120 k^2 q^3 m^2).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .exponents import _tile_span, _tiled_range
from .primes import _U64

# Value tables are stored eagerly; the cap keeps memory bounded and makes
# oversized bases fail loudly instead of thrashing.
TABLE_CAP = 1 << 24


@dataclass(frozen=True)
class QAdditiveFunction:
    """A completely q-additive function given by its values on [0, q)."""

    q: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"base must be >= 2, got {self.q}")
        if self.q > TABLE_CAP:
            raise ValueError(f"value table would need {self.q} entries, cap is {TABLE_CAP}")
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.q:
            raise ValueError(f"table must have exactly q={self.q} entries, got {len(self.table)}")
        if self.table[0] != 0:
            raise ValueError("a completely q-additive function has f(0) = 0")

    def evaluate(self, n: int) -> int:
        """Sum the value table over the base-q digits of n."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        acc = 0
        while n:
            acc += self.table[n % self.q]
            n //= self.q
        return acc

    __call__ = evaluate

    @cached_property
    def _values(self) -> np.ndarray:
        # the value table as a read-only int64 array, built once per function
        values = np.asarray(self.table, dtype=np.int64)
        values.flags.writeable = False
        return values


def _value_tile(f: QAdditiveFunction, span: int, mod: int | None) -> np.ndarray:
    """f on [0, span) for span = q^j, from the value table digit level by
    digit level: f(a*q^i + b) = f(a) + f(b) for b < q^i.  With `mod` each
    level is reduced, so only reduced values need to fit int64."""
    values = f._values if mod is None else f._values % mod
    tile = values
    while tile.size < span:
        tile = (values[:, None] + tile).ravel()
        if mod is not None:
            tile %= mod
    return tile


def evaluate_range(f: QAdditiveFunction, start: int, stop: int, mod: int | None = None) -> np.ndarray:
    """f(n) for every n in [start, stop), vectorized over int64.

    Tiled by Q = the largest power of q that is at most max(q, 2**16): for
    n = A*Q + b with b < Q, f(n) = f(b) + f(A).  f(b) comes from a table
    of f on [0, Q) folded out of the value table, and the block offset is
    computed exactly by `f.evaluate`.  Table values must fit int64.  With
    `mod` a table of Q > q entries is built reduced and the offsets are
    reduced, so only the reduced values need to fit; with Q = q the table
    is used as it is.
    """
    if start < 0 or stop < start:
        raise ValueError(f"bad range [{start}, {stop})")
    span = _tile_span(f.q)
    tile = f._values if span == f.q else _value_tile(f, span, mod)
    return _tiled_range(start, stop, span, tile, f.evaluate, mod)


def derive_invariants(f: QAdditiveFunction, m: int) -> tuple[int, int]:
    """The pair (F, d) controlling residue behavior of f modulo m.

    F = f(1) and d = gcd(m, (q-1)F, f(r) - rF for 2 <= r <= q-1); the
    empty residual list at q = 2 leaves d = gcd(m, (q-1)F).  The scan
    stops early once the gcd reaches 1, which later terms cannot change.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    F = f.table[1]
    d = gcd(m, (f.q - 1) * F)
    for r in range(2, f.q):
        if d == 1:
            break
        d = gcd(d, f.table[r] - r * F)
    return F, d


@dataclass(frozen=True)
class KimEntry:
    """One (base, modulus, function) slot of a joint system, with its
    derived invariants."""

    q: int
    m: int
    f: QAdditiveFunction
    F: int
    d: int

    def __post_init__(self):
        if self.q != self.f.q:
            raise ValueError(f"entry base {self.q} does not match function base {self.f.q}")
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")

    @classmethod
    def make(cls, f: QAdditiveFunction, m: int) -> "KimEntry":
        F, d = derive_invariants(f, m)
        return cls(q=f.q, m=m, f=f, F=F, d=d)


@dataclass(frozen=True)
class KimSystem:
    """A k-tuple of q-additive functions with moduli, ready for the
    hypothesis checks."""

    entries: tuple[KimEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("a system needs at least one entry")

    @classmethod
    def of(cls, pairs) -> "KimSystem":
        """Build from (function, modulus) pairs, deriving invariants."""
        return cls(tuple(KimEntry.make(f, m) for f, m in pairs))

    @property
    def k(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the gcd hypotheses for a joint system."""

    pairwise_coprime_bases: bool
    gcd_F_d_one: tuple[bool, ...]
    pairwise_coprime_d: bool
    all_pass: bool


def check_system(system: KimSystem) -> HypothesisReport:
    """Evaluate the joint-distribution hypotheses exactly as stated:
    pairwise coprime bases, gcd(F_i, d_i) = 1 per entry, pairwise
    coprime d_i."""
    es = system.entries
    bases_ok = all(
        gcd(es[i].q, es[j].q) == 1 for i in range(len(es)) for j in range(i + 1, len(es))
    )
    fd_ok = tuple(gcd(e.F, e.d) == 1 for e in es)
    d_ok = all(
        gcd(es[i].d, es[j].d) == 1 for i in range(len(es)) for j in range(i + 1, len(es))
    )
    return HypothesisReport(
        pairwise_coprime_bases=bases_ok,
        gcd_F_d_one=fd_ok,
        pairwise_coprime_d=d_ok,
        all_pass=bases_ok and all(fd_ok) and d_ok,
    )


def kim_error_exponent(k: int, q: int, m: int) -> Fraction:
    """The error exponent 1/(120 k^2 q^3 m^2) for a joint system whose
    largest base is q and largest modulus is m, as an exact rational."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if q < 2 or m < 2:
        raise ValueError(f"need q >= 2 and m >= 2, got q={q}, m={m}")
    denominator = 120 * k * k * q**3 * m * m
    if denominator >= _U64:
        raise OverflowError(
            f"error-exponent denominator 120*{k}^2*{q}^3*{m}^2 = {denominator} exceeds 64 bits"
        )
    return Fraction(1, denominator)
