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
`check_system` evaluates exactly those hypotheses on (function, modulus)
pairs, deriving each (F, d) itself, and `kim_error_exponent` the
accompanying exponent delta = 1/(120 k^2 q^3 m^2).

`evaluate_range` computes f on a range with the kernel that computes
e_p in `exponents`, since f(A*Q + b) = f(b) + f(A) for b < Q = q^j is
e_p's block rule with weight 0: its table on [0, Q) comes from the same
digit fold (`_fold`), its arguments are checked by the same rule
(`_check_range`), and the range is written by the same tile route
(`_tiled_range`: the offset recursion, then the block writer).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

import numpy as np

from .exponents import _check_range, _fold, _residue_dtype, _tile_span, _tiled_range
from .primes import _U64

# Value tables are stored eagerly; the cap keeps memory bounded and makes
# oversized bases fail loudly instead of thrashing.
TABLE_CAP = 1 << 24

# entries of the value table reduced at a time by _value_tile
_PIECE = 1 << 13


@dataclass(frozen=True)
class QAdditiveFunction:
    """A completely q-additive function given by its values on [0, q), kept
    as a read-only int64 array (a view of an int64 array passed in)."""

    q: int
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"base must be >= 2, got {self.q}")
        if self.q > TABLE_CAP:
            raise ValueError(f"value table would need {self.q} entries, cap is {TABLE_CAP}")
        table = np.asarray(self.table, dtype=np.int64).view()
        if table.shape != (self.q,):
            raise ValueError(f"table must have exactly q={self.q} entries, got {table.size}")
        if table[0] != 0:
            raise ValueError("a completely q-additive function has f(0) = 0")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def __eq__(self, other):
        if not isinstance(other, QAdditiveFunction):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.table, other.table)

    def evaluate(self, n: int) -> int:
        """Sum the value table over the base-q digits of n, exactly."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        acc = 0
        while n:
            acc += self.table.item(n % self.q)
            n //= self.q
        return acc

    __call__ = evaluate

    @cached_property
    def _tiles(self) -> dict:
        # modulus or None -> _value_tile on [0, _tile_span(q)), filled by evaluate_range
        return {}


def _value_tile(f: QAdditiveFunction, span: int, mod: int | None) -> np.ndarray:
    """f on [0, span) for span = q^j, folded out of the value table:
    f(a*q^i + b) = f(a) + f(b) for b < q^i.  Without `mod` the tile is
    int64; with it the table is reduced mod `mod` into
    `_residue_dtype(mod)` as t - (t // mod)*mod, `_PIECE` entries at a
    time in one reused int64 buffer, with no int64 copy of the table on
    the way.  Floor division by a scalar is cheaper than np.remainder,
    and the result is exact for every int64 t: the quotient is exact,
    and the product and difference wrap mod 2**64 onto a remainder that
    fits."""
    if mod is None:
        values = f.table
    else:
        values = np.empty(f.q, dtype=_residue_dtype(mod))
        buffer = np.empty(min(f.q, _PIECE), dtype=np.int64)
        for lo in range(0, f.q, _PIECE):
            table = f.table[lo : lo + _PIECE]
            piece = buffer[: table.size]
            np.floor_divide(table, mod, out=piece)
            piece *= mod
            np.subtract(table, piece, out=piece)
            values[lo : lo + piece.size] = piece
    levels = 1
    while f.q**levels < span:
        levels += 1
    tile = _fold([values] * levels, mod)
    tile.flags.writeable = False
    return tile


def evaluate_range(f: QAdditiveFunction, start: int, stop: int, mod: int | None = None) -> np.ndarray:
    """f(n) for every n in [start, stop): an int64 array, or with `mod`
    the residues in the narrowest unsigned dtype that holds 2*(mod - 1).

    Tiled by Q = `_tile_span(q)`, the largest power of q that is at most
    max(q, 2**16) (q**2 for 2**8 < q < 2**9): for n = A*Q + b with b < Q,
    f(n) = f(b) + f(A).  f(b) comes from a table of f on [0, Q) folded out
    of the value table and kept with f, one per modulus, and
    `exponents._tiled_range` writes the range off it with weight 0, as it
    writes e_p's with its block weight.  Without `mod` table values must
    fit int64.  With `mod` the table is folded reduced, so only the
    reduced values need to fit.  The range must sit below 2**63, and so
    must the modulus (`exponents._check_range`).
    """
    _check_range(start, stop, mod)
    span = _tile_span(f.q)
    tile = f._tiles.get(mod)
    if tile is None:
        tile = f._tiles[mod] = _value_tile(f, span, mod)
    return _tiled_range(start, stop, span, tile, 0, mod)


def derive_invariants(f: QAdditiveFunction, m: int) -> tuple[int, int]:
    """The pair (F, d) controlling residue behavior of f modulo m.

    F = f(1) and d = gcd(m, (q-1)F, f(r) - rF for 2 <= r <= q-1); the
    empty residual list at q = 2 leaves d = gcd(m, (q-1)F).  The scan
    stops early once the gcd reaches 1, which later terms cannot change.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    F = f.table.item(1)
    d = gcd(m, (f.q - 1) * F)
    for r in range(2, f.q):
        if d == 1:
            break
        d = gcd(d, f.table.item(r) - r * F)
    return F, d


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the gcd hypotheses for a joint system."""

    pairwise_coprime_bases: bool
    gcd_F_d_one: tuple[bool, ...]
    pairwise_coprime_d: bool
    all_pass: bool


def check_system(pairs) -> HypothesisReport:
    """Evaluate the joint-distribution hypotheses exactly as stated for
    (function, modulus) pairs, with each (F, d) from `derive_invariants`:
    pairwise coprime bases, gcd(F_i, d_i) = 1 per pair, pairwise
    coprime d_i."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("a system needs at least one entry")
    invariants = [derive_invariants(f, m) for f, m in pairs]
    bases = [f.q for f, _ in pairs]
    ds = [d for _, d in invariants]
    bases_ok = all(gcd(a, b) == 1 for a, b in combinations(bases, 2))
    fd_ok = tuple(gcd(F, d) == 1 for F, d in invariants)
    d_ok = all(gcd(a, b) == 1 for a, b in combinations(ds, 2))
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
        # q can have thousands of digits, so the message gives a bit length
        raise OverflowError(
            f"error-exponent denominator 120*k^2*q^3*m^2 for k = {k}, m = {m} "
            f"has {denominator.bit_length()} bits, exceeding 64"
        )
    return Fraction(1, denominator)
