"""Completely q-additive functions and the joint-system gcd hypotheses.

A function f on the nonnegative integers is completely q-additive when
f(0) = 0 and f(a*q^k + b) = f(a) + f(b) for a >= 1, k >= 1, 0 <= b < q^k.
Equivalently, f sums a fixed value table over the base-q digits of its
argument.  Two forms are kept here:

- `QAdditiveFunction`: the value table on [0, q), for any q;
- `DigitWeightFunction`: for q = p^lambda, f(n) = sum_j n_j *
  w_{j mod lambda} over the base-p digits n_j of n, kept by its lambda
  weights, with no table (the construction of `construction` is one).

For a k-tuple of such functions on pairwise coprime bases, the joint
residue counts |{n < N : f_i(n) = a_i mod m_i for all i}| match the
uniform main term N/(m_1...m_k) up to O(N^(1-delta)) under gcd
hypotheses on the invariants

    F = f(1),
    d = gcd(m, (q-1)*F, f(r) - r*F for 2 <= r <= q-1),

a result of Kim on joint distributions of q-additive functions.
`check_system` evaluates exactly those hypotheses on (function, modulus)
pairs, deriving each (F, d) itself (in closed form for a weight
function), and `kim_error_exponent` the accompanying exponent
delta = 1/(120 k^2 q^3 m^2).

`evaluate_range` computes f on a range with the parts that compute e_p
in `exponents`: every table is a digit fold (`_fold`), its arguments are
checked by the same rule (`_check_range`), and the range is written by
the same block writer (`_write_blocks`), from a table of f on a block
and one offset per block.  What differs is where the tables and offsets
come from:

- a value table's tile on [0, Q), Q = q^j, is folded out of the table
  and kept with f, and its block offsets come from the offset recursion
  (`_tiled_offsets`) at weight 0, since f(A*Q + b) = f(b) + f(A);
- a weight function's table comes from its own digit rows d*w_j: the
  (m, p^s) row table of `exponents._row_table` where `_row_span` gives
  one, else its tile on [0, `_tile_span(p)`).  Block A of span p^s has
  offset f(A*p^s) = sum_i A_i*w_{(i+s) mod lambda}, read off small
  cached tables of groups of base-p digits of A.  Nothing depends on q,
  so no table of p^lambda entries is built.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import gcd

import numpy as np

from .exponents import (
    _check_range,
    _digit_rows,
    _fold,
    _residue_dtype,
    _row_span,
    _row_table,
    _shift,
    _shifted_tiles,
    _tile_span,
    _tiled_offsets,
    _write_blocks,
)
from .primes import _U63, _U64

# Value tables are stored eagerly; the cap keeps memory bounded and makes
# oversized bases fail loudly instead of thrashing.  `build_function` still
# refuses a base q = p^lambda past it, though it builds no table.
TABLE_CAP = 1 << 24

# entries of the value table reduced at a time by _value_tile
_PIECE = 1 << 13
# A weight function's block offsets read the base-p digits of a block
# index in groups of g, off tables of p^g entries, p^g the largest power
# of p at most this (or p): a few lookups per run of p^g blocks.
_DIGIT_GROUP = 1 << 12


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


@dataclass(frozen=True)
class DigitWeightFunction:
    """The completely p^lambda-additive function f(n) = sum_j n_j *
    weights[j mod lambda] over the base-p digits n_j of n, lambda =
    len(weights), kept by its weights alone: no value table.  Each
    d*weights[j] for a digit d < p must fit int64."""

    p: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"digit base must be >= 2, got {self.p}")
        weights = tuple(int(w) for w in self.weights)
        if not weights:
            raise ValueError("a weight function needs at least one weight")
        if any(abs(w) * (self.p - 1) >= _U63 for w in weights):
            raise ValueError("every digit times its weight must fit int64")
        object.__setattr__(self, "weights", weights)

    @property
    def q(self) -> int:
        return self.p ** len(self.weights)

    def evaluate(self, n: int) -> int:
        """Sum digit times folded weight over the base-p digits of n, exactly."""
        if n < 0:
            raise ValueError(f"n must be nonnegative, got {n}")
        acc, j = 0, 0
        while n:
            n, d = divmod(n, self.p)
            acc += d * self.weights[j % len(self.weights)]
            j += 1
        return acc

    __call__ = evaluate

    def _rotated(self, r: int, count: int) -> tuple[int, ...]:
        """The weights of digits r, r + 1, ..., r + count - 1: weights[(r
        + i) mod lambda] for i < count."""
        return tuple(self.weights[(r + i) % len(self.weights)] for i in range(count))


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


@lru_cache(maxsize=16)
def _weight_table(f: DigitWeightFunction, mod: int | None) -> tuple[np.ndarray, int]:
    """(table, s): f's read-only table of blocks of p^s, reduced mod `mod`
    or, for None, int64.  Where `exponents._row_span(p, mod)` gives a
    span p^s, it is the (mod, p^s) `_row_table` of f's digit rows below
    digit s, whose row c is f on the block plus c; that is e_p's own
    `_shifted_tiles(p, mod)` where those digits carry e_p's weights
    (p^j - 1)/(p - 1), the same fold of the same rows.  Otherwise it is
    the tile of f on [0, p^s = _tile_span(p))."""
    span = None if mod is None else _row_span(f.p, mod)
    s = 0
    while f.p**s < (span or _tile_span(f.p)):
        s += 1
    weights = f._rotated(0, s)
    if span is None:
        table = _fold(_digit_rows(f.p, weights, mod), mod)
        table.flags.writeable = False
    elif weights == tuple((f.p**j - 1) // (f.p - 1) for j in range(s)):
        table = _shifted_tiles(f.p, mod)
    else:
        table = _row_table(_digit_rows(f.p, weights, mod), mod)
    return table, s


def _group_digits(p: int) -> int:
    """g, for the digit-group tables of p^g entries (`_DIGIT_GROUP`)."""
    g = 1
    while p ** (g + 1) <= _DIGIT_GROUP:
        g += 1
    return g


@lru_cache(maxsize=128)
def _digit_groups(f: DigitWeightFunction, mod: int | None, r: int) -> np.ndarray:
    """f's digit-group table at rotation r: sum_i G_i*weights[(r + i) mod
    lambda] over the g base-p digits G_i of G, for G < p^g (g =
    `_group_digits(p)`), int64 or reduced mod `mod`; read-only."""
    table = _fold(_digit_rows(f.p, f._rotated(r, _group_digits(f.p)), mod), mod)
    table.flags.writeable = False
    return table


def _block_offsets(f: DigitWeightFunction, a0: int, a1: int, s: int, mod: int | None) -> np.ndarray:
    """The offsets f(A*p^s) = sum_i A_i*weights[(s + i) mod lambda] of the
    blocks A in [a0, a1) of span p^s, over the base-p digits A_i of A:
    int64, or reduced mod `mod` in `_residue_dtype(mod)`.  Group k of g
    digits of A reads the table `_digit_groups` of rotation (s + g*k) mod
    lambda.  A run of blocks that share every group but the lowest is a
    slice of the lowest group's table plus one scalar, the sum of the
    others read as Python ints, so no block index is an array and
    nothing overflows for any block below 2**63."""
    lam, g = len(f.weights), _group_digits(f.p)
    group = f.p**g
    low = _digit_groups(f, mod, s % lam)
    offsets = np.empty(a1 - a0, dtype=low.dtype)
    lo = a0
    while lo < a1:
        hi = min(a1, (lo // group + 1) * group)
        high, k, c = lo // group, 1, 0
        while high:
            high, digits = divmod(high, group)
            c += _digit_groups(f, mod, (s + g * k) % lam).item(digits)
            k += 1
        b = lo % group
        _shift(offsets[lo - a0 : hi - a0], low[b : b + hi - lo], c if mod is None else c % mod, mod)
        lo = hi
    return offsets


def _write_range(out: np.ndarray, f, start: int, mod: int | None) -> np.ndarray:
    """Write f(n), reduced mod `mod` or int64 for None, for n in [start,
    start + out.size) into `out` and return it, by
    `exponents._write_blocks`.  A `DigitWeightFunction` is written off
    `_weight_table(f, mod)` with the offsets of `_block_offsets`, a
    `QAdditiveFunction` off its tile with the offsets of
    `exponents._tiled_offsets` at weight 0.  Unchecked: out's dtype is the
    one `evaluate_range` returns, and the range sits below 2**63."""
    if isinstance(f, DigitWeightFunction):
        table, s = _weight_table(f, mod)
        span = table.shape[-1]
        offsets = _block_offsets(f, start // span, -(-(start + out.size) // span), s, mod)
    else:
        span = _tile_span(f.q)
        table = f._tiles.get(mod)
        if table is None:
            table = f._tiles[mod] = _value_tile(f, span, mod)
        offsets = _tiled_offsets(start // span, -(-(start + out.size) // span), span, table, 0, mod)
    return _write_blocks(out, start, span, table, offsets, mod)


def evaluate_range(f, start: int, stop: int, mod: int | None = None) -> np.ndarray:
    """f(n) for every n in [start, stop), f a `DigitWeightFunction` or a
    `QAdditiveFunction`: an int64 array, or with `mod` the residues in
    the narrowest unsigned dtype that holds 2*(mod - 1).

    A range is a run of blocks, each a table of f on a block plus its
    offset, written by `_write_range`.  A weight function's blocks come
    off a row table of its own digit rows, or a tile of f, and their
    offsets off tables of its digit groups, with no table of f on [0, q).
    A value table's blocks are of Q = `_tile_span(q)`, the largest power
    of q that is at most max(q, 2**16) (q**2 for 2**8 < q < 2**9): for
    n = A*Q + b with b < Q, f(n) = f(b) + f(A).  f(b) comes from a table
    of f on [0, Q) folded out of the value table and kept with f, one per
    modulus, and f(A) is the same kind of range one level of blocks up,
    as e_p's offsets are with its block weight.

    Without `mod` the values must fit int64.  With `mod` the tables are
    folded reduced, so only the reduced values need to fit.  The range
    must sit below 2**63, and so must the modulus
    (`exponents._check_range`).
    """
    _check_range(start, stop, mod)
    dtype = np.int64 if mod is None else _residue_dtype(mod)
    return _write_range(np.empty(stop - start, dtype=dtype), f, start, mod)


def derive_invariants(f, m: int) -> tuple[int, int]:
    """The pair (F, d) controlling residue behavior of f modulo m.

    F = f(1) and d = gcd(m, (q-1)F, f(r) - rF for 2 <= r <= q-1); the
    empty residual list at q = 2 leaves d = gcd(m, (q-1)F).  A value
    table is scanned over r; a weight function takes the closed form
    F = w_0 and d = gcd(m, (q-1)F, w_j - p^j F for 1 <= j < lambda), which
    for the construction is F = 0 and d = 1, since w_1 = 1.  The scan
    stops early once the gcd reaches 1, which later terms cannot change.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if isinstance(f, DigitWeightFunction):
        # f(r) - rF = sum_j r_j*(w_j - p^j*F) below q, and r = p^j picks
        # out one term, so those terms for 1 <= j < lambda give the same gcd
        F = f.weights[0]
        residuals = (w - f.p**j * F for j, w in enumerate(f.weights) if j)
    else:
        F = f.table.item(1)
        residuals = (f.table.item(r) - r * F for r in range(2, f.q))
    d = gcd(m, (f.q - 1) * F)
    for residual in residuals:
        if d == 1:
            break
        d = gcd(d, residual)
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
