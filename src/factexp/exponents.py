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
splits n = A*S + b with b < S = p^J and uses

    e_p(n) = e_p(b) + A*(S - 1)/(p - 1) + e_p(A),

so a range is a run of blocks, each the same table of e_p on [0, S) plus
one block offset e_p(A*S), with no division per element.  A completely
q-additive function f is a run of blocks too, and
`qadditive.evaluate_range` runs on the same parts, with f's own tables
and offsets:

- `_fold` builds every table, one digit level per broadcast add (and,
  with a modulus, one wrap), from digit rows d*w_j (`_digit_rows`): the
  e_p tile from the weights (p^j - 1)/(p - 1) (`_exponent_rows`), an
  (m, S) row table from a function's rows under a top level of the
  residues c, so that its row c is the tile shifted by c mod m
  (`_row_table`; e_p's is `_shifted_tiles`), and f's tables from f's
  digit values or weights.
- `_write_blocks` writes a range from a table and one offset per block.
  With a row table, block A is the row of its offset: the whole blocks
  are one row gather, the partial blocks at either end slice copies.
  With a tile, block A is the tile plus its offset, and m is subtracted
  where a sum reached it (`_shift`).
- `_tiled_offsets` gives the offsets of a run of blocks: block A's is
  A*w + g(A), and g on the block indices is the same kind of range one
  level of blocks up, written by `_write_blocks` from the same table,
  down to block 0, whose offset is 0.  A value table of f takes it at
  weight 0, f(A*S + b) = f(b) + f(A); f by its digit weights reads its
  offsets off tables of its own (`qadditive._block_offsets`).

The entry points reach those parts through three helpers:

- `_check_range` refuses a modulus below 2 and a range that is not
  0 <= start <= stop < 2**63, for `exponent_range` and `evaluate_range`
  alike.
- `_tiled_range` writes a range off a tile: the offsets from
  `_tiled_offsets`, then `_write_blocks`.  It is e_p's route without a
  row table (weight (S - 1)/(p - 1)).
- `_gathered` writes a range off an (m, S) row table: the offsets from
  cached pages of `_PAGE` blocks (`_paged`), then `_write_blocks`.  It
  is e_p's route with a row table and the bool route of `write_hits`.

Unreduced, e_p is tiled by an int64 tile of `_tile_span(p)` entries.
With a modulus m the kernel works on residues only, in the narrowest
unsigned dtype that holds 2(m - 1), and reads its blocks off the cached
row table through `_gathered`; so a reduced range costs a fixed number
of numpy calls whatever its length.  A modulus whose table would have
rows shorter than `_SHORT_ROW` within the `_ROW_TABLE` entry budget
adds its offsets to a reduced tile instead.

`write_hits` is the one hit writer: [e_p(n) = want (mod m)] as packed
little-endian 64-bit words from the byte of a range's start, written
into a caller's buffer of `hit_bytes` bytes.  For m <= 3 and p <=
min(1024, 2**21 / m**8) (`gathers_words`: p <= 1021 mod 2, p <= 317 mod
3) they are one row gather from the cached (m**8, S) table
`_group_table(p, m)`: eight blocks of span S fill S whole bytes, and
their bits depend only on the eight block offsets mod m, so the table
holds every group of eight blocks, packed, one row per base-m code of
the eight offsets, read off cached pages of `_PAGE` groups
(`_code_page`, by `_tiled_offsets` mod m); S is the largest power of p
with S <= 1024 and m**8 * S <= 2**21, so 16 cached tables take at most
32 MiB.  Row c holds the hits of want 1, and want w reads the code whose
every digit is moved up by 1 - w (`_digit_shift`).  Any other pair
writes a bool per n and packs them: through `_gathered` on one cached
bool table per (p, m), `_hit_rows(p, m)` = `_shifted_tiles(p, m) == 1`,
whose row c is the hits of want 1 in a block of offset c, so a block of
offset o reads the hits of want w off row (o + 1 - w) mod m; or, without
a row table, by comparing the residues of `exponent_range` with want.
"""

from functools import lru_cache

import numpy as np

from .primes import _U63, _shown, is_prime

# Range kernels tile by the largest power of the base that is at most
# this, or by the base itself when it is larger; a base below _SQUARED
# tiles by at least its square (at most 2**18 entries), so that a base
# just above 2**8 does not split a range into one block per base.
_TILE = 1 << 16
_SQUARED = 1 << 9
# A reduced range gathers its blocks from a table of m rows of the largest
# power of p that keeps it within this many entries (16 cached, 4 MiB at
# most in uint8, 8 MiB in uint16); past that, or with rows shorter than
# _SHORT_ROW, where a row gather is slower per element than an add and a
# wrap, it takes the add-and-wrap route.
_ROW_TABLE = 1 << 18
_SHORT_ROW = 1 << 6
# Wrap-around passes of the add-and-wrap route, histogram sums and coverage
# codes go in pieces of at most this many elements, so the allocator reuses
# one piece's temporaries for the next; at chunk size, megabyte temporaries
# go back to the system and are page-faulted in again, a varying number of
# times per run.
_PIECE = 1 << 16
# Reduced ranges and pattern hits read the offsets of their blocks off
# cached pages of this many blocks, in the residue dtype of the row table
# (16 cached, 4 KiB each in uint8, 8 KiB in uint16), so that most chunks
# compute none.
_PAGE = 1 << 12
# Tables of eight-block groups (see write_hits) take blocks of at most
# _GROUP_SPAN numbers in at most _GROUP_TABLE bytes (16 cached, 32 MiB at
# most); a group gather of packed words writes at most _GROUP_SLACK bytes
# past them: up to two groups of eight blocks of which it uses part, and
# a word of alignment.  Their code pages (128 cached, 8 KiB each) hold
# every page a scan of a few primes to 2**24 reads.
_GROUP_SPAN, _GROUP_TABLE = 1 << 10, 1 << 21
_GROUP_SLACK = 2 * _GROUP_SPAN + 8
# (dtype, largest value) in the order _residue_dtype tries them
_RESIDUE_DTYPES = tuple((np.dtype(t), np.iinfo(t).max) for t in (np.uint8, np.uint16, np.uint32))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {_shown(p)}")


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n."""
    if p < 2:
        raise ValueError(f"base must be >= 2, got {p}")
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
        raise ValueError(f"n must be nonnegative, got {_shown(n)}")
    e = 0
    while n:
        n //= p
        e += n
    return e


def _tile_span(base: int) -> int:
    """The largest power of base that is at most max(base, _TILE), or
    base**2 when that is larger and base < 2**9."""
    span = base * base if base < _SQUARED else base
    while span * base <= _TILE:
        span *= base
    return span


def _residue_dtype(mod: int) -> np.dtype:
    """The narrowest unsigned dtype that holds 2*(mod - 1), the largest
    sum of two residues mod `mod`."""
    for dtype, top in _RESIDUE_DTYPES:
        if 2 * (mod - 1) <= top:
            return dtype
    if mod >= _U63:
        raise OverflowError(f"modulus must stay below 2**63, got {mod}")
    return np.dtype(np.uint64)


def _fold(rows, mod: int | None = None) -> np.ndarray:
    """sum_j rows[j][n_j] over the mixed-radix digits n_j of n, digit j
    running over len(rows[j]) with rows[0] the lowest, for every n below
    the product of the lengths: one digit level on top at a time.  With
    `mod` the rows hold residues in `_residue_dtype(mod)`, reduced at
    every level so only reduced values need to fit."""
    tile = rows[0]
    for row in rows[1:]:
        tile = (row[:, None] + tile).ravel()
        if mod is not None:
            np.minimum(tile, tile - mod, out=tile)
    return tile


def _digit_rows(p: int, weights, mod: int | None) -> list:
    """The digit rows of base-p digit weights, for `_fold`: row j is
    d*weights[j] for the digits d < p, int64 (so each must fit), or
    reduced mod `mod` into `_residue_dtype(mod)`."""
    rows = [np.arange(p, dtype=np.int64) * w for w in weights]
    return rows if mod is None else [(row % mod).astype(_residue_dtype(mod)) for row in rows]


def _exponent_rows(p: int, span: int, mod: int | None) -> list:
    """The digit rows whose `_fold` is e_p on [0, span), span a power of p:
    the rows of the weights (p^j - 1)/(p - 1) for p^j < span.  Every entry
    is below span."""
    weights = []
    while p ** len(weights) < span:
        weights.append((p ** len(weights) - 1) // (p - 1))
    return _digit_rows(p, weights, mod)


def _shift(out: np.ndarray, tile, offset, mod: int | None) -> None:
    """out = tile + offset, broadcast, for offsets already reduced below
    `mod`: where a sum reached mod, unsigned wrap-around makes sum - mod
    the larger one, so the minimum of the two subtracts mod exactly
    there.  The minimum runs in pieces of `_PIECE` elements, so no
    temporary grows with `out`, and skips every piece whose blocks all
    have offset 0: they hold tile residues.  `offset` is an int for a 1-D
    `out`, a column of offsets for the rows of a 2-D one; a tile of None
    stands for all 0s."""
    if tile is None:
        out[...] = offset
    else:
        np.add(tile, offset, out=out)
        if mod is not None:
            live = (offset != 0).ravel().tolist() if out.ndim == 2 else [offset]
            width = out.shape[-1]
            flat = out.reshape(-1)
            for i in range(0, flat.size, _PIECE):
                j = min(i + _PIECE, flat.size)
                if any(live[i // width : (j - 1) // width + 1]):
                    piece = flat[i:j]
                    np.minimum(piece, piece - mod, out=piece)


def _write_blocks(out: np.ndarray, start: int, span: int, table, offsets: np.ndarray,
                  mod: int | None) -> np.ndarray:
    """Write into `out` the values on [start, start + out.size) whose block
    A of `span` elements has offset offsets[A - start // span], and return
    it.  A 2-D `table` has one row of block values per offset (span =
    table.shape[1]): the whole blocks are one row gather into a 2-D view
    of `out`.  Otherwise `table` is a tile of span values (None for all
    0s) and a block is the tile plus its offset, reduced below `mod`
    (`_shift`): the whole blocks are one broadcast add against the column
    of their offsets.  The partial blocks at either end are slices.  An
    empty `out` reads no offset (it has none at a block start)."""
    size = out.size
    head = min(-start % span, size)
    count = (size - head) // span
    skip = int(head > 0)
    rows = table is not None and table.ndim == 2
    # a take of no rows costs as much as a short range's copies
    if count:
        whole = out[head : head + count * span].reshape(count, span)
        picked = offsets[skip : skip + count]
        if rows:
            # mode="clip" writes straight into out; the default buffers it
            np.take(table, picked, axis=0, mode="clip", out=whole)
        else:
            _shift(whole, table, picked.reshape(-1, 1), mod)
    for lo, hi, i in ((0, head, 0), (head + count * span, size, -1)):
        if lo < hi:
            b = (start + lo) % span
            if rows:
                out[lo:hi] = table[offsets[i], b : b + hi - lo]
            else:
                _shift(out[lo:hi], None if table is None else table[b : b + hi - lo], offsets[i], mod)
    return out


def _tiled_offsets(a0: int, a1: int, span: int, table, weight: int, mod: int | None) -> np.ndarray:
    """The offsets g(A*span) = A*weight + g(A) of the blocks A in [a0, a1)
    of the function g with g(A*span + b) = g(b) + A*weight + g(A) for
    b < span, whose values on [0, span) `table` holds as `_write_blocks`
    reads it: int64, or reduced mod `mod` in `_residue_dtype(mod)`.  g(A)
    on the block indices is that writer's range on the same table, with
    the offsets of the blocks one level up, down to block 0, whose offset
    is 0.  Weight 0 gives the offsets of a completely q-additive g."""
    dtype = np.dtype(np.int64) if mod is None else _residue_dtype(mod)
    if a1 <= 1:
        return np.zeros(a1 - a0, dtype=dtype)
    upper = _tiled_offsets(a0 // span, -(-a1 // span), span, table, weight, mod)
    offsets = _write_blocks(np.empty(a1 - a0, dtype=dtype), a0, span, table, upper, mod)
    if weight:
        # A*weight <= e_p(A*span) < A*span, a block start below 2**63
        steps = np.arange(a0 * weight, a1 * weight, weight, dtype=np.int64)
        if mod is None:
            offsets += steps
        else:
            steps %= mod
            offsets += steps.astype(dtype, copy=False)
            np.minimum(offsets, offsets - mod, out=offsets)
    return offsets


@lru_cache(maxsize=32)
def _exponent_tile(p: int, mod: int | None) -> np.ndarray:
    """e_p on [0, _tile_span(p)), folded out of its digit rows: int64, or
    reduced mod `mod` in `_residue_dtype(mod)`; read-only."""
    tile = _fold(_exponent_rows(p, _tile_span(p), mod), mod)
    tile.flags.writeable = False
    return tile


def _table_span(p: int, cap: int) -> int:
    """The largest power of p that is at most cap, or p when even p is
    larger."""
    span = p
    while span * p <= cap:
        span *= p
    return span


def _row_span(p: int, mod: int) -> int | None:
    """The row length of a (mod, span) row table of a function on base-p
    digits: the largest power of p with mod*span <= _ROW_TABLE, or None
    when there is none or it is below _SHORT_ROW."""
    span = _table_span(p, _ROW_TABLE // mod)
    return None if mod * span > _ROW_TABLE or span < _SHORT_ROW else span


def _row_table(rows: list, mod: int) -> np.ndarray:
    """The read-only (mod, span) table whose row c is (g(b) + c) mod `mod`
    for b in [0, span), g the `_fold` of the reduced digit `rows`: their
    fold with the residues c as the top level."""
    levels = rows + [np.arange(mod, dtype=_residue_dtype(mod))]
    table = _fold(levels, mod).reshape(mod, -1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _shifted_tiles(p: int, mod: int) -> np.ndarray | None:
    """The read-only (mod, span) table, in `_residue_dtype(mod)`, whose row
    c is (e_p(b) + c) mod `mod` for b in [0, span), span = `_row_span(p,
    mod)`; None where that is None.  The `_row_table` of the digit rows of
    e_p on [0, span)."""
    span = _row_span(p, mod)
    return None if span is None else _row_table(_exponent_rows(p, span, mod), mod)


def _check_range(start: int, stop: int, mod: int | None) -> None:
    """Refuse a modulus below 2 and a range [start, stop) that is not
    0 <= start <= stop < 2**63, the rule of every range kernel."""
    if mod is not None and mod < 2:
        raise ValueError(f"modulus must be >= 2, got {mod}")
    if start < 0 or stop < start:
        raise ValueError(f"bad range [{start}, {stop})")
    if stop >= _U63:
        raise ValueError(f"range end must stay below 2**63, got {stop}")


def _tiled_range(start: int, stop: int, span: int, tile, weight: int, mod: int | None) -> np.ndarray:
    """The values on [start, stop) of the function g with g(A*span + b) =
    g(b) + A*weight + g(A) for b < span, whose values on [0, span) the 1-D
    `tile` holds (None for all 0s): the block offsets from
    `_tiled_offsets`, written by `_write_blocks`, int64 or reduced mod
    `mod` in `_residue_dtype(mod)`."""
    offsets = _tiled_offsets(start // span, -(-stop // span), span, tile, weight, mod)
    return _write_blocks(np.empty(stop - start, dtype=offsets.dtype), start, span, tile, offsets, mod)


def _gathered(out: np.ndarray, start: int, p: int, mod: int, rows: np.ndarray,
              shift: int = 0) -> np.ndarray:
    """Write into `out` the rows of the (mod, span) table `rows` for n in
    [start, start + out.size): block A of span is row (e_p(A*span) +
    `shift`) mod `mod`, for 0 <= shift < mod, its offset read off cached
    pages (`_paged`), written by `_write_blocks`; return `out`."""
    span = rows.shape[1]
    offsets = _paged(_offset_page, start // span, -(-(start + out.size) // span), p, mod)
    if shift:
        offsets = offsets + shift
        np.minimum(offsets, offsets - mod, out=offsets)
    return _write_blocks(out, start, span, rows, offsets, mod)


def exponent_range(start: int, stop: int, p: int, mod: int | None = None) -> np.ndarray:
    """e_p(n) for every n in [start, stop): an int64 array, or with `mod`
    the residues in the narrowest unsigned dtype that holds 2*(mod - 1).

    For n = A*S + b with b < S, e_p(n) = e_p(b) + A*(S - 1)/(p - 1) + e_p(A).
    With `mod`, S is the row length of `_shifted_tiles(p, mod)`, and the
    range is gathered from that table (`_gathered`): a range shorter than
    S as it is, a longer one as every block it touches, in one buffer of
    which the result is a view at most two partial blocks shorter.
    Without `mod`, or where there is no row table, S = `_tile_span(p)`,
    the largest power of p that is at most max(p, 2**16) (p**2 for 2**8 <
    p < 2**9), and the range is `_tiled_range` on a cached tile of e_p on
    [0, S) (for p > 2**16 it is 0, and no tile exists), reduced with
    `mod`.  The range must sit below 2**63, so every value fits int64, and
    so must the modulus (`_check_range`).
    """
    _require_prime(p)
    _check_range(start, stop, mod)
    if start == stop:
        # no block to read an offset for
        return np.empty(0, dtype=np.int64 if mod is None else _residue_dtype(mod))
    rows = None if mod is None else _shifted_tiles(p, mod)
    if rows is None:
        span = _tile_span(p)
        tile = _exponent_tile(p, mod) if p <= _TILE else None
        return _tiled_range(start, stop, span, tile, (span - 1) // (p - 1), mod)
    span = rows.shape[1]
    # a range shorter than a block is written as it is, not as the up to
    # two blocks it touches; a longer one is a view of all the blocks
    lo, hi = (start, stop) if stop - start < span else (start // span * span, -(-stop // span) * span)
    return _gathered(np.empty(hi - lo, dtype=rows.dtype), lo, p, mod, rows)[start - lo : stop - lo]


@lru_cache(maxsize=16)
def _offset_page(p: int, mod: int, a0: int, a1: int) -> np.ndarray:
    """The offsets e_p(A*span) mod `mod` of the blocks A in [a0, a1) of the
    row table `_shifted_tiles(p, mod)`, span its row length, read-only;
    cached for whole pages of `_PAGE` blocks."""
    rows = _shifted_tiles(p, mod)
    span = rows.shape[1]
    offsets = _tiled_offsets(a0, a1, span, rows, (span - 1) // (p - 1), mod)
    offsets.flags.writeable = False
    return offsets


def _paged(pages, a0: int, a1: int, *key) -> np.ndarray:
    """pages(*key, a0, a1) off the cached pages of `_PAGE` entries: a view
    of the page that holds [a0, a1), the two pages it crosses joined, or
    computed uncached when it reaches past them."""
    page = a0 // _PAGE * _PAGE
    if a1 - page <= _PAGE:
        return pages(*key, page, page + _PAGE)[a0 - page : a1 - page]
    if a1 - page <= 2 * _PAGE:
        return np.concatenate([_paged(pages, a0, page + _PAGE, *key),
                               _paged(pages, page + _PAGE, a1, *key)])
    return pages.__wrapped__(*key, a0, a1)


@lru_cache(maxsize=16)
def _hit_rows(p: int, mod: int) -> np.ndarray | None:
    """The read-only bool table `_shifted_tiles(p, mod) == 1`: row c holds
    the hits of want 1 in a block whose offset is c, so a block of offset
    o finds its hits of want w in row (o + 1 - w) mod `mod`.  None where
    `_shifted_tiles` has no table."""
    rows = _shifted_tiles(p, mod)
    if rows is None:
        return None
    hits = rows == 1
    hits.flags.writeable = False
    return hits


def _group_cap(mod: int) -> int:
    """The longest block of a table of eight-block groups mod `mod`."""
    return min(_GROUP_SPAN, _GROUP_TABLE // mod**8)


@lru_cache(maxsize=16)
def _group_table(p: int, mod: int) -> np.ndarray:
    """The read-only (mod**8, span) uint8 table of the hits of groups of
    eight blocks of span, the largest power of p with span <=
    `_group_cap(mod)` (for `gathers_words(p, mod)`): row c is [e_p(b) +
    c_i = 1 (mod `mod`)] for b in [0, span) of each block i of the group
    in turn, packed little-endian, for the eight offsets c_i, the base-mod
    digits of c, c_0 the lowest.  Eight blocks of any span fill whole
    bytes."""
    span = _table_span(p, _group_cap(mod))
    tile = _fold(_exponent_rows(p, span, mod), mod)
    # blocks[i, d]: the packed hits of block i at offset d, 0 elsewhere
    hits = tile == (1 - np.arange(mod)[:, None]) % mod
    blocks = np.eye(8, dtype=bool)[:, None, :, None] & hits[None, :, None, :]
    blocks = np.packbits(blocks.reshape(8, mod, 8 * span), axis=-1, bitorder="little")
    # the codes below mod**(i + 1) are those below mod**i with digit i
    # = 0, 1, ..., each ORed with block i at that offset
    table = np.zeros((1, span), dtype=np.uint8)
    for block in blocks:
        table = (block[:, None] | table).reshape(-1, span)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _digit_shift(mod: int, shift: int) -> np.ndarray:
    """The read-only codes of `_group_table` with every base-mod digit
    moved up by `shift`, mod `mod`, indexed by code."""
    digits = np.arange(mod**8)[:, None] // mod ** np.arange(8) % mod
    codes = ((digits + shift) % mod @ mod ** np.arange(8)).astype(np.uint16)
    codes.flags.writeable = False
    return codes


@lru_cache(maxsize=128)
def _code_page(p: int, mod: int, g0: int, g1: int) -> np.ndarray:
    """The uint16 codes of the groups g in [g0, g1) of `_group_table(p,
    mod)`: base-mod digit i is e_p((8g + i)*span) mod `mod`, the offset of
    block 8g + i, read-only; cached for whole pages of `_PAGE` groups."""
    span = _group_table(p, mod).shape[1]
    tile = _fold(_exponent_rows(p, span, mod), mod)
    offsets = _tiled_offsets(8 * g0, 8 * g1, span, tile, (span - 1) // (p - 1), mod)
    codes = offsets.reshape(-1, 8) @ (mod ** np.arange(8, dtype=np.uint16))
    codes.flags.writeable = False
    return codes


def gathers_words(p: int, mod: int) -> bool:
    """Whether `write_hits` gathers the hits of e_p mod `mod` as packed
    words straight from `_group_table(p, mod)`, with no bool per n: mod 2
    or 3, p <= 1024 and mod**8 * p <= 2**21 (p <= 1021 mod 2, p <= 317
    mod 3).  Otherwise it writes a bool per n and packs them."""
    return mod <= 3 and p <= _group_cap(mod)


def hit_bytes(size: int, p: int, mod: int) -> int:
    """The bytes of the uint8 buffer `write_hits` takes for `size` bits
    from the byte of a range's start: the words and the slack of a group
    gather where `gathers_words(p, mod)`, otherwise a bool per bit to a
    whole word."""
    words = -(-size // 64)
    return 8 * words + _GROUP_SLACK if gathers_words(p, mod) else 64 * words


def write_hits(buffer: np.ndarray, start: int, size: int, p: int, mod: int, want: int) -> np.ndarray:
    """[e_p(n) = want (mod `mod`)] for n in [start, start + size) as
    little-endian 64-bit words from the byte of start: bit i of word j for
    n = b + 64j + i, b = start - start % 8, with misses before start and
    after the range to a whole word, written into the uint8 `buffer` of at
    least `hit_bytes(size + start % 8, p, mod)` bytes.

    Where `gathers_words(p, mod)`, the words are a view of `buffer`: the
    rows of `_group_table(p, mod)` for the codes of the groups the range
    touches (`_code_page`), their digits moved up by 1 - want
    (`_digit_shift`), one gather placed so that the byte of b begins a
    word.  Otherwise the hits are written into
    `buffer` as bools and packed into a new array: `_gathered` on the
    table `_hit_rows(p, mod)`, a block of offset o reading row (o + 1 -
    want) mod `mod`, or where there is no row table the residues of
    `exponent_range` compared with want.  Unchecked: p prime, 0 <= want <
    mod, size >= 1, start + size < 2**63."""
    lead = start % 8
    bits = size + lead
    count = -(-bits // 64)
    if gathers_words(p, mod):
        table = _group_table(p, mod)
        span = table.shape[1]
        g0, g1 = start // (8 * span), -(-(start + size) // (8 * span))
        first = start // 8 - g0 * span
        pad = -first % 8
        codes = _paged(_code_page, g0, g1, p, mod)
        if want != 1:
            codes = _digit_shift(mod, (1 - want) % mod)[codes]
        whole = buffer[pad : pad + (g1 - g0) * span].reshape(-1, span)
        np.take(table, codes, axis=0, mode="clip", out=whole)
        words = buffer[pad + first : pad + first + 8 * count].view("<u8")
    else:
        mask = buffer[: 64 * count].view(bool)
        rows = _hit_rows(p, mod)
        if rows is None:
            np.equal(exponent_range(start, start + size, p, mod), want, out=mask[lead:bits])
        else:
            _gathered(mask[lead:bits], start, p, mod, rows, (1 - want) % mod)
        words = np.packbits(mask, bitorder="little").view("<u8")
    if lead:
        words[0] = int(words[0]) >> lead << lead
    if bits % 64:
        words[-1] &= (1 << bits % 64) - 1
    return words
