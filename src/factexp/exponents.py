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

so a range is a run of blocks, each the same table of e_p on [0, P) plus
one block offset e_p(A*P), with no division per element.  Unreduced, the
table is cached as int64, each offset is an exact scalar
(`_block_exponent`) and the whole blocks are filled by one broadcast
add (`_tiled_range`).  With a modulus m the kernel works on residues
only, in the narrowest unsigned dtype that holds 2(m - 1), and reads
every block off a cached (m, P) table whose row c is the tile shifted
by c mod m (`_shifted_tiles`): past a few blocks, the blocks a range
touches are one row gather, by their offsets mod m, which come as one
array from the same kernel on the P-times-shorter range of block
indices (`_block_residues`), and the range is a view of them.  So a
reduced range costs a fixed number of numpy calls whatever its length.  A modulus whose table would have
rows shorter than `_SHORT_ROW` within the `_ROW_TABLE` entry budget
adds the offsets to a reduced tile instead and subtracts m where a sum
reached it.  The tiles are built by the recurrence e_p(a*p + b) = a +
e_p(a) for b < p, the row tables by e_p(a*s + b) = a*(s - 1)/(p - 1) +
e_p(b) for a < p, b < s = p^j, with no division per element.

`write_exponent_hits` writes [e_p(n) = want (mod m)] on the same blocks:
block A is row offset(A) of the cached bool table `_shifted_tiles(p, m)
== want` (`_hit_rows`), so the whole blocks are one row gather into the
output, by offsets read off cached pages of `_PAGE` blocks, and the
partial blocks at either end are slice copies.  Without a row table it
compares the residues of `exponent_range` with want.
"""

from functools import lru_cache, partial

import numpy as np

from .primes import _U63, is_prime

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
# A reduced range that touches at most this many blocks takes their offsets
# as scalars: cheaper than the gather's offset array.
_SCALAR_BLOCKS = 4
# Wrap-around passes of the add-and-wrap route, histogram sums and coverage
# codes go in pieces of at most this many elements, so the allocator reuses
# one piece's temporaries for the next; at chunk size, megabyte temporaries
# go back to the system and are page-faulted in again, a varying number of
# times per run.
_PIECE = 1 << 16
# Pattern hits read the offsets of their blocks off cached pages of this
# many blocks (16 cached, 32 KiB each), so that most chunks compute none.
_PAGE = 1 << 12
# (dtype, largest value) in the order _residue_dtype tries them
_RESIDUE_DTYPES = tuple((np.dtype(t), np.iinfo(t).max) for t in (np.uint8, np.uint16, np.uint32))


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


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
        raise ValueError(f"n must be nonnegative, got {n}")
    e = 0
    while n:
        n //= p
        e += n
    return e


def _block_exponent(p: int, span: int, a: int) -> int:
    """e_p(a * span) for a power `span` of p: a*(span - 1)/(p - 1) + e_p(a),
    exact; the offset of block a of a range tiled by `span`."""
    return a * ((span - 1) // (p - 1)) + legendre_exponent(a, p)


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


def _tiled_range(start: int, stop: int, span: int, tile, offset, mod: int | None) -> np.ndarray:
    """Values on [start, stop) of a function g with g(A*span + b) =
    tile[b] + offset(A) for 0 <= b < span.

    `tile` is an array of the span values, or None when they are all 0;
    offset(A) is an exact Python int.  Without `mod` the result is int64.
    With `mod` the tile must hold residues in `_residue_dtype(mod)`, and
    the result comes back reduced in that dtype.  The range is a leading
    partial block, a run of whole blocks and a trailing partial block;
    the whole blocks are one (blocks, span) view of the result, filled by
    one broadcast call against the column of their offsets.
    """
    out = np.empty(stop - start, dtype=np.int64 if mod is None else _residue_dtype(mod))
    block_offset = offset if mod is None else (lambda a: offset(a) % mod)
    # the whole blocks are those of A in [first, last)
    first, last = -(-start // span), stop // span
    if first > last:
        partial = ((start, stop),)
    else:
        partial = ((start, first * span), (last * span, stop))
    if first < last:
        whole = out[first * span - start : last * span - start].reshape(last - first, span)
        offsets = np.fromiter(map(block_offset, range(first, last)), out.dtype, last - first)
        _shift(whole, tile, offsets.reshape(-1, 1), mod)
    for lo, hi in partial:
        if lo < hi:
            a, b = divmod(lo, span)
            part = None if tile is None else tile[b : b + hi - lo]
            _shift(out[lo - start : hi - start], part, block_offset(a), mod)
    return out


def _shift(out: np.ndarray, tile, offset, mod: int | None) -> None:
    """out = tile + offset, broadcast, for offsets already reduced below
    `mod`: where a sum reached mod, unsigned wrap-around makes sum - mod
    the larger one, so the minimum of the two subtracts mod exactly
    there.  The minimum runs in pieces of `_PIECE` elements, so no
    temporary grows with `out`, and skips every piece whose blocks all
    have offset 0: they hold tile residues.  `offset` is an int for a 1-D
    `out`, a column of offsets for the rows of a 2-D one."""
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


@lru_cache(maxsize=32)
def _exponent_tile(p: int, mod: int | None) -> np.ndarray:
    """e_p on [0, p^J) by the Legendre recurrence e_p(a*p + b) = a + e_p(a)
    for b < p, one base-p level per step: int64, or reduced mod `mod` in
    the dtype _tiled_range adds in."""
    span = _tile_span(p)
    tile = np.zeros(1, dtype=np.int64)
    while tile.size < span:
        tile = np.repeat(np.arange(tile.size, dtype=np.int64) + tile, p)
    if mod is not None:
        tile = (tile % mod).astype(_residue_dtype(mod))
    tile.flags.writeable = False
    return tile


@lru_cache(maxsize=16)
def _shifted_tiles(p: int, mod: int) -> np.ndarray | None:
    """The read-only (mod, span) table, in `_residue_dtype(mod)`, whose row
    c is (e_p(b) + c) mod `mod` for b in [0, span), span the largest power
    of p with mod*span <= _ROW_TABLE; None when that span is below
    _SHORT_ROW.  Built in the residue dtype, one base-p level per step:
    e_p(a*s + b) = a*(s - 1)/(p - 1) + e_p(b) for a < p and b < s = p^j,
    each level one broadcast add and one wrap, and the rows the same."""
    span = p
    while mod * span * p <= _ROW_TABLE:
        span *= p
    if mod * span > _ROW_TABLE or span < _SHORT_ROW:
        return None
    dtype = _residue_dtype(mod)
    tile = np.zeros(1, dtype=dtype)
    while tile.size < span:
        weight = (tile.size - 1) // (p - 1) % mod
        tile = np.add.outer((np.arange(p) * weight % mod).astype(dtype), tile).ravel()
        np.minimum(tile, tile - mod, out=tile)
    rows = np.add.outer(np.arange(mod, dtype=dtype), tile)
    np.minimum(rows, rows - mod, out=rows)
    rows.flags.writeable = False
    return rows


def _gathered_range(start: int, stop: int, p: int, mod: int, rows: np.ndarray) -> np.ndarray:
    """e_p mod `mod` on [start, stop) read off `_shifted_tiles(p, mod)`:
    block A of span = rows.shape[1] elements is row e_p(A*span) mod `mod`.
    A range that touches at most _SCALAR_BLOCKS blocks copies a slice of
    each block's row at a scalar `_block_exponent` offset.  Past that the
    offsets of all blocks it touches are one array (`_block_residues`),
    and the blocks one `np.take` of rows: the range is a view of them, at
    most two partial blocks shorter, so that one call (one release of the
    GIL) writes it all."""
    span = rows.shape[1]
    a0, a1 = start // span, -(-stop // span)
    if a1 - a0 <= _SCALAR_BLOCKS:
        out = np.empty(stop - start, dtype=rows.dtype)
        for a in range(a0, a1):
            lo, hi = max(start, a * span), min(stop, a * span + span)
            out[lo - start : hi - start] = rows[_block_exponent(p, span, a) % mod, lo - a * span : hi - a * span]
        return out
    blocks = np.take(rows, _block_residues(a0, a1, p, span, mod), axis=0)
    return blocks.reshape(-1)[start - a0 * span : stop - a0 * span]


def _block_residues(a0: int, a1: int, p: int, span: int, mod: int) -> np.ndarray:
    """e_p(A*span) mod `mod` for the blocks A in [a0, a1) of a range tiled
    by a power `span` of p, as one intp array: A*(span - 1)/(p - 1) + e_p(A),
    with e_p(A) mod `mod` from `exponent_range` on the block indices."""
    # a count times a weight below mod stays far inside int64
    weight = (span - 1) // (p - 1)
    offsets = np.arange(a1 - a0, dtype=np.intp)
    offsets *= weight % mod
    offsets += a0 * weight % mod
    offsets += exponent_range(a0, a1, p, mod)
    offsets %= mod
    return offsets


def exponent_range(start: int, stop: int, p: int, mod: int | None = None) -> np.ndarray:
    """e_p(n) for every n in [start, stop): an int64 array, or with `mod`
    the residues in the narrowest unsigned dtype that holds 2*(mod - 1).

    For n = A*P + b with b < P, e_p(n) = e_p(b) + A*(P - 1)/(p - 1) + e_p(A).
    With `mod`, P is the largest power of p whose `mod` rows fit the
    _ROW_TABLE budget of `_shifted_tiles`, and the blocks of the range are
    one row gather from that cached table by their offsets mod `mod`
    (`_gathered_range`); past a few blocks the result is then a view of
    the gathered blocks, at most two partial blocks longer than the range.
    Without `mod`, or when those rows would be
    shorter than _SHORT_ROW, P = `_tile_span(p)`, the largest power of p
    that is at most max(p, 2**16) (p**2 for 2**8 < p < 2**9): e_p(b) comes
    from a cached table (for p > 2**16 it is 0, and no table exists), the
    offset e_p(A*P) exactly from `_block_exponent`, and with `mod` the
    table is reduced and m subtracted where a sum reaches it
    (`_tiled_range`).  The range must sit below 2**63, so every value fits
    int64, and so must the modulus.
    """
    _require_prime(p)
    if mod is not None and mod < 2:
        raise ValueError(f"modulus must be >= 2, got {mod}")
    if start < 0 or stop < start:
        raise ValueError(f"bad range [{start}, {stop})")
    if stop >= _U63:
        raise ValueError(f"range end must stay below 2**63, got {stop}")
    rows = None if mod is None else _shifted_tiles(p, mod)
    if rows is not None:
        return _gathered_range(start, stop, p, mod, rows)
    span = _tile_span(p)
    tile = _exponent_tile(p, mod) if p <= _TILE else None
    return _tiled_range(start, stop, span, tile, partial(_block_exponent, p, span), mod)


@lru_cache(maxsize=16)
def _offset_page(p: int, span: int, mod: int, page: int) -> np.ndarray:
    """`_block_residues` of the blocks [page * _PAGE, (page + 1) * _PAGE),
    read-only."""
    offsets = _block_residues(page * _PAGE, (page + 1) * _PAGE, p, span, mod)
    offsets.flags.writeable = False
    return offsets


def _paged_residues(a0: int, a1: int, p: int, span: int, mod: int) -> np.ndarray:
    """`_block_residues(a0, a1, p, span, mod)`, a view of a cached page
    unless the blocks cross into another page."""
    page = a0 // _PAGE
    if (a1 - 1) // _PAGE > page:
        return _block_residues(a0, a1, p, span, mod)
    return _offset_page(p, span, mod, page)[a0 - page * _PAGE : a1 - page * _PAGE]


@lru_cache(maxsize=16)
def _hit_rows(p: int, mod: int, want: int) -> np.ndarray | None:
    """The read-only bool table `_shifted_tiles(p, mod) == want`: row c
    holds the hits of a block whose offset is c mod `mod`.  None where
    `_shifted_tiles` has no table."""
    rows = _shifted_tiles(p, mod)
    if rows is None:
        return None
    hits = rows == want
    hits.flags.writeable = False
    return hits


def write_exponent_hits(out: np.ndarray, start: int, p: int, mod: int, want: int) -> None:
    """Write [e_p(n) = want (mod `mod`)] for n in [start, start + out.size)
    into the bool array `out`.  Block A of span = `_shifted_tiles(p, mod)`
    columns is row e_p(A*span) mod `mod` of `_hit_rows(p, mod, want)`, so
    the whole blocks are one row gather by their offsets (`_paged_residues`)
    into a 2-D view of `out`, and the partial blocks at either end slice
    copies.  Where there is no row table, the residues of `exponent_range`
    are compared with `want`.  Unchecked: p prime, 0 <= want < mod, n < 2**63."""
    size = out.size
    hits = _hit_rows(p, mod, want)
    if hits is None:
        np.equal(exponent_range(start, start + size, p, mod), want, out=out)
        return
    span = hits.shape[1]
    rs = _paged_residues(start // span, -(-(start + size) // span), p, span, mod)
    # out is a partial block, the whole blocks, and another partial block
    head = min(-start % span, size)
    count = (size - head) // span
    skip = int(head > 0)
    # mode="clip" writes straight into out; the default buffers it
    np.take(hits, rs[skip : skip + count], axis=0, mode="clip",
            out=out[head : head + count * span].reshape(count, span))
    for lo, hi, r in ((0, head, rs[0]), (head + count * span, size, rs[-1])):
        if lo < hi:
            b = (start + lo) % span
            out[lo:hi] = hits[r, b : b + hi - lo]
