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
    _PAGE,
    _PIECE,
    _ROW_TABLE,
    _SHORT_ROW,
    _TILE,
    _exponent_tile,
    _hit_rows,
    _offset_page,
    _paged,
    _residue_dtype,
    _shifted_tiles,
    _tile_span,
    _tiled_offsets,
    _write_blocks,
    digit_sum,
    exponent_range,
    gathers_words,
    hit_bytes,
    legendre_exponent,
    write_hits,
)
from oracles import (ExponentStream, base_digits, blockwise_tiled_range, floor_sum_range,
                     packed_floor_sum_hits)

primes_st = st.sampled_from([2, 3, 5, 7, 11, 13, 47, 97])
# tile sizes 2^16, 3^10, 47^2, 97^2, 257^2, 509^2, and the prime itself
# above 2^16
tiled_primes_st = st.sampled_from([2, 3, 47, 97, 257, 509, 65537, 1000003])


# Moduli on each side of every residue dtype boundary, with the narrowest
# unsigned dtype that holds 2*(m - 1), the largest sum of two residues
RESIDUE_DTYPES = {2: np.uint8, 3: np.uint8, 127: np.uint8, 128: np.uint8,
                  129: np.uint16, 255: np.uint16, 256: np.uint16, 257: np.uint16,
                  2**15: np.uint16, 2**15 + 1: np.uint32, 2**16 + 1: np.uint32,
                  2**24: np.uint32}


def boundary_points(start: int, stop: int, span: int):
    """Both ends of [start, stop) and every n within one of a multiple of span."""
    points = {start, stop - 1} if start < stop else set()
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
    for d in base_digits(n, p):
        acc += d * w
        w = w * p + 1
    assert acc == legendre_exponent(n, p)


@given(st.integers(0, 10**12), st.integers(2, 50))
def test_base_digits_round_trip(n, b):
    digits = base_digits(n, b)
    assert sum(d * b**j for j, d in enumerate(digits)) == n
    assert sum(digits) == digit_sum(n, b)


def test_digit_expansion_canonical_form():
    assert base_digits(0, 7) == (0,)
    assert base_digits(7, 7) == (0, 1)


def test_len_counts_digits():
    assert len(base_digits(0, 2)) == 1
    assert len(base_digits(255, 2)) == 8


def test_prime_argument_enforced():
    with pytest.raises(ValueError):
        legendre_exponent(10, 4)
    with pytest.raises(ValueError):
        legendre_exponent(10, 1)
    with pytest.raises(ValueError):
        exponent_range(0, 10, 9)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        legendre_exponent(-1, 3)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)


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
    # empty ranges of a row-table modulus, at a block start (no block
    # touched) and inside a block, on offset pages 0, 3 and 7: none reads
    # an offset page or a hit table
    span = _shifted_tiles(3, 2).shape[1]
    pages, hits = _offset_page.cache_info(), _hit_rows.cache_info()
    for s in (0, span, 7 * span, 5, span + 11, 1000 * span + 7, 3 * _PAGE * span):
        got = exponent_range(s, s, 3, mod=2)
        assert got.size == 0 and got.dtype == np.uint8
    assert _offset_page.cache_info() == pages
    assert _hit_rows.cache_info() == hits
    with pytest.raises(ValueError):
        exponent_range(5, 4, 3)
    with pytest.raises(ValueError):
        exponent_range(-1, 4, 3)
    with pytest.raises(ValueError):
        exponent_range(0, 1 << 63, 3)
    with pytest.raises(ValueError):
        exponent_range(0, 10, 3, mod=1)


def test_tile_span_sizes():
    # bases up to 2^8 keep their largest power within 2^16; bases in
    # (2^8, 2^9) tile by their square; larger bases by themselves
    spans = {2: 2**16, 3: 3**10, 47: 47**2, 251: 251**2, 256: 256**2,
             257: 257**2, 509: 509**2, 521: 521, 65521: 65521, 65537: 65537}
    assert {b: _tile_span(b) for b in spans} == spans


@pytest.mark.parametrize("p", [2, 3, 5, 257, 263, 509, 521, 65521])
def test_recurrence_tile_is_the_floor_sum(p):
    # tiles of p^J <= 2^16, of p^2 for 2^8 < p < 2^9, and of p itself above
    want = floor_sum_range(0, _tile_span(p), p)
    tile = _exponent_tile(p, None)
    assert tile.dtype == np.int64 and not tile.flags.writeable
    assert np.array_equal(tile, want)
    for m in (2, 7, 1000, 2**31 + 1):
        reduced = _exponent_tile(p, m)
        assert reduced.dtype == _residue_dtype(m) and not reduced.flags.writeable
        assert np.array_equal(reduced, want % m)


@settings(max_examples=40)
@given(tiled_primes_st, st.integers(0, 2**40), st.integers(-3, 3), st.integers(2, 3),
       st.sampled_from([None, 2, 3, 10]), st.data())
def test_exponent_range_straddles_tiles(p, block, shift, blocks, mod, data):
    span = _tile_span(p)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = exponent_range(start, stop, p, mod=mod)
    want = floor_sum_range(start, stop, p)
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
    assert np.array_equal(got, floor_sum_range(2**62, 2**62 + 10**6, p) % 2)
    # the block boundary at 2p = 2^62 - 2, against the scalar route
    start = 2 * p - 5
    assert exponent_range(start, start + 10, p).tolist() == [
        legendre_exponent(n, p) for n in range(start, start + 10)
    ]


def block_offsets(start: int, stop: int, span: int, offset, mod) -> np.ndarray:
    """offset(A), reduced below mod, for every block A of span elements
    that [start, stop) touches, in the dtype of the range."""
    dtype = np.int64 if mod is None else _residue_dtype(mod)
    blocks = range(start // span, -(-stop // span))
    return np.array([offset(a) if mod is None else offset(a) % mod for a in blocks], dtype=dtype)


# every residue dtype: uint8 (2, 3), uint16 (129), uint32 (2^15 + 1)
# and uint64 (2^31 + 1, 2^63 - 1), and unreduced int64
KERNEL_MODS = [None, 2, 3, 129, 2**15 + 1, 2**31 + 1, 2**63 - 1]


@settings(max_examples=80)
@given(tiled_primes_st, st.sampled_from(KERNEL_MODS), st.integers(0, 80), st.data())
def test_tiled_range_equals_the_blockwise_loop(p, mod, blocks, data):
    # a leading partial block, 0 to about 80 whole blocks and a trailing
    # partial block, anywhere below 2^40; no tile above 2^16.  The shift
    # moves the offsets up to mod - 1, so sums come near 2(mod - 1).
    span = _tile_span(p)
    blocks = min(blocks, (1 << 21) // span)
    a, b = data.draw(st.integers(0, 2**40 // span)), data.draw(st.integers(0, span - 1))
    start = a * span + b
    stop = (a + blocks) * span + data.draw(st.integers(0 if blocks else b, span - 1))
    tile = _exponent_tile(p, mod) if p <= _TILE else None
    weight = (span - 1) // (p - 1)
    shift = 0 if mod is None else data.draw(st.integers(0, mod - 1))
    offsets = block_offsets(start, stop, span, lambda a: a * weight + legendre_exponent(a, p) + shift, mod)
    got = _write_blocks(np.empty(stop - start, offsets.dtype), start, span, tile, offsets, mod)
    want = blockwise_tiled_range(start, stop, span, tile, offsets, mod)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for n in boundary_points(start, stop, span):
        e = legendre_exponent(n, p) + shift
        assert got[n - start] == (e if mod is None else e % mod)


@pytest.mark.parametrize("mod", [3, 129, 2**31 + 1])
def test_tiled_range_wraps_every_piece_that_holds_a_nonzero_offset(mod):
    # runs of 200 blocks of 1000 with offset 0 alternate with runs of
    # nonzero offsets, so some pieces lie inside a zero run, are skipped,
    # and others straddle a run boundary; the tile's residues reach mod - 1
    span = 1000
    tile = (np.arange(span) * 7919 % mod).astype(_residue_dtype(mod))

    start, stop = 3 * span + 17, 1200 * span - 5
    offsets = block_offsets(start, stop, span, lambda a: 0 if a // 200 % 2 == 0 else mod - 1 - a % 5, mod)
    got = _write_blocks(np.empty(stop - start, offsets.dtype), start, span, tile, offsets, mod)
    want = blockwise_tiled_range(start, stop, span, tile, offsets, mod)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("m", [3, 2**31 + 1])
def test_exponent_range_allocates_the_output_and_one_piece(m):
    # Mod 3 the blocks the range touches are gathered from the row table into
    # the buffer the output views, at most two partial blocks longer, and the
    # only other array is the offset array, one intp per block (plus the
    # block range's own residues); 4 KiB covers Python objects, so a buffer
    # of the chunk's size fails it.  Mod 2^31 + 1 has no row table, and the
    # wrap pass's temporaries are one piece each.
    start, stop = 5 << 20, 6 << 20
    exponent_range(start, stop, 7, mod=m)  # the cached table or tile
    tracemalloc.start()
    try:
        got = exponent_range(start, stop, 7, mod=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = _shifted_tiles(7, m)
    if rows is None:
        assert got.base is None
        extra = _PIECE * got.itemsize
    else:
        span = rows.shape[1]
        buffer = got.base.nbytes
        assert got.nbytes <= buffer <= got.nbytes + 2 * span * got.itemsize
        extra = buffer - got.nbytes + ((stop - start) // span + 2) * (np.dtype(np.intp).itemsize + got.itemsize)
    assert peak < got.nbytes + extra + (1 << 12)
    assert np.array_equal(got, floor_sum_range(start, stop, 7) % m)


def row_table_moduli(p: int) -> list[int]:
    """For every power s of p that some modulus m >= 2 makes the row span
    (the largest s with m*s <= _ROW_TABLE), the least and the largest
    such m; then the least m with no span, just past the budget."""
    moduli, s = set(), p
    while 2 * s <= _ROW_TABLE:
        moduli.update(m for m in (max(2, _ROW_TABLE // (s * p) + 1), _ROW_TABLE // s) if m >= 2)
        s *= p
    return sorted(moduli | {_ROW_TABLE // p + 1})


ROW_MODULI = [(p, m) for p in (2, 3, 257, 65537) for m in row_table_moduli(p)]


def test_row_table_moduli_reach_every_span_and_both_routes():
    spans = {}
    for p, m in ROW_MODULI:
        rows = _shifted_tiles(p, m)
        spans.setdefault(p, set()).add(None if rows is None else rows.shape[1])
    assert spans[2] == {None} | {2**j for j in range(6, 18)}
    assert spans[3] == {None} | {3**j for j in range(4, 11)}
    assert spans[257] == {None, 257, 257**2}
    assert spans[65537] == {None, 65537}


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4096), (3, 3), (7, 16), (11, 64), (257, 3), (65537, 3)])
def test_shifted_tiles_are_the_reduced_tile_shifted_by_every_residue(p, m):
    rows = _shifted_tiles(p, m)
    span = rows.shape[1]
    assert rows.shape[0] == m and span >= _SHORT_ROW and m * span <= _ROW_TABLE < m * span * p
    assert rows.dtype == _residue_dtype(m) and not rows.flags.writeable
    want = (floor_sum_range(0, span, p) + np.arange(m)[:, None]) % m
    assert np.array_equal(rows, want)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ROW_MODULI), st.integers(0, 2**62), st.integers(0, 6), st.data())
def test_gathered_exponent_range_is_the_floor_sum_mod_m(pm, start, blocks, data):
    # every row span the budget allows for p = 2, 3, 257 and 65537, and the
    # modulus just past it; widths from one element to a few blocks, so
    # ranges of one to seven blocks, with and without whole blocks, are
    # gathered, and the block offsets come off pages and, near 2^62, from
    # the recursion down to block 0
    p, m = pm
    rows = _shifted_tiles(p, m)
    span = _tile_span(p) if rows is None else rows.shape[1]
    stop = start + blocks * span + data.draw(st.integers(1, span))
    got = exponent_range(start, stop, p, mod=m)
    assert got.dtype == _residue_dtype(m)
    assert np.array_equal(got, floor_sum_range(start, stop, p) % m)


@settings(max_examples=80)
@given(st.sampled_from([2, 3, 257, 509, 65537, 1000003]), st.sampled_from(sorted(RESIDUE_DTYPES)),
       st.integers(0, 2**40), st.integers(-3, 3), st.integers(1, 3), st.data())
def test_reduced_exponent_range_is_the_unreduced_one_mod_m(p, m, block, shift, blocks, data):
    # tiles of 2^16, 3^10, 257^2 and 509^2 entries, and none above 2^16
    span = _tile_span(p)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = exponent_range(start, stop, p, mod=m)
    assert got.dtype == RESIDUE_DTYPES[m]
    assert np.array_equal(got, exponent_range(start, stop, p) % m)


def test_residue_dtype_reaches_uint64_and_stops_below_2_63():
    assert _residue_dtype(2**31) == np.uint32
    assert _residue_dtype(2**31 + 1) == np.uint64
    # e_3 is about 2^61 here, so the sums of residues come near 2^62
    start = (1 << 62) - 5
    for m in (2**31 + 1, 2**60 + 3, 2**63 - 1):
        got = exponent_range(start, start + 10, 3, mod=m)
        assert got.dtype == np.uint64
        assert got.tolist() == [legendre_exponent(n, 3) % m for n in range(start, start + 10)]
    with pytest.raises(OverflowError):
        exponent_range(0, 10, 3, mod=2**63)


def random_buffer(seed: int, size: int, p: int, m: int) -> np.ndarray:
    """The uint8 buffer `write_hits` takes for `size` hits from a start of
    phase `seed` mod 8, full of random bytes."""
    return np.random.default_rng(seed).integers(0, 256, hit_bytes(size + seed % 8, p, m),
                                                dtype=np.uint8)


# bool row tables over blocks of p^J, p^2 and p (from 2 to 65537, as m
# allows), and group tables of 2 ... 521 mod 2; moduli small enough to
# repeat a residue across blocks, and large enough to give most blocks a
# residue of their own, up to 2**24, where there is no row table and the
# residues are compared; starts at any phase mod 8
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 13, 23, 67, 127, 131, 257, 509, 521, 65537]),
       st.one_of(st.integers(2, 40), st.integers(2**16, 2**24)),
       st.integers(0, 2**40), st.integers(1, 300_000), st.data())
def test_write_exponent_hits_is_the_floor_sum_mask(p, m, start, size, data):
    want = data.draw(st.integers(0, m - 1))
    # whatever the buffer held before is overwritten or masked
    got = write_hits(random_buffer(start, size, p, m), start, size, p, m, want)
    np.testing.assert_array_equal(got, packed_floor_sum_hits(start, size, p, m, want))


# every want, so every row shift of the one bool table of a pair: 5 mod 7
# over blocks of 5^6, 331 and 347 mod 3 (no group table) over blocks of
# 331^2 and 347^2, 67 mod 10 over blocks of 67^2, and 1031 and 65537 mod
# 2 (no group table) over blocks of the prime; the compare route where
# there is no row table (65537 mod 5, 3 mod 100003 at a few wants); the
# group route of 3 and 1021 mod 2 and of 3, 7 and 317 mod 3, every digit
# shift; each at every start phase mod 8, into buffers of random bytes,
# over several blocks
@pytest.mark.parametrize("p,m,wants", [
    (3, 3, range(3)), (5, 7, range(7)), (7, 3, range(3)), (67, 10, range(10)),
    (1031, 2, range(2)), (65537, 2, range(2)), (65537, 5, range(5)),
    (3, 100003, (0, 1, 12345, 100002)), (3, 2, range(2)), (1021, 2, range(2)),
    (317, 3, range(3)), (331, 3, range(3)), (347, 3, range(3)),
])
def test_write_hits_at_every_want_phase_and_route(p, m, wants):
    rows = _shifted_tiles(p, m)
    assert (rows is None) == ((p, m) in ((65537, 5), (3, 100003)))
    assert gathers_words(p, m) == (m == 2 and p <= 1021 or m == 3 and p <= 317)
    base = (1 << 40) + 12345
    for want in wants:
        for phase in range(8):
            start = base - base % 8 + phase + 977 * want
            size = 3 * (rows.shape[1] if rows is not None else 8) + 13 * phase + 5
            buffer = random_buffer(start, size, p, m)
            got = write_hits(buffer, start, size, p, m, want)
            np.testing.assert_array_equal(got, packed_floor_sum_hits(start, size, p, m, want))
            # gathered words are a view of the buffer, packed bools are not
            assert np.shares_memory(got, buffer) == gathers_words(p, m)


def scalar_block_residues(a0: int, a1: int, p: int, mod: int) -> list[int]:
    span = _shifted_tiles(p, mod).shape[1]
    return [legendre_exponent(a * span, p) % mod for a in range(a0, a1)]


def block_residues(a0: int, a1: int, p: int, mod: int) -> np.ndarray:
    """The offset recursion on the row table of (p, mod), uncached."""
    rows = _shifted_tiles(p, mod)
    span = rows.shape[1]
    return _tiled_offsets(a0, a1, span, rows, (span - 1) // (p - 1), mod)


@pytest.mark.parametrize("p,mod", [(3, 2), (521, 3), (67, 1000)])
def test_paged_block_residues_match_the_block_residues(p, mod):
    # inside a page, up to its end, across into the next, and far out
    span = _shifted_tiles(p, mod).shape[1]
    for a0, a1 in ((0, 1), (5, 300), (_PAGE - 7, _PAGE), (_PAGE - 7, _PAGE + 9),
                   (3 * _PAGE + 1, 3 * _PAGE + 2), (2**40 // span, 2**40 // span + 600)):
        got = _paged(_offset_page, a0, a1, p, mod)
        assert np.array_equal(got, block_residues(a0, a1, p, mod))
        assert got.tolist() == scalar_block_residues(a0, a1, p, mod)


@pytest.mark.parametrize("p,mod", [(2, 4096), (3, 2), (67, 1000)])
def test_block_residues_recursion_is_the_scalar_exponent(p, mod):
    # Ranges of one, two and three blocks, at block 0 (the base of the
    # recursion) and past it, inside one block of the level above and across
    # two of them; ranges that recurse a level or more; ranges across a
    # page boundary; near 0 and near 2^62
    span = _shifted_tiles(p, mod).shape[1]
    far = (1 << 62) // span
    edge = far // span * span  # a block start one level up
    for a0, n in ((0, 1), (0, 2), (0, 3), (far, 1), (far, 2), (far, 3), (edge - 1, 2),
                  (edge - 1, 3), (edge - 2, 3), (edge, span + 1), (far - 2 * span, 5 * span),
                  (_PAGE - 1, 2), (_PAGE - 2, 3), (far - far % _PAGE - 1, 3), (far, _PAGE)):
        got = block_residues(a0, a0 + n, p, mod)
        assert got.dtype == _residue_dtype(mod)
        assert got.tolist() == scalar_block_residues(a0, a0 + n, p, mod), (a0, n)
        assert np.array_equal(_paged(_offset_page, a0, a0 + n, p, mod), got)


def test_block_residues_at_the_deepest_recursion():
    # Span 64 (p = 2, m = 4096), the shortest rows, near 2^62: 2^20 blocks
    # recurse through 2^14, 2^8 and a few blocks down to block 0
    a0 = (1 << 62) // 64 - 12345
    got = block_residues(a0, a0 + (1 << 20), 2, 4096)
    picks = np.unique(np.r_[0, 1, 12344, 12345, (1 << 20) - 1,
                            np.random.default_rng(0).integers(0, 1 << 20, 500)])
    assert got[picks].tolist() == [legendre_exponent((a0 + int(i)) * 64, 2) % 4096 for i in picks]
