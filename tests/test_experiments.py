"""Scan harness: histograms, discrepancy, patterns, coverage.

The stream-based oracle below recounts everything one n at a time in
pure Python, which keeps the vectorized chunk kernels honest.
"""

import gc
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factexp
import factexp.cli
import factexp.construction
from factexp.construction import verify_congruence
from factexp.exponents import (
    _PAGE,
    _code_page,
    _group_table,
    _hit_rows,
    _shifted_tiles,
    exponent_range,
    gathers_words,
    hit_bytes,
    legendre_exponent,
    write_hits,
)
from factexp.primes import nth_odd_prime
from factexp.experiments import (
    CHUNK_CAP,
    CLASS_CAP,
    NO_WITNESS,
    THREAD_CAP,
    _chunk_first_codes,
    _chunk_histogram,
    _chunk_hits,
    _fold_dtype,
    _mask_hits,
    _plane_route,
    CoverageReport,
    ResidueHistogram,
    ScanConfig,
    discrepancy,
    joint_histogram,
    map_spans,
    pattern_coverage,
    pattern_search,
)
from oracles import (
    ExponentStream,
    doubling_group_table,
    flatnonzero_hits,
    floor_sum_range,
    int32_chunk_histogram,
    packed_floor_sum_hits,
    parity_of_e2,
    residue_chunk_hits,
    set_covered_prefix,
    smallest_covering_limit,
)


def stream_histogram(primes, mods, limit):
    """one stream per prime, advanced in lockstep; dict of nonzero counts"""
    streams = [ExponentStream(p, modulus=m) for p, m in zip(primes, mods)]
    counts = {}
    key = tuple(s.current_exponent for s in streams)
    counts[key] = 1
    for _ in range(1, limit):
        key = tuple(s.advance()[1] for s in streams)
        counts[key] = counts.get(key, 0) + 1
    return counts


def nonzero_counts(hist):
    """dict of the nonzero counts of a histogram, keyed by class tuple"""
    return {cls: int(c) for cls, c in np.ndenumerate(hist.counts) if c}


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(primes=(), mods=(), limit=10)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3, 5), mods=(2,), limit=10)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3, 3), mods=(2, 2), limit=10)
    with pytest.raises(ValueError):
        ScanConfig(primes=(4,), mods=(2,), limit=10)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3,), mods=(1,), limit=10)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3,), mods=(2,), limit=0)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3,), mods=(2,), limit=1 << 63)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3,), mods=(2,), limit=10, chunk_size=0)
    with pytest.raises(ValueError):
        ScanConfig(primes=(3, 5), mods=(CLASS_CAP, 2), limit=10)


def test_config_accepts_two():
    # 2 is a fine scan prime even though the modular construction skips it
    cfg = ScanConfig(primes=(2, 3), mods=(2, 2), limit=100)
    assert cfg.k == 2
    assert cfg.class_count == 4


def test_spans_tile_the_range():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=10**4, chunk_size=999)
    spans = list(cfg.spans())
    assert spans[0][0] == 0
    assert spans[-1][1] == 10**4
    for (a1, b1), (a2, _) in zip(spans, spans[1:]):
        assert b1 == a2
    assert all(b - a <= 999 for a, b in spans)


def test_histogram_hand_case():
    # e_3 on 0..8 is 0,0,0,1,1,1,2,2,2; parities 0,0,0,1,1,1,0,0,0
    hist = joint_histogram(ScanConfig(primes=(3,), mods=(2,), limit=9))
    assert hist.counts.tolist() == [6, 3]


@pytest.mark.parametrize(
    "primes,mods,limit",
    [
        ((3, 5), (2, 3), 2000),
        ((2, 3), (4, 2), 1500),
        ((2,), (2,), 1000),
        ((3, 5, 7), (2, 2, 2), 10**4),
    ],
)
def test_histogram_matches_stream_oracle(primes, mods, limit):
    hist = joint_histogram(ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=257))
    assert nonzero_counts(hist) == stream_histogram(primes, mods, limit)


@settings(max_examples=25)
@given(st.data())
def test_histogram_matches_stream_oracle_random(data):
    primes = tuple(data.draw(st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3)))
    mods = tuple(data.draw(st.integers(2, 5)) for _ in primes)
    limit = data.draw(st.integers(1, 600))
    chunk = data.draw(st.integers(1, 700))
    hist = joint_histogram(ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk))
    assert nonzero_counts(hist) == stream_histogram(primes, mods, limit)


# moduli whose class counts sit on both sides of each fold-dtype boundary,
# with the dtype the fold must use for that count
FOLD_SHAPES = {
    255: (np.uint8, [(255,), (15, 17), (3, 5, 17)]),
    256: (np.uint8, [(256,), (16, 16), (2, 2, 4, 16)]),
    257: (np.uint16, [(257,)]),
    2**16: (np.uint16, [(2**16,), (256, 256), (2, 4, 8192)]),
    2**16 + 1: (np.int32, [(2**16 + 1,)]),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chunk_histogram_matches_the_int32_oracle(data):
    classes = data.draw(st.sampled_from(sorted(FOLD_SHAPES)))
    dtype, shapes = FOLD_SHAPES[classes]
    assert _fold_dtype(classes) == dtype
    mods = data.draw(st.sampled_from(shapes))
    primes = data.draw(st.permutations([2, 3, 5, 7]))[: len(mods)]
    # one span anywhere, of odd or even length
    start = data.draw(st.integers(0, 2**40))
    width = data.draw(st.one_of(st.integers(1, 4), st.integers(1, 5000)))
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + width)
    assert np.array_equal(_chunk_histogram(cfg, start, start + width),
                          int32_chunk_histogram(cfg, start, start + width))
    # a whole scan, merged from chunks on one or two threads
    chunk, most = data.draw(st.sampled_from([(1, 40), (7, 600), (2**16 + 3, 2**17 + 9)]))
    limit = data.draw(st.integers(1, most))
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    want = int32_chunk_histogram(cfg, 0, limit)
    for threads in (1, 2):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


# (mods, width): odd spans of two and a half counting pieces plus one index.
# A piece holds max(2^17, 8 bins) keys, at most the 2^18 of a workspace's
# key buffer: a uint8 pair key (two indices) has 256 C bins, any other
# index C.
LONG_SPANS = [
    ((2, 3, 7), 5 * 2**17 + 1),          # uint8, pieces of 2^17 pair keys
    ((256,), 5 * 2**18 + 1),             # uint8, pieces of 2^18 pair keys
    ((257,), 5 * 2**16 + 1),             # uint16, pieces of 2^17
    ((16, 16, 256), 5 * 2**17 + 1),      # uint16, pieces of 2^18
]


@pytest.mark.parametrize("mods,width", LONG_SPANS)
def test_chunk_histogram_of_many_counting_pieces_matches_the_int32_oracle(mods, width):
    primes = (3, 5, 7)[: len(mods)]
    start = 2**40 + 12345
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + width)
    assert np.array_equal(_chunk_histogram(cfg, start, start + width),
                          int32_chunk_histogram(cfg, start, start + width))


# the moduli of one to five primes that the plane route takes, by class
# count, at the price of bool planes, so for any primes: 131071 has no
# table of eight-block groups
PLANE_SHAPES = {}
for _k in range(1, 6):
    for _mods in itertools.product(range(2, 12), repeat=_k):
        if _plane_route((131071,) * _k, _mods):
            PLANE_SHAPES.setdefault(math.prod(_mods), []).append(_mods)
# 2, a prime that divides its modulus and one with no row table, since
# 131071 * 3 is past the 2^18-entry budget
PLANE_PRIMES = (2, 3, 5, 7, 11, 131071)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plane_route_matches_the_int32_oracle(data):
    mods = data.draw(st.sampled_from(PLANE_SHAPES[data.draw(st.sampled_from(sorted(PLANE_SHAPES)))]))
    primes = data.draw(st.permutations(PLANE_PRIMES))[: len(mods)]
    # one span anywhere, of a width that leaves a partial last word
    start = data.draw(st.integers(0, 2**62))
    width = data.draw(st.integers(1, 5000).filter(lambda w: w % 64))
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + width)
    assert np.array_equal(_chunk_histogram(cfg, start, start + width),
                          int32_chunk_histogram(cfg, start, start + width))
    # a whole scan, merged from chunks on one, two or three threads
    chunk, most = data.draw(st.sampled_from([(1, 40), (7, 600), (2**16 + 3, 2**17 + 9)]))
    limit = data.draw(st.integers(1, most))
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    want = int32_chunk_histogram(cfg, 0, limit)
    for threads in (1, 2, 3):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


@pytest.mark.parametrize("primes,mods", [((2,), (2,)), ((3,), (3,)), ((3,), (9,)),
                                         ((131071, 3), (3, 2)), ((2, 3, 131071), (2, 3, 3))])
@pytest.mark.parametrize("chunk,limit", [(1, 300), (7, 20_000), (2**16 + 3, 2**18 + 5)])
def test_plane_route_of_p_2_p_dividing_m_and_no_row_table(primes, mods, chunk, limit):
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    assert _plane_route(primes, mods)
    want = int32_chunk_histogram(cfg, 0, limit)
    for threads in (1, 2, 3):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)
    start = 2**62 - 5000
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + 4999)
    assert np.array_equal(_chunk_histogram(cfg, start, start + 4999),
                          int32_chunk_histogram(cfg, start, start + 4999))


# moduli just inside and just outside the route rule 4 * sum(m_i - 1) + C
# <= 35 + 8k, for k = 1 ... 6
PLANE_BOUNDARY = [
    ((9,), True), ((10,), False),
    ((2, 8), True), ((4, 5), True), ((3, 7), False),
    ((2, 3, 5), True), ((3, 3, 3), True), ((2, 2, 7), False),
    ((2, 2, 3, 3), True), ((2, 2, 2, 5), False),
    ((2, 2, 2, 2, 3), True), ((2, 2, 2, 2, 4), False),
    ((2,) * 6, False),
]


@pytest.mark.parametrize("mods,planes", PLANE_BOUNDARY)
def test_route_rule_sends_each_side_of_its_bound_its_own_way(mods, planes, monkeypatch):
    # primes without a table of eight-block groups write every plane as bools
    primes = (1031, 1033, 1039, 1049, 1051, 1061)[: len(mods)]
    assert _plane_route(primes, mods) is planes
    cost = 4 * sum(m - 1 for m in mods) + math.prod(mods)
    assert (cost <= 35 + 8 * len(mods)) is planes
    folds = []
    real = factexp.experiments._class_indices

    def spy(*args):
        folds.append(args)
        return real(*args)

    monkeypatch.setattr(factexp.experiments, "_class_indices", spy)
    start, width = 2**40 + 12345, 3000
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + width)
    got = _chunk_histogram(cfg, start, start + width)
    assert bool(folds) is not planes
    assert np.array_equal(got, int32_chunk_histogram(cfg, start, start + width))


# <= 35 + 8k, for k = 1 ... 7, with a plane of packed words priced at 1:
# e_3 ... e_19 mod 2 and 3 write them, and mod 4 or more write bools
WORD_PLANE_BOUNDARY = [
    ((2,), True), ((2, 9), True), ((2, 10), False),
    ((2, 2, 7), True), ((2, 2, 8), False),
    ((2, 2, 2, 5), True), ((2, 2, 2, 6), False),
    ((2, 2, 2, 2, 3), True), ((2, 2, 2, 2, 4), False),
    ((2,) * 6, True), ((2,) * 5 + (3,), False), ((2,) * 7, False),
    ((3, 3, 3, 2), True), ((3, 3, 3, 3), False),
]


@pytest.mark.parametrize("mods,planes", WORD_PLANE_BOUNDARY)
def test_route_rule_prices_a_plane_of_parity_words_at_one(mods, planes):
    primes = (3, 5, 7, 11, 13, 17, 19)[: len(mods)]
    cost = sum((m - 1) * (1 if m <= 3 else 4) for m in mods) + math.prod(mods)
    assert (cost <= 35 + 8 * len(mods)) is planes
    assert _plane_route(primes, mods) is planes


def test_six_parity_primes_take_the_planes_and_the_bench_shapes_keep_their_routes(monkeypatch):
    # (3, 5, 7, 11, 13, 17) mod 2 costs 6 + 64 <= 83 at 1 per plane of
    # words, but 24 + 64 > 83 at the bool price, which primes without a
    # table of eight-block groups pay
    primes, mods = (3, 5, 7, 11, 13, 17), (2,) * 6
    assert _plane_route(primes, mods)
    assert not _plane_route((1031, 1033, 1039, 1049, 1051, 1061), mods)
    start = (5 << 20) + 3
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + 70_001)
    planes = _chunk_histogram(cfg, start, cfg.limit)
    monkeypatch.setattr(factexp.experiments, "_plane_route", lambda primes, mods: False)
    assert np.array_equal(planes, _chunk_histogram(cfg, start, cfg.limit))
    # scan-narrow scans three of the five primes mod 2 or 3: every shape
    # takes the planes; scan-wide scans four or five of them in powers of
    # two with 2^14 ... 2^18 classes: none does
    monkeypatch.undo()
    five = (3, 5, 7, 11, 13)
    for three in itertools.combinations(five, 3):
        for narrow in itertools.product((2, 3), repeat=3):
            assert _plane_route(three, narrow)
    for k in (4, 5):
        for bits in itertools.product(range(1, 15), repeat=k):
            if 14 <= sum(bits) <= 18:
                assert not _plane_route(five[:k], tuple(1 << b for b in bits))


def plane_route_buffer_and_peak(primes, buffer):
    """Check that a 2^20 chunk of `primes` mod (3, 3, 3) on the plane
    route takes one buffer of `buffer` bytes, which a second call takes
    back off the list, peaks at most 1.25 MiB besides, and frees the rest
    when it returns."""
    cfg = ScanConfig(primes=primes, mods=(3, 3, 3), limit=6 << 20)
    start, stop = 5 << 20, 6 << 20
    spare, buffers = [], []
    want = _chunk_histogram(cfg, start, stop, spare=spare, buffers=buffers).copy()
    assert [b.nbytes for b in buffers] == [buffer]
    spare[0][:] = 0
    tracemalloc.start()
    try:
        got = _chunk_histogram(cfg, start, stop, spare=spare, buffers=buffers)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert np.array_equal(want, int32_chunk_histogram(cfg, start, stop))
    assert peak <= 1.25 * 2**20
    assert current < 2**12


def test_plane_route_reuses_its_buffer_and_frees_its_planes():
    # (331, 337, 347) mod (3, 3, 3) write bools: the hits and then the
    # stack and the inner node share one 1 MiB buffer; what a chunk
    # allocates besides is the six planes of 128 KiB, one packed plane at
    # a time, and the popcounts of a stack
    plane_route_buffer_and_peak((331, 337, 347), 1 << 20)


def test_word_plane_route_takes_a_buffer_of_its_stack_and_node():
    # (3, 5, 7) mod (3, 3, 3) gather words: the buffer is the 512 KiB of
    # the stack and the inner node, and each plane's words pass through it
    plane_route_buffer_and_peak((3, 5, 7), 1 << 19)


@pytest.mark.parametrize("chunk,limit", [(1, 40), (7, 600), (65539, 2 * 65539 + 9)])
@pytest.mark.parametrize("mods", [(2, 150), (257, 510), (64, 64, 64)])
def test_histogram_of_more_classes_than_the_chunk_matches_the_int32_oracle(chunk, limit, mods):
    # up to 2^18 classes, more than a chunk holds: counted by np.add.at
    primes = (3, 5, 7)[: len(mods)]
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    want = int32_chunk_histogram(cfg, 0, limit)
    for threads in (1, 2):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


# (primes, mods) of each fold dtype on the class-index route, with
# 131071, which has no row table at any modulus, beside primes that have
# one: uint8 residues into uint8, uint16 and int32 folds, and uint16
# residues (mod 256) into uint16 and int32 folds
LENT_SHAPES = [
    ((3, 5, 131071), (4, 8, 2)),          # 64 classes, uint8
    ((3, 7, 11), (16, 16, 16)),           # 2^12, uint16
    ((3, 131071), (256, 256)),            # 2^16, uint16
    ((131071, 3, 5), (256, 8, 64)),       # 2^17, int32
    ((3, 7, 11, 13), (32, 16, 32, 16)),   # 2^18, int32
]


def floor_sum_histogram(primes, mods, limit):
    """The class counts of [0, limit) from floor-sum residues, folded in
    int64 and counted by one bincount."""
    idx = np.zeros(limit, dtype=np.int64)
    for p, m in zip(primes, mods):
        idx *= m
        idx += floor_sum_range(0, limit, p) % m
    return np.bincount(idx, minlength=math.prod(mods))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lent_workspaces_match_the_floor_sum_and_the_one_thread_scan(data):
    # chunks of 1 and 7, and of 65539 and 2^18 + 3, whose last chunk is
    # short and whose last counting piece is partial
    primes, mods = data.draw(st.sampled_from(LENT_SHAPES))
    assert not _plane_route(primes, mods)
    chunk, most = data.draw(st.sampled_from([(1, 300), (7, 3000), (65539, 3 * 65539),
                                             (2**18 + 3, 2**19 + 9)]))
    limit = data.draw(st.integers(1, most))
    want = floor_sum_histogram(primes, mods, limit)
    whole = joint_histogram(ScanConfig(primes=primes, mods=mods, limit=limit))
    assert np.array_equal(whole.counts.ravel(), want)
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    for threads in (1, 2, 3):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


def test_scans_of_other_shapes_back_to_back_keep_no_workspace():
    # each call lends its own workspaces on the kept helpers: a scan after
    # one of another shape, dtype or chunk width counts as it does alone,
    # and once a scan returns no workspace is left
    scans = [(ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk), threads)
             for (primes, mods), limit, chunk, threads in [
                 (LENT_SHAPES[4], 3 * 2**18 + 5, 2**18 + 3, 2),
                 (LENT_SHAPES[0], 20_000, 7, 3),
                 (LENT_SHAPES[2], 2**18 + 1, 65539, 3),
                 (LENT_SHAPES[3], 200_000, 65539, 2),
                 (LENT_SHAPES[4], 3 * 2**18 + 5, 2**18 + 3, 3)]]
    wants = [floor_sum_histogram(cfg.primes, cfg.mods, cfg.limit) for cfg, _ in scans]
    for _ in range(2):
        for (cfg, threads), want in zip(scans, wants):
            assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)
            assert not [o for o in gc.get_objects()
                        if isinstance(o, factexp.experiments._Workspace)]


@pytest.mark.parametrize("threads,bound", [(2, 24), (1, 12.5)])
def test_class_index_scan_peaks_at_its_workspaces(threads, bound):
    # 2^18 classes to 2^22 in chunks of 2^20: a workspace holds 2 MiB of
    # counts, 4 MiB of int32 indices, 2 MiB of intp keys and 1 MiB of
    # uint8 residues, and each running chunk adds one 2 MiB bincount
    # result: 22 MiB on two threads, 11 on one.  The first scan builds the
    # row tables and offset pages the second reads.
    cfg = ScanConfig(primes=(3, 7, 11, 13), mods=(32, 16, 32, 16), limit=1 << 22)
    want = joint_histogram(cfg, threads=threads)
    tracemalloc.start()
    try:
        got = joint_histogram(cfg, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= bound * 2**20


def test_histogram_accessors():
    hist = joint_histogram(ScanConfig(primes=(3, 5), mods=(2, 3), limit=500))
    classes = itertools.product(range(2), range(3))
    assert sum(hist.counts[c] for c in classes) == 500


def test_histogram_rejects_inconsistent_counts():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=9)
    with pytest.raises(ValueError, match="cannot reshape array of size 3"):
        ResidueHistogram(config=cfg, counts=(6, 3, 0))
    with pytest.raises(ValueError, match="counts sum to 8, but 9 integers were scanned"):
        ResidueHistogram(config=cfg, counts=(5, 3))
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        ResidueHistogram(config=cfg, counts=(10, -1))


def test_histogram_keeps_int64_counts_without_a_copy():
    # 2^22 classes of 2^40 each sum to 2^62 over 64 pieces of the exact sum;
    # construction adds no full-size copy or temporary to the counts
    cfg = ScanConfig(primes=(3, 5), mods=(2**11, 2**11), limit=2**62)
    tracemalloc.start()
    try:
        counts = np.full(2**22, 2**40, dtype=np.int64)
        hist = ResidueHistogram(config=cfg, counts=counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * counts.nbytes
    assert np.shares_memory(hist.counts, counts)
    assert not hist.counts.flags.writeable


def test_histogram_determinism_quick():
    base = ScanConfig(primes=(3, 5, 7), mods=(2, 2, 2), limit=10**4)
    reference = joint_histogram(base).counts
    for chunk in (1, 103, 10**3):
        for threads in (1, 8):
            cfg = ScanConfig(primes=(3, 5, 7), mods=(2, 2, 2), limit=10**4, chunk_size=chunk)
            assert np.array_equal(joint_histogram(cfg, threads=threads).counts, reference)


def test_histogram_counts_are_a_lex_ndarray():
    cfg = ScanConfig(primes=(3, 5, 7), mods=(2, 3, 2), limit=1000)
    hist = joint_histogram(cfg)
    assert hist.counts.shape == (2, 3, 2)
    assert hist.counts.dtype == np.int64
    assert not hist.counts.flags.writeable
    flat = hist.counts.ravel().tolist()
    assert flat == [hist.counts[c] for c in itertools.product(range(2), range(3), range(2))]
    assert ResidueHistogram(config=cfg, counts=flat) == hist
    flat[0], flat[1] = flat[0] - 1, flat[1] + 1
    assert ResidueHistogram(config=cfg, counts=flat) != hist


def test_histogram_rejects_counts_that_wrap_int64():
    # 3 * 2^62 + (2^62 + 3) = 2^64 + 3 sums to 3 in wrapping int64 arithmetic
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=3)
    with pytest.raises(ValueError, match=f"counts sum to {2**64 + 3}, but 3 "):
        ResidueHistogram(config=cfg, counts=(1 << 62, 1 << 62, 1 << 62, (1 << 62) + 3))


def test_map_spans_yields_in_span_order():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=4, chunk_size=1)
    finished = []

    def fn(start, stop):
        time.sleep(0.05 * (4 - start))  # earlier spans finish last
        finished.append(start)
        return start, stop

    assert list(map_spans(fn, cfg, threads=2)) == list(cfg.spans())
    assert finished != sorted(finished)


def test_map_spans_runs_bounded_ahead_and_stops_on_close():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=100, chunk_size=1)
    started = []
    lock = threading.Lock()

    def fn(start, stop):
        with lock:
            started.append(start)
        time.sleep(0.01)
        return start

    gen = map_spans(fn, cfg, threads=2)
    assert next(gen) == 0
    time.sleep(0.1)  # a slow consumer: the pool must not run on without it
    gen.close()
    # with span 0 yielded, only its round, spans 0 and 1, has started
    assert len(started) <= 2
    time.sleep(0.05)
    assert len(started) <= 2


def test_map_spans_runs_on_the_caller_and_at_most_threads_at_once():
    # three threads: two kept helpers and the calling thread, which takes
    # spans too
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=30, chunk_size=1)
    lock = threading.Lock()
    running, most, ran_on = [0], [0], {}

    def fn(start, stop):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.005)
        with lock:
            running[0] -= 1
            ran_on[start] = threading.get_ident()
        return start

    assert list(map_spans(fn, cfg, threads=3)) == list(range(30))
    assert most[0] <= 3
    assert len(set(ran_on.values())) <= 3
    assert threading.get_ident() in ran_on.values()


def test_map_spans_runs_rounds_with_the_first_span_of_each_on_the_caller():
    # three threads, ten spans: rounds (0, 1, 2), (3, 4, 5), (6, 7, 8), (9);
    # each round's second span is slow, and no span of the next round may
    # start before it returns
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=10, chunk_size=1)
    lock = threading.Lock()
    events, ran_on = [], {}

    def fn(start, stop):
        with lock:
            events.append(("start", start))
            ran_on[start] = threading.get_ident()
        time.sleep(0.03 if start % 3 == 1 else 0.002)
        with lock:
            events.append(("return", start))
        return start

    assert list(map_spans(fn, cfg, threads=3)) == list(range(10))
    caller = threading.get_ident()
    assert sorted(s for s, ident in ran_on.items() if ident == caller) == [0, 3, 6, 9]
    for i, (kind, start) in enumerate(events):
        if kind == "start":
            returned = {s for k, s in events[:i] if k == "return"}
            assert set(range(start // 3 * 3)) <= returned


def test_map_spans_raises_a_span_error_in_span_order_and_starts_no_more():
    # span 4 is slow, so span 5 fails on the other thread while it runs,
    # the calling thread's half the time
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=40, chunk_size=1)
    boom = KeyError(5)
    lock = threading.Lock()
    for _ in range(4):
        started, got = [], []

        def fn(start, stop):
            with lock:
                started.append(start)
            time.sleep(0.03 if start == 4 else 0.002)
            if start == 5:
                raise boom
            return start

        with pytest.raises(KeyError) as info:
            for value in map_spans(fn, cfg, threads=2):
                got.append(value)
        assert info.value is boom
        assert got == [0, 1, 2, 3, 4]
        time.sleep(0.01)
        assert max(started) <= 5 + 2


def test_map_spans_under_contention_yields_every_span_once_in_order():
    # more threads than cores, and thread switches as often as the
    # interpreter allows, against the rounds and their in-order results
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=20000, chunk_size=1)
    lock = threading.Lock()
    running, most = [0], [0]

    def fn(start, stop):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        value = sum(range(start % 50))
        with lock:
            running[0] -= 1
        return start, value

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(map_spans(fn, cfg, threads=5))
    finally:
        sys.setswitchinterval(interval)
    assert got == [(s, sum(range(s % 50))) for s in range(20000)]
    assert most[0] <= 5


def test_one_span_scan_starts_no_thread():
    before = threading.active_count()
    cfg = ScanConfig(primes=(3, 5), mods=(3, 4), limit=5000)
    assert joint_histogram(cfg, threads=8) == joint_histogram(cfg)
    assert threading.active_count() == before


def test_scans_keep_their_threads_between_calls(monkeypatch):
    cfg = ScanConfig(primes=(3, 5), mods=(3, 4), limit=20_000, chunk_size=4099)
    want = joint_histogram(cfg)
    joint_histogram(cfg, threads=2)
    before, alive = threading.active_count(), set(threading.enumerate())
    ran_on = set()
    chunk = factexp.experiments._chunk_histogram

    def recorded(*args, **kwargs):
        ran_on.add(threading.current_thread())
        return chunk(*args, **kwargs)

    monkeypatch.setattr(factexp.experiments, "_chunk_histogram", recorded)
    for _ in range(50):
        assert joint_histogram(cfg, threads=2) == want
    assert threading.active_count() == before
    # the calling thread and kept helpers, not a fresh thread per call
    assert ran_on <= alive
    assert joint_histogram(cfg, threads=3) == want
    # a replaced, smaller executor's threads exit on their own
    deadline = time.monotonic() + 2
    while threading.active_count() > before + 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before + 1


def test_scans_on_several_user_threads_share_the_kept_executor():
    # calls at 2-5 threads replace the kept executor while scans on the
    # other user threads still submit to the one they hold
    cfg = ScanConfig(primes=(3, 5), mods=(16, 16), limit=2 * 10**5, chunk_size=1001)
    want = joint_histogram(cfg)
    errors, wrong = [], []

    def scans(threads):
        try:
            for _ in range(30):
                if joint_histogram(cfg, threads=threads) != want:
                    wrong.append(threads)
        except BaseException as exc:
            errors.append(exc)

    users = [threading.Thread(target=scans, args=(t,)) for t in (2, 3, 4, 5)]
    for user in users:
        user.start()
    for user in users:
        user.join()
    assert errors == []
    assert wrong == []


def _chunk_threads(monkeypatch, name, scan):
    """scan() and the threads that ran its chunks, through the chunk
    function `name` of experiments; the chunks the calling thread runs
    sleep first, so that helper threads, where a scan has any, take some."""
    caller, ran_on = threading.current_thread(), []
    real = getattr(factexp.experiments, name)

    def recorded(*args, **kwargs):
        ran_on.append(threading.current_thread())
        if threading.current_thread() is caller:
            time.sleep(0.002)
        return real(*args, **kwargs)

    monkeypatch.setattr(factexp.experiments, name, recorded)
    try:
        return scan(), ran_on
    finally:
        monkeypatch.setattr(factexp.experiments, name, real)


@pytest.mark.parametrize("primes,mods", [((3, 5, 7), (2, 2, 2)), ((2, 1021), (2, 2)),
                                         ((3, 5, 7, 11, 13, 17), (2,) * 6), ((3, 5), (2, 3)),
                                         ((3, 5, 317), (3, 3, 3))])
def test_packed_word_scans_run_on_the_calling_thread(primes, mods, monkeypatch):
    # every pair writes packed words (mod 2, or mod 3 up to 317), and the
    # histogram counts them as planes: three threads asked for, one used
    cfg = ScanConfig(primes=primes, mods=mods, limit=20_000, chunk_size=1001)
    pattern = (1,) * len(primes)
    hist, rep = joint_histogram(cfg), pattern_search(cfg, pattern)
    alive = set(threading.enumerate())
    for name, scan, want in [("_chunk_histogram", partial(joint_histogram, cfg, threads=3), hist),
                             ("_chunk_hits", partial(pattern_search, cfg, pattern, threads=3), rep)]:
        got, ran_on = _chunk_threads(monkeypatch, name, scan)
        assert got == want
        assert ran_on == [threading.current_thread()] * 20
    assert set(threading.enumerate()) <= alive


@pytest.mark.parametrize("primes,mods", [((3, 1031), (2, 2)), ((3, 331), (2, 3)), ((3, 5), (16, 16))])
def test_scans_with_bool_hits_or_class_indices_run_on_helper_threads(primes, mods, monkeypatch):
    # 1031 mod 2 and 331 mod 3 have no table of eight-block groups, so
    # their hits are bools; 256 classes are counted from class indices
    cfg = ScanConfig(primes=primes, mods=mods, limit=20_000, chunk_size=1001)
    pattern = (1, 1)
    hist, rep = joint_histogram(cfg), pattern_search(cfg, pattern)
    for name, scan, want in [("_chunk_histogram", partial(joint_histogram, cfg, threads=3), hist),
                             ("_chunk_hits", partial(pattern_search, cfg, pattern, threads=3), rep)]:
        got, ran_on = _chunk_threads(monkeypatch, name, scan)
        assert got == want
        assert len(ran_on) == 20
        assert len(set(ran_on)) > 1


@pytest.mark.parametrize("threads,message", [
    (0, "thread count must be positive, got 0"),
    (THREAD_CAP + 1, f"thread count must be at most {THREAD_CAP}, got {THREAD_CAP + 1}"),
])
def test_packed_word_scans_refuse_bad_thread_counts(threads, message):
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=10**6, chunk_size=7)
    with pytest.raises(ValueError, match=message):
        joint_histogram(cfg, threads=threads)
    with pytest.raises(ValueError, match=message):
        pattern_search(cfg, (1, 0), threads=threads)


def _forked_scan(cfg, results):
    ran_on = set()

    def fn(start, stop):
        ran_on.add(threading.get_ident())
        time.sleep(0.02)

    list(map_spans(fn, ScanConfig(primes=(3,), mods=(2,), limit=6, chunk_size=1), threads=2))
    results.put((joint_histogram(cfg, threads=2).counts.tolist(), len(ran_on)))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
# forking beside the kept helper is what this test checks
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_scans_on_threads_of_its_own():
    cfg = ScanConfig(primes=(3, 5), mods=(3, 4), limit=20_000, chunk_size=4099)
    joint_histogram(cfg, threads=2)
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_forked_scan, args=(cfg, results))
    child.start()
    try:
        # the one-thread counts, and slow spans taken by a helper of the
        # child's own, not left queued for the parent's threads
        assert results.get(timeout=10) == (joint_histogram(cfg).counts.tolist(), 2)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
    assert child.exitcode == 0


# 10**5000 has more digits than an int may print
@pytest.mark.parametrize("threads", [THREAD_CAP + 1, 10**6, 10**5000],
                         ids=[str(THREAD_CAP + 1), "1000000", "10**5000"])
def test_map_spans_refuses_too_many_threads_before_starting_any(threads):
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=10**9, chunk_size=1)

    def fn(start, stop):
        raise AssertionError("no span may run")

    before = threading.active_count()
    gen = map_spans(fn, cfg, threads=threads)
    with pytest.raises(ValueError, match=f"thread count must be at most {THREAD_CAP}, "):
        next(gen)
    assert threading.active_count() == before


# a chunk of 2^24 + 1 at a limit of 10^9 would start a 16 MiB residue
# array and more per chunk; each scan refuses it with a message naming the
# cap, having allocated next to nothing
@pytest.mark.parametrize("scan", [
    lambda chunk: joint_histogram(ScanConfig(primes=(3, 5), mods=(16, 5), limit=10**9,
                                             chunk_size=chunk), threads=2),
    lambda chunk: pattern_search(ScanConfig(primes=(3, 5), mods=(2, 3), limit=10**9,
                                            chunk_size=chunk), (1, 2)),
    lambda chunk: pattern_coverage((3, 5, 7), 10**9, chunk_size=chunk),
    lambda chunk: verify_congruence(3, 5, 10**9, chunk_size=chunk),
], ids=["scan", "pattern", "coverage", "verify"])
def test_chunks_wider_than_the_cap_are_refused_before_any_chunk(scan):
    assert CHUNK_CAP == 1 << 24
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"chunk size must be at most {CHUNK_CAP}, "
                                             f"got {CHUNK_CAP + 1}"):
            scan(CHUNK_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=f"at most {CHUNK_CAP}, got {10**40}$"):
        scan(10**40)


def test_a_chunk_of_exactly_the_cap_still_runs():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 3), limit=5000, chunk_size=CHUNK_CAP)
    small = ScanConfig(primes=(3, 5), mods=(2, 3), limit=5000, chunk_size=977)
    assert joint_histogram(cfg).counts.tolist() == joint_histogram(small).counts.tolist()
    assert pattern_search(cfg, (1, 2)).hits == pattern_search(small, (1, 2)).hits
    assert pattern_coverage((3, 5), 5000, chunk_size=CHUNK_CAP) == pattern_coverage((3, 5), 5000)
    assert verify_congruence(3, 5, 5000, chunk_size=CHUNK_CAP).passed


def test_verify_refuses_an_over_wide_chunk_before_it_builds_f(monkeypatch, capsys):
    # 3 mod 143 has lambda = 15: its 3^15-entry table would take 175 MiB
    def build(*args):
        raise AssertionError("build_function called")

    monkeypatch.setattr(factexp.construction, "build_function", build)
    with pytest.raises(ValueError, match=f"^chunk size must be at most {CHUNK_CAP}, got {10**9}$"):
        verify_congruence(3, 143, 10**9, chunk_size=10**9)
    code = factexp.cli.main(["verify", "--prime", "3", "--mod", "143", "--limit", "1e9",
                             "--chunk-size", "1e9"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == f"error: chunk size must be at most {CHUNK_CAP}, got {10**9}\n"


def test_verify_congruence_checks_limit_before_any_chunk(monkeypatch):
    calls = []
    # a modulus with a row table writes f through _write_range, one without
    # through evaluate_range
    for name in ("evaluate_range", "_write_range"):
        monkeypatch.setattr(factexp.construction, name, lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="limit"):
        verify_congruence(3, 2, 2**63)
    assert calls == []


def test_histogram_rejects_bad_threads():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=10)
    with pytest.raises(ValueError):
        joint_histogram(cfg, threads=0)


def test_discrepancy_hand_case():
    hist = joint_histogram(ScanConfig(primes=(3,), mods=(2,), limit=9))
    rep = discrepancy(hist)
    assert rep.main_term == 4.5
    assert rep.max_abs_dev == 1.5
    assert rep.max_rel_dev == pytest.approx(1 / 3)
    assert rep.worst_class == (0,)


def test_discrepancy_tie_breaks_lexicographically():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=4)
    hist = ResidueHistogram(config=cfg, counts=(2, 0, 1, 1))
    rep = discrepancy(hist)
    assert rep.max_abs_dev == 1.0
    # classes (0,0) and (0,1) tie
    assert rep.worst_class == (0, 0)


def test_discrepancy_flat_order_is_not_lex_order():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=6)
    hist = ResidueHistogram(config=cfg, counts=(1, 3, 1, 1))
    rep = discrepancy(hist)
    assert rep.worst_class == (0, 1)


PATTERN_CASES = {
    # primes (3,5), mods (2,2), limit 100, frozen from a stream recount
    (0, 0): (0, 33, 13),
    (1, 0): (3, 27, 22),
    (0, 1): (6, 25, 14),
    (1, 1): (5, 15, 28),
}


@pytest.mark.parametrize("pattern,expected", sorted(PATTERN_CASES.items()))
def test_pattern_hand_cases(pattern, expected):
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=100)
    rep = pattern_search(cfg, pattern)
    assert (rep.minimal_n, rep.hits, rep.max_gap) == expected


def test_pattern_matches_brute_force():
    limit = 10**4
    cfg = ScanConfig(primes=(2, 3), mods=(2, 3), limit=limit, chunk_size=61)
    e2 = [legendre_exponent(n, 2) % 2 for n in range(limit)]
    e3 = [legendre_exponent(n, 3) % 3 for n in range(limit)]
    for pattern in [(0, 0), (1, 2), (0, 1)]:
        rep = pattern_search(cfg, pattern)
        hits = [
            n for n in range(limit)
            if e2[n] == pattern[0] and e3[n] == pattern[1]
        ]
        assert rep.hits == len(hits)
        assert rep.minimal_n == (hits[0] if hits else None)
        if len(hits) >= 2:
            assert rep.max_gap == max(b - a for a, b in zip(hits, hits[1:]))
        else:
            assert rep.max_gap is None


def test_pattern_no_hits():
    cfg = ScanConfig(primes=(3,), mods=(5,), limit=3)
    rep = pattern_search(cfg, (4,))
    assert (rep.minimal_n, rep.hits, rep.max_gap) == (None, 0, None)


def test_pattern_single_hit_has_no_gap():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=4)
    rep = pattern_search(cfg, (1,))
    assert (rep.minimal_n, rep.hits, rep.max_gap) == (3, 1, None)


def test_pattern_gaps_survive_chunk_boundaries():
    # mod (2, 2) the scan runs on one thread whatever it is asked for, and
    # mod (2, 3) on helper threads too
    for mods, pattern in itertools.product([(2, 2), (2, 3)], [(0, 0), (1, 0), (0, 1), (1, 1)]):
        wide = ScanConfig(primes=(3, 5), mods=mods, limit=1000)
        narrow = ScanConfig(primes=(3, 5), mods=mods, limit=1000, chunk_size=7)
        a = pattern_search(wide, pattern)
        b = pattern_search(narrow, pattern)
        c = pattern_search(narrow, pattern, threads=4)
        assert (a.minimal_n, a.hits, a.max_gap) == (b.minimal_n, b.hits, b.max_gap)
        assert (a.minimal_n, a.hits, a.max_gap) == (c.minimal_n, c.hits, c.max_gap)


@pytest.mark.parametrize("chunk", [1 << 20, 3**10 + 1])
def test_pattern_pieces_match_int64_oracle(chunk):
    # e_65537(n) = n // 65537 here, so the (1, 2) and (0, 1) hits come in
    # runs of 65537 with gaps that cross several pieces of a chunk, and
    # some pieces have no hit at all
    primes, mods, limit = (3, 65537), (2, 3), 5 * 2**16 + 3
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    residues = [exponent_range(0, limit, p) % m for p, m in zip(primes, mods)]
    for pattern in [(1, 2), (0, 1), (1, 0)]:
        hits = np.flatnonzero((residues[0] == pattern[0]) & (residues[1] == pattern[1]))
        for threads in (1, 2):
            rep = pattern_search(cfg, pattern, threads=threads)
            assert rep.hits == hits.size
            assert rep.minimal_n == int(hits[0])
            assert rep.max_gap == int(np.diff(hits).max())


# bool row tables over blocks of p^J, p^2 and p (on which e_p is constant),
# as m allows, or none where m * p is above 2^18 and the residues are
# compared
HIT_TILE_PRIMES = (2, 3, 5, 257, 263, 509, 521, 65537, 65539)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chunk_hits_match_the_residue_oracle(data):
    primes = data.draw(st.lists(st.sampled_from(HIT_TILE_PRIMES), min_size=1, max_size=3,
                                unique=True))
    mods = data.draw(st.lists(st.integers(2, 250), min_size=len(primes), max_size=len(primes)))
    start = data.draw(st.integers(0, 2**40))
    stop = start + data.draw(st.integers(1, 300_000))
    if data.draw(st.booleans()):
        # the residues of one n in the span, so the pattern has a hit
        n = data.draw(st.integers(start, stop - 1))
        pattern = tuple(legendre_exponent(n, p) % m for p, m in zip(primes, mods))
    else:
        pattern = tuple(data.draw(st.integers(0, m - 1)) for m in mods)
    config = ScanConfig(primes=primes, mods=mods, limit=stop)
    assert config.class_count <= CLASS_CAP
    got = _chunk_hits(config, pattern, start, stop)
    assert got == residue_chunk_hits(config, pattern, start, stop)


# words whose float64 value rounds up, into the next power of two (2^64 - 1,
# 2^54 - 1) or within it (0xE0000000000007FF, 2^63 + 2^11 - 1)
ROUNDING_WORDS = (2**64 - 1, 2**54 - 1, 0xE0000000000007FF, 2**63 + 2**11 - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mask_summary_matches_the_flatnonzero_oracle(data):
    # lengths mostly not whole words, densities from no hit or one to all
    # True, hits on the first and last bit of words, and rounding words
    size = data.draw(st.integers(1, 400))
    density = data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]))
    mask = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(size) < density
    for n in data.draw(st.lists(st.integers(0, size - 1), max_size=2)):
        mask[n] = True
    for j in data.draw(st.lists(st.integers(0, (size - 1) // 64), max_size=3)):
        n = 64 * j + data.draw(st.sampled_from([0, 63]))
        if n < size:
            mask[n] = True
    if size >= 64 and data.draw(st.booleans()):
        j = data.draw(st.integers(0, size // 64 - 1))
        word = np.array([data.draw(st.sampled_from(ROUNDING_WORDS))], dtype="<u8")
        mask[64 * j : 64 * j + 64] = np.unpackbits(word.view(np.uint8), bitorder="little")
    start = data.draw(st.integers(0, 2**62))
    # misses pad the mask to whole words, as in a chunk
    padded = np.zeros(-(-size // 64) * 64, dtype=bool)
    padded[:size] = mask
    words = np.packbits(padded, bitorder="little").view("<u8")
    assert _mask_hits(words, start) == flatnonzero_hits(mask, start)


def test_pattern_search_threads_never_share_a_mask_buffer():
    # eight threads pop and push the mask buffers of one scan while the
    # interpreter switches threads every microsecond: a buffer two chunks
    # wrote at once would change the hits of both
    cfg = ScanConfig(primes=(3, 5), mods=(2, 3), limit=300_000, chunk_size=4099)
    want = residue_chunk_hits(cfg, (1, 2), 0, cfg.limit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        for _ in range(3):
            rep = pattern_search(cfg, (1, 2), threads=8)
            assert (rep.hits, rep.minimal_n, rep.max_gap) == (want[0], want[1], want[3])
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60


def test_joint_histogram_threads_never_share_an_accumulator():
    # eight threads pop and push the accumulators of one scan while the
    # interpreter switches threads every microsecond: two chunks adding
    # their 2^16 class counts into one accumulator at once would lose some
    cfg = ScanConfig(primes=(3, 5), mods=(256, 256), limit=1 << 21, chunk_size=65539)
    want = int32_chunk_histogram(cfg, 0, cfg.limit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.monotonic()
        for _ in range(20):
            assert np.array_equal(joint_histogram(cfg, threads=8).counts.ravel(), want)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - started < 60


@pytest.mark.parametrize("primes,pattern", [((3, 5, 7), (1, 0, 1)), ((3,), (1,))])
def test_chunk_hits_peak_at_most_the_mask_and_half_a_mebibyte(primes, pattern):
    # a 2^20 chunk of a sparse and a dense mask: the 1 MiB mask and the
    # summary of its words stay within the 1.5 MiB that writing out the hit
    # positions of slices took; the first call fills the tile caches
    cfg = ScanConfig(primes=primes, mods=(2,) * len(primes), limit=6 << 20)
    start, stop = 5 << 20, 6 << 20
    want = _chunk_hits(cfg, pattern, start, stop)
    tracemalloc.start()
    try:
        got = _chunk_hits(cfg, pattern, start, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == residue_chunk_hits(cfg, pattern, start, stop)
    assert peak <= 1.5 * 2**20


@pytest.mark.parametrize("primes,mods", [((3, 5, 7), (2, 2, 2)), ((2, 521, 65537), (3, 2, 5)),
                                         ((257, 65539), (4, 7))])
@pytest.mark.parametrize("chunk,limit", [(1, 300), (7, 70_000), (2**16 + 3, 2**18 + 5)])
def test_pattern_search_matches_the_residue_oracle(primes, mods, chunk, limit):
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    for n in (limit // 3, limit - 1):
        pattern = tuple(legendre_exponent(n, p) % m for p, m in zip(primes, mods))
        hits, first, _, gap = residue_chunk_hits(cfg, pattern, 0, limit)
        for threads in (1, 2):
            rep = pattern_search(cfg, pattern, threads=threads)
            assert (rep.hits, rep.minimal_n, rep.max_gap) == (hits, first, gap)


# group tables mod 2 over blocks of 2^10, 3^6, 5^4, 7^3, 11^2, 13^2, 317
# and 1021, and mod 3 over blocks of 2^8, 3^5, 5^3, 7^2, 11^2, 13^2 and 317
# (2, 5, 11 and 317 are 2 mod 3, 3 divides 3); primes without one (1031,
# 65537, and 331 ... 1021 mod 3), whose hits are packed bools; every want,
# every start phase mod 8, ranges moved below the edge of a code page of
# _PAGE groups so that they cross it, and sizes that leave a partial last
# word
@settings(max_examples=120, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 317, 331, 1021, 1031, 65537]),
       st.sampled_from([(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]),
       st.one_of(st.integers(1, 5000), st.integers(1, 300_000), st.integers(250_000, 300_000)),
       st.integers(0, (1 << 62) - (1 << 26)), st.integers(0, 7), st.booleans())
@example(2, (2, 1), 300_000, 0, 3, True)
@example(1021, (2, 0), 77_777, 12_345, 1, True)
@example(13, (2, 1), 1 << 20, (1 << 40) + 13, 5, False)
@example(3, (2, 0), 5, (1 << 62) - (1 << 20) - 5, 3, False)
@example(7, (3, 2), 300_000, 0, 5, True)
@example(317, (3, 0), 77_777, 12_345, 6, True)
@example(331, (3, 1), 77_777, 12_345, 2, True)
@example(3, (3, 1), 5, (1 << 62) - (1 << 20) - 5, 7, False)
def test_packed_parity_hits_are_the_packed_floor_sum_mask(p, mod_want, size, start, phase, cross):
    m, want = mod_want
    gathered = gathers_words(p, m)
    assert gathered == (p <= (1024 if m == 2 else 319))
    if cross and gathered:
        page = 8 * _group_table(p, m).shape[1] * _PAGE
        start = (start // page + 1) * page - 1 - start % max(size - 1, 1)
    start += phase - start % 8
    # whatever the buffer held before is overwritten or masked; the words
    # begin at the byte of start, with misses before it
    buffer = np.random.default_rng(start).integers(0, 256, hit_bytes(size + phase, p, m),
                                                   dtype=np.uint8)
    got = write_hits(buffer, start, size, p, m, want)
    np.testing.assert_array_equal(got, packed_floor_sum_hits(start, size, p, m, want))
    # gathered words are a view of the buffer, packed bools a new array
    assert np.shares_memory(got, buffer) == gathered


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 1021])
def test_parity_group_tables_are_the_doubling_construction(p):
    # mod 2, building one block at a time ORs block i's hits at offset 0
    # or 1 into the table so far, which is flipping block i for the upper
    # half of the codes
    np.testing.assert_array_equal(_group_table(p, 2), doubling_group_table(p))


def test_the_caches_hold_a_scan_narrow_round():
    # the bench's scan-narrow round: three of five primes, each mod 2 or 3,
    # here all to 2^24; a second pass builds no group table and computes
    # no code page
    triples = list(itertools.combinations((3, 5, 7, 11, 13), 3))
    shapes = [(t, m) for t in triples for m in itertools.product((2, 3), repeat=3)]
    assert len(shapes) == 80
    assert all(_plane_route(*shape) and all(map(gathers_words, *shape)) for shape in shapes)
    for _ in range(2):
        misses = _group_table.cache_info().misses, _code_page.cache_info().misses
        for primes, mods in shapes:
            joint_histogram(ScanConfig(primes=primes, mods=mods, limit=1 << 24))
    assert (_group_table.cache_info().misses, _code_page.cache_info().misses) == misses


def test_parity_caches_stay_bounded_while_they_churn(monkeypatch):
    # forty primes below 1031 build forty group tables, and each of four
    # chunks per prime starts on a code page of its own for 3 and for the
    # prime, so both caches churn
    primes = [p for p in range(5, 1024, 2) if all(p % d for d in range(3, p, 2))][::4][:40]
    sizes = []
    real = factexp.experiments.write_hits

    def spy(*args):
        words = real(*args)
        sizes.append((_group_table.cache_info().currsize, _code_page.cache_info().currsize))
        return words

    monkeypatch.setattr(factexp.experiments, "write_hits", spy)
    _group_table.cache_clear()
    _code_page.cache_clear()
    page = 8 * 729 * _PAGE
    for i, p in enumerate(primes):
        cfg = ScanConfig(primes=(3, p), mods=(2, 2), limit=1 << 62)
        for j in range(4):
            start = (7 * (4 * i + j) + 1) * page + 12345 + i
            for pattern in ((1, 0), (0, 1)):
                assert _chunk_hits(cfg, pattern, start, start + 5000) == \
                    residue_chunk_hits(cfg, pattern, start, start + 5000)
    infos = _group_table.cache_info(), _code_page.cache_info()
    for info in infos:
        assert info.misses > 2 * info.maxsize
    assert [info.maxsize for info in infos] == [16, 128]
    assert all(a <= 16 and b <= 128 for a, b in sizes)


def test_hit_tile_cache_stays_bounded_while_it_churns(monkeypatch):
    # every modulus of e_3 near 1000 has a bool row table of its own (m
    # rows of 3^5 blocks), so forty moduli churn the cache
    sizes = []
    real = factexp.experiments.write_hits

    def spy(*args):
        words = real(*args)
        sizes.append(_hit_rows.cache_info().currsize)
        return words

    monkeypatch.setattr(factexp.experiments, "write_hits", spy)
    _hit_rows.cache_clear()
    for m in range(980, 1020):
        cfg = ScanConfig(primes=(3,), mods=(m,), limit=1 << 18, chunk_size=1 << 16)
        want = m // 3
        hits, first, _, gap = residue_chunk_hits(cfg, (want,), 0, cfg.limit)
        assert hits
        for threads in (1, 2):
            rep = pattern_search(cfg, (want,), threads=threads)
            assert (rep.hits, rep.minimal_n, rep.max_gap) == (hits, first, gap)
    info = _hit_rows.cache_info()
    assert info.misses > 2 * info.maxsize
    assert max(sizes) <= info.maxsize == 16


def test_one_bool_hit_table_per_pair():
    # a histogram of (331, 337, 347) mod (3, 3, 3), counted from bool
    # planes of wants 1 and 2, and patterns at every want leave one table
    # per (p, m): the residue table == 1, whose rows every want reads
    # shifted
    cfg = ScanConfig(primes=(331, 337, 347), mods=(3, 3, 3), limit=200_003, chunk_size=65539)
    assert _plane_route(cfg.primes, cfg.mods)
    _hit_rows.cache_clear()
    hist = joint_histogram(cfg)
    for pattern in itertools.product(range(3), repeat=3):
        assert pattern_search(cfg, pattern).hits == hist.counts[pattern]
    info = _hit_rows.cache_info()
    assert info.currsize == info.misses == 3
    for p in cfg.primes:
        hits = _hit_rows(p, 3)
        np.testing.assert_array_equal(hits, _shifted_tiles(p, 3) == 1)
        assert not hits.flags.writeable
    assert _hit_rows.cache_info().misses == 3


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (1031, 2)])
@pytest.mark.parametrize("start,stop", [(0, 1 << 20), (5, 70_003)])
def test_one_prime_pattern_buffer_is_its_hits_alone(p, m, start, stop):
    # no later prime writes past the first's hits, so the buffer a chunk
    # leaves on its spare list is exactly their bytes
    cfg = ScanConfig(primes=(p,), mods=(m,), limit=stop)
    spare = []
    assert _chunk_hits(cfg, (1,), start, stop, spare=spare) == \
        residue_chunk_hits(cfg, (1,), start, stop)
    (buffer,) = spare
    assert buffer.size == hit_bytes(stop - start + start % 8, p, m)


def test_pattern_validation():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=10)
    with pytest.raises(ValueError):
        pattern_search(cfg, (1,))
    with pytest.raises(ValueError):
        pattern_search(cfg, (1, 2))
    with pytest.raises(ValueError):
        pattern_search(cfg, (1, 0), threads=0)


def test_coverage_hand_case():
    rep = pattern_coverage((3, 5), 1000)
    assert rep.minimal.tolist() == [0, 3, 6, 5]
    assert rep.covered_prefix == 2
    assert rep.covered_prefix == len(rep.primes)


def test_coverage_partial():
    rep = pattern_coverage((3, 5), 6)
    assert rep.minimal.tolist() == [0, 3, NO_WITNESS, 5]
    assert rep.covered_prefix == 1
    assert rep.covered_prefix != len(rep.primes)


def test_coverage_single_value():
    rep = pattern_coverage((3, 5), 1)
    assert rep.minimal.tolist() == [0, NO_WITNESS, NO_WITNESS, NO_WITNESS]
    assert rep.covered_prefix == 0


def test_coverage_report_keeps_witnesses_in_a_read_only_int64_array():
    first = np.array([0, 3, NO_WITNESS, 5], dtype=np.int64)
    rep = CoverageReport(primes=(3, 5), limit=6, minimal=first)
    assert rep.minimal.dtype == np.int64 and not rep.minimal.flags.writeable
    # a view of the array passed in, which stays writeable
    assert np.shares_memory(rep.minimal, first) and first.flags.writeable
    with pytest.raises(ValueError):
        rep.minimal[0] = 1
    assert rep.covered_prefix != len(rep.primes)
    # any other sequence of integers is copied into one
    assert (CoverageReport(primes=(3, 5), limit=6, minimal=[0, 3, NO_WITNESS, 5])
            == rep == pattern_coverage((3, 5), 6))
    assert rep != CoverageReport(primes=(3, 5), limit=6, minimal=(0, 3, 4, 5))
    assert rep != CoverageReport(primes=(3, 5), limit=7, minimal=first)
    assert rep != (3, 5)
    with pytest.raises(TypeError):
        hash(rep)
    for wrong in ((0, 3, 5), first.reshape(2, 2), ()):
        with pytest.raises(ValueError, match="need 2\\^2 first witnesses"):
            CoverageReport(primes=(3, 5), limit=6, minimal=wrong)


TEN_ODD_PRIMES = tuple(nth_odd_prime(i) for i in range(1, 11))


def test_covering_limits_match_the_doubling_ladder():
    ladder = tuple(smallest_covering_limit(TEN_ODD_PRIMES[:k]) for k in range(1, 11))
    whole = pattern_coverage(TEN_ODD_PRIMES, 1 << 14)
    assert whole.covered_prefix == 10 and whole.covering_limits() == ladder
    # a shorter scan covers only the prefixes whose N_k it reached
    for limit in (1, 188, 189, 4075, 5000):
        part = pattern_coverage(TEN_ODD_PRIMES, limit)
        assert part.covering_limits() == tuple(n for n in ladder if n <= limit)
        assert len(part.covering_limits()) == part.covered_prefix


def test_covering_limits_to_fourteen_primes_are_frozen():
    primes = tuple(nth_odd_prime(i) for i in range(1, 15))
    limits = pattern_coverage(primes, 1 << 19).covering_limits()
    assert len(limits) == 14
    assert (limits[4], limits[7]) == (188, 4075)
    assert limits[9:] == (13228, 29126, 51517, 135217, 295504)


def test_covering_limits_fold_within_one_half_size_buffer():
    # 2^20 first witnesses (8 MiB): the folds need one 4 MiB buffer, where
    # a fresh array per fold would keep 6 MiB alive at once.  The witnesses
    # are a permutation of [0, 2^20), so every prefix is covered, and each
    # N_i is one more than the largest minimum of a fold, computed here by
    # reshaping instead of halving.
    k = 20
    minimal = np.random.default_rng(5).permutation(1 << k)
    report = CoverageReport(primes=tuple(nth_odd_prime(i) for i in range(1, k + 1)),
                            limit=1 << k, minimal=minimal)
    want = tuple(int(minimal.reshape(1 << (k - i), 1 << i).min(axis=0).max()) + 1
                 for i in range(1, k + 1))
    tracemalloc.start()
    try:
        got = report.covering_limits()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < report.minimal.nbytes // 2 + (1 << 16)


def test_coverage_witnesses_are_real_and_minimal():
    rep = pattern_coverage((3, 5, 7), 5000)
    assert rep.covered_prefix == len(rep.primes)
    for code, n in enumerate(rep.minimal):
        for i, p in enumerate((3, 5, 7)):
            assert legendre_exponent(n, p) % 2 == (code >> i) & 1
    # nothing below each witness carries the same code
    codes = [
        sum((legendre_exponent(n, p) % 2) << i for i, p in enumerate((3, 5, 7)))
        for n in range(max(rep.minimal) + 1)
    ]
    for code, n in enumerate(rep.minimal):
        assert codes.index(code) == n


# Chunk sizes (with the limits that keep them quick) around the tiles of
# the range kernels: 3^10 for p = 3 and 2^16 for p = 2.
TILE_LIMIT = 2 * 3**10 + 2**16 + 5
TILED_CHUNKS = [(1, 300), (7, 70_000), (3**10 - 1, TILE_LIMIT), (3**10, TILE_LIMIT),
                (3**10 + 1, TILE_LIMIT), (2**16 + 3, TILE_LIMIT)]


@pytest.mark.parametrize("chunk,limit", TILED_CHUNKS)
def test_scans_invariant_under_chunk_size_and_threads(chunk, limit):
    primes, mods, pattern = (2, 3, 5), (2, 3, 4), (1, 2, 3)
    whole = ScanConfig(primes=primes, mods=mods, limit=limit)
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    hist = joint_histogram(whole).counts
    pat = pattern_search(whole, pattern)
    for threads in (1, 2, 3):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts, hist)
        got = pattern_search(cfg, pattern, threads=threads)
        assert (got.minimal_n, got.hits, got.max_gap) == (pat.minimal_n, pat.hits, pat.max_gap)
    # twelve primes first cover every parity pattern at n = 59235
    cov_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    assert (pattern_coverage(cov_primes, limit, chunk_size=chunk)
            == pattern_coverage(cov_primes, limit))


@pytest.mark.parametrize("chunk,limit", [(1, 40), (7, 600), (2**16 + 3, 2**17 + 5)])
def test_histogram_at_the_class_cap_is_invariant_under_chunk_size_and_threads(chunk, limit):
    # 2^16 * 2^4 * 2^4 = CLASS_CAP classes, against an int64 class index
    # built from the unreduced floor sum
    primes, mods = (7, 2, 3), (2**16, 2**4, 2**4)
    idx = np.zeros(limit, dtype=np.int64)
    for p, m in zip(primes, mods):
        idx = idx * m + floor_sum_range(0, limit, p) % m
    want = np.bincount(idx, minlength=CLASS_CAP)
    for threads in (1, 2, 3):
        cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
        assert cfg.class_count == CLASS_CAP
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


# ru_maxrss of a child, in KiB, after a warm-up scan and after a scan of
# CLASS_CAP classes on two threads
MEMORY_GATE = """
import resource
from factexp.experiments import ScanConfig, joint_histogram
joint_histogram(ScanConfig(primes=(3, 5, 7), mods=(3, 3, 3), limit=1 << 20), threads=2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
joint_histogram(ScanConfig(primes=(3, 5, 7, 11), mods=(64,) * 4, limit=1 << 24), threads=2)
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# Above the two accumulators, each running chunk holds its uint8 residues
# and int32 class indices (about 6 MiB at the default chunk) and np.add.at's
# piece of 2^17 indices: the rise measured 9.5-11.2 MiB over 2 * 2^24 * 8
# bytes in four runs; a C-entry count array per chunk would add 128 MiB each.
MEMORY_SLACK = 32 << 20


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_class_cap_scan_holds_one_accumulator_per_thread():
    root = os.path.dirname(os.path.dirname(os.path.abspath(factexp.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", MEMORY_GATE], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    before, after = map(int, res.stdout.split())
    assert (after - before) << 10 <= 2 * CLASS_CAP * 8 + MEMORY_SLACK


@pytest.mark.parametrize("chunk,limit", [(1, 600), (7, 20_000), (2**16 + 3, 5 * 2**16 + 11)])
def test_histogram_from_row_tables_is_invariant_under_chunk_size_and_threads(chunk, limit):
    # 3 mod 1078 reads blocks of 3^5 off a 1078-row table (1078 * 3^5 is
    # just inside the 2^18-entry budget), 2 mod 5 blocks of 2^15; a chunk of
    # 2^16 + 3 gathers hundreds of blocks at a time, 1 and 7 read each
    # block off its row.  Against an int64 class index from the floor sum.
    primes, mods = (3, 2), (1078, 5)
    want = np.bincount((floor_sum_range(0, limit, 3) % 1078) * 5 + floor_sum_range(0, limit, 2) % 5,
                       minlength=1078 * 5)
    for threads in (1, 2, 3):
        cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


@settings(max_examples=30)
@given(st.integers(1, 14), st.integers(0, 2**40), st.integers(1, 3000))
def test_chunk_first_codes_match_a_sorting_oracle(k, start, width):
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)[:k]
    codes = np.zeros(2 * width, dtype=np.int64)
    for i, p in enumerate(primes):
        codes |= (exponent_range(start, start + 2 * width, p) % 2) << i
    values, first_at = np.unique(codes[:width], return_index=True)
    want = np.full(1 << k, NO_WITNESS)
    want[values] = start + first_at
    first = np.full(1 << k, NO_WITNESS)
    _chunk_first_codes(primes, first, start, start + width)
    assert np.array_equal(first, want)
    # a minimum: the next span lowers the witnesses alike before or after it
    values, first_at = np.unique(codes, return_index=True)
    want[values] = start + first_at
    _chunk_first_codes(primes, first, start + width, start + 2 * width)
    assert np.array_equal(first, want)
    backward = np.full(1 << k, NO_WITNESS)
    _chunk_first_codes(primes, backward, start + width, start + 2 * width)
    _chunk_first_codes(primes, backward, start, start + width)
    assert np.array_equal(backward, first)


@settings(max_examples=30)
@given(st.integers(1, 10), st.integers(1, 3000))
def test_covered_prefix_matches_a_set_oracle(k, limit):
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[:k]
    rep = pattern_coverage(primes, limit)
    assert rep.covered_prefix == set_covered_prefix(rep)


def test_coverage_chunking_irrelevant():
    a = pattern_coverage((3, 5, 7), 5000)
    b = pattern_coverage((3, 5, 7), 5000, chunk_size=50)
    assert a == b


@pytest.mark.parametrize("chunk", [1, 7, 2**16 + 3])
def test_coverage_stops_at_full_cover_for_any_chunk_size(chunk, monkeypatch):
    # eight primes first cover every parity pattern at n = 4074; the scan
    # must stop with the chunk that covers the last one
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    whole = pattern_coverage(primes, 2**17)
    assert whole.covered_prefix == len(primes) and max(whole.minimal) == 4074
    stops = []
    real = factexp.experiments.exponent_range

    def spy(start, stop, p, mod=None):
        stops.append(stop)
        return real(start, stop, p, mod=mod)

    monkeypatch.setattr(factexp.experiments, "exponent_range", spy)
    assert pattern_coverage(primes, 2**17, chunk_size=chunk) == whole
    assert max(stops) == min(2**17, (4074 // chunk + 1) * chunk)


def test_parity_of_e2_identity():
    # the bit-count oracle against the scalar floor sum and the mod-2 row gather
    direct = exponent_range(0, 3000, 2, mod=2)
    for n in range(3000):
        assert parity_of_e2(n) == legendre_exponent(n, 2) % 2 == direct[n]


def test_parity_of_e2_identity_to_a_million():
    # popcount shortcut against the floor-sum route, vectorized end to end
    ns = np.arange(10**6 + 1, dtype=np.uint64)
    shortcut = (np.bitwise_count(ns >> 1) & 1).astype(np.int64)
    direct = exponent_range(0, 10**6 + 1, 2, mod=2)
    assert np.array_equal(shortcut, direct)


def test_parity_of_e2_exact_balance_at_1e6():
    # frozen from a bit-count recount; the two parity classes split
    # 500000/500000 exactly at this limit
    even = sum(1 for n in range(10**6) if parity_of_e2(n) == 0)
    assert even == 500000
