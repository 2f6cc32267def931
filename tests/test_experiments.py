"""Scan harness: histograms, discrepancy, patterns, coverage.

The stream-based oracle below recounts everything one n at a time in
pure Python, which keeps the vectorized chunk kernels honest.
"""

import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factexp
import factexp.construction
from factexp.construction import verify_congruence
from factexp.exponents import _hit_rows, exponent_range, legendre_exponent
from factexp.primes import nth_odd_prime
from factexp.experiments import (
    CLASS_CAP,
    NO_WITNESS,
    THREAD_CAP,
    _chunk_first_codes,
    _chunk_histogram,
    _chunk_hits,
    _fold_dtype,
    _mask_hits,
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
    flatnonzero_hits,
    floor_sum_range,
    int32_chunk_histogram,
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
# A piece holds max(2^17, 8 bins) keys: a uint8 pair key (two indices) has
# 256 C bins, any other index C.
LONG_SPANS = [
    ((2, 3, 5), 5 * 2**17 + 1),          # uint8, pieces of 2^17 pair keys
    ((256,), 5 * 2**19 + 1),             # uint8, pieces of 2^19 pair keys
    ((257,), 5 * 2**16 + 1),             # uint16, pieces of 2^17
    ((16, 16, 256), 5 * 2**18 + 1),      # uint16, pieces of 2^19
]


@pytest.mark.parametrize("mods,width", LONG_SPANS)
def test_chunk_histogram_of_many_counting_pieces_matches_the_int32_oracle(mods, width):
    primes = (3, 5, 7)[: len(mods)]
    start = 2**40 + 12345
    cfg = ScanConfig(primes=primes, mods=mods, limit=start + width)
    assert np.array_equal(_chunk_histogram(cfg, start, start + width),
                          int32_chunk_histogram(cfg, start, start + width))


@pytest.mark.parametrize("chunk,limit", [(1, 40), (7, 600), (65539, 2 * 65539 + 9)])
@pytest.mark.parametrize("mods", [(2, 150), (257, 510), (64, 64, 64)])
def test_histogram_of_more_classes_than_the_chunk_matches_the_int32_oracle(chunk, limit, mods):
    # up to 2^18 classes, more than a chunk holds: counted by np.add.at
    primes = (3, 5, 7)[: len(mods)]
    cfg = ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk)
    want = int32_chunk_histogram(cfg, 0, limit)
    for threads in (1, 2):
        assert np.array_equal(joint_histogram(cfg, threads=threads).counts.ravel(), want)


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
    assert len(started) <= 3
    time.sleep(0.05)
    assert len(started) <= 3


def test_map_spans_runs_on_the_caller_and_at_most_threads_at_once():
    # three threads: two pool workers and the calling thread, which runs
    # the first span of every round itself
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
    assert [s for s, t in ran_on.items() if t == threading.get_ident()] == list(range(0, 30, 3))


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


def test_verify_congruence_checks_limit_before_any_chunk(monkeypatch):
    calls = []
    monkeypatch.setattr(factexp.construction, "evaluate_range",
                        lambda *args, **kwargs: calls.append(args))
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
    wide = ScanConfig(primes=(3, 5), mods=(2, 2), limit=1000)
    narrow = ScanConfig(primes=(3, 5), mods=(2, 2), limit=1000, chunk_size=7)
    for pattern in [(0, 0), (1, 0), (0, 1), (1, 1)]:
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


def test_hit_tile_cache_stays_bounded_while_it_churns(monkeypatch):
    # every pattern entry of e_3 mod 1000 has a bool row table of its own
    # (1000 rows of 3^5 blocks), so forty entries churn the cache
    cfg = ScanConfig(primes=(3,), mods=(1000,), limit=1 << 18, chunk_size=1 << 16)
    sizes = []
    real = factexp.experiments.write_exponent_hits

    def spy(*args):
        real(*args)
        sizes.append(_hit_rows.cache_info().currsize)

    monkeypatch.setattr(factexp.experiments, "write_exponent_hits", spy)
    _hit_rows.cache_clear()
    for want in range(0, 1000, 25):
        hits, first, _, gap = residue_chunk_hits(cfg, (want,), 0, cfg.limit)
        assert hits
        for threads in (1, 2):
            rep = pattern_search(cfg, (want,), threads=threads)
            assert (rep.hits, rep.minimal_n, rep.max_gap) == (hits, first, gap)
    info = _hit_rows.cache_info()
    assert info.misses > 2 * info.maxsize
    assert max(sizes) <= info.maxsize == 16


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
    for threads in (1, 2):
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
    for threads in (1, 2):
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
    for threads in (1, 2):
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
