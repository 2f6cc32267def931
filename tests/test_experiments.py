"""Scan harness: histograms, discrepancy, patterns, coverage.

The stream-based oracle below recounts everything one n at a time in
pure Python, which keeps the vectorized chunk kernels honest.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import factexp.construction
from factexp.construction import verify_congruence
from factexp.exponents import ExponentStream, exponent_range, legendre_exponent
from factexp.experiments import (
    CLASS_CAP,
    ResidueHistogram,
    ScanConfig,
    discrepancy,
    joint_histogram,
    map_spans,
    parity_of_e2,
    pattern_coverage,
    pattern_search,
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
    assert hist.as_dict() == {(0,): 6, (1,): 3}


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
    nonzero = {cls: c for cls, c in hist.as_dict().items() if c}
    assert nonzero == stream_histogram(primes, mods, limit)


@settings(max_examples=25)
@given(st.data())
def test_histogram_matches_stream_oracle_random(data):
    primes = tuple(data.draw(st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3)))
    mods = tuple(data.draw(st.integers(2, 5)) for _ in primes)
    limit = data.draw(st.integers(1, 600))
    chunk = data.draw(st.integers(1, 700))
    hist = joint_histogram(ScanConfig(primes=primes, mods=mods, limit=limit, chunk_size=chunk))
    nonzero = {cls: c for cls, c in hist.as_dict().items() if c}
    assert nonzero == stream_histogram(primes, mods, limit)


def test_histogram_accessors():
    hist = joint_histogram(ScanConfig(primes=(3, 5), mods=(2, 3), limit=500))
    classes = list(hist.classes())
    assert classes[0] == (0, 0)
    assert classes[-1] == (1, 2)
    assert classes == sorted(classes)
    assert sum(hist.count_of(c) for c in classes) == 500
    with pytest.raises(ValueError):
        hist.count_of((0,))
    with pytest.raises(ValueError):
        hist.count_of((2, 0))


def test_histogram_rejects_inconsistent_counts():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=9)
    with pytest.raises(ValueError):
        ResidueHistogram(config=cfg, counts=(6, 3, 0))
    with pytest.raises(ValueError):
        ResidueHistogram(config=cfg, counts=(5, 3))
    with pytest.raises(ValueError):
        ResidueHistogram(config=cfg, counts=(10, -1))


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
    assert flat == [hist.count_of(c) for c in hist.classes()]
    assert ResidueHistogram(config=cfg, counts=flat) == hist
    flat[0], flat[1] = flat[0] - 1, flat[1] + 1
    assert ResidueHistogram(config=cfg, counts=flat) != hist


def test_histogram_rejects_counts_that_wrap_int64():
    # 3 * 2^62 + (2^62 + 3) = 2^64 + 3 sums to 3 in wrapping int64 arithmetic
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=3)
    with pytest.raises(ValueError):
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
    assert rep.minimal == (0, 3, 6, 5)
    assert rep.covered_prefix == 2
    assert rep.complete


def test_coverage_partial():
    rep = pattern_coverage((3, 5), 6)
    assert rep.minimal == (0, 3, None, 5)
    assert rep.covered_prefix == 1
    assert not rep.complete


def test_coverage_single_value():
    rep = pattern_coverage((3, 5), 1)
    assert rep.minimal == (0, None, None, None)
    assert rep.covered_prefix == 0


def test_coverage_witnesses_are_real_and_minimal():
    rep = pattern_coverage((3, 5, 7), 5000)
    assert rep.complete
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


def test_coverage_chunking_irrelevant():
    a = pattern_coverage((3, 5, 7), 5000)
    b = pattern_coverage((3, 5, 7), 5000, chunk_size=50)
    assert a == b


def test_parity_of_e2_identity():
    for n in range(3000):
        assert parity_of_e2(n) == legendre_exponent(n, 2) % 2
    with pytest.raises(ValueError):
        parity_of_e2(-1)


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
