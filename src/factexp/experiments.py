"""Empirical scans over factorial exponents: joint residue histograms,
pattern searches, and parity-pattern coverage.

Everything here counts exactly (int64 all the way through), so results
are independent of chunk size and thread count by construction; the
floating-point summaries in DiscrepancyReport are derived from those
exact counts at the very end.

Histogram counts are a read-only int64 ndarray of shape `mods`, indexed
by class tuple; its C order is the lexicographic order of exports.
"""

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .exponents import exponent_range
from .primes import _U63, is_prime

CLASS_CAP = 1 << 24

__all__ = [
    "CLASS_CAP",
    "ScanConfig",
    "ResidueHistogram",
    "DiscrepancyReport",
    "PatternReport",
    "CoverageReport",
    "map_spans",
    "joint_histogram",
    "discrepancy",
    "pattern_search",
    "pattern_coverage",
    "parity_of_e2",
]


@dataclass(frozen=True)
class ScanConfig:
    """What to scan: k primes, k moduli, the range [0, limit), and the
    chunk width used to stream it."""

    primes: tuple[int, ...]
    mods: tuple[int, ...]
    limit: int
    chunk_size: int = 1 << 20

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "mods", tuple(int(m) for m in self.mods))
        if len(self.primes) < 1:
            raise ValueError("need at least one prime")
        if len(self.primes) != len(self.mods):
            raise ValueError(
                f"got {len(self.primes)} primes but {len(self.mods)} moduli"
            )
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be distinct, got {self.primes}")
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        for m in self.mods:
            if m < 2:
                raise ValueError(f"moduli must be >= 2, got {m}")
        if self.class_count > CLASS_CAP:
            raise ValueError(
                f"{self.class_count} residue classes exceed the cap of {CLASS_CAP}"
            )
        if not 1 <= self.limit < _U63:
            raise ValueError(f"limit must be in [1, 2^63), got {self.limit}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {self.chunk_size}")

    @property
    def k(self) -> int:
        return len(self.primes)

    @property
    def class_count(self) -> int:
        out = 1
        for m in self.mods:
            out *= m
        return out

    def spans(self):
        """The chunk boundaries covering [0, limit)."""
        for start in range(0, self.limit, self.chunk_size):
            yield start, min(start + self.chunk_size, self.limit)


def map_spans(fn, config: ScanConfig, threads: int = 1):
    """Yield fn(start, stop) for each span of config.spans(), in span order.

    With threads > 1 the calls run on a pool that keeps at most `threads`
    of them ahead of the consumer, so memory stays bounded by the chunks
    in flight.  Closing the generator early cancels the calls not yet
    started and waits for the running ones.
    """
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {threads}")
    spans = config.spans()
    if threads == 1:
        yield from itertools.starmap(fn, spans)
        return
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        ahead = deque()
        for span in spans:
            ahead.append(pool.submit(fn, *span))
            if len(ahead) > threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class ResidueHistogram:
    """Exact class counts for one scan, in the layout described in the
    module docstring; the constructor also takes them flat, in that order."""

    config: ScanConfig
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        # reshape raises ValueError unless there is one count per class
        counts = np.array(self.counts, dtype=np.int64).reshape(self.config.mods)
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        # an int64 sum can wrap; split each count so both partial sums stay exact
        total = (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())
        if total != self.config.limit:
            raise ValueError(
                f"counts sum to {total}, but {self.config.limit} integers were scanned"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __eq__(self, other):
        if not isinstance(other, ResidueHistogram):
            return NotImplemented
        return self.config == other.config and np.array_equal(self.counts, other.counts)

    def count_of(self, residues) -> int:
        residues = tuple(residues)
        if len(residues) != self.config.k:
            raise ValueError(f"expected {self.config.k} residues, got {len(residues)}")
        for a, m in zip(residues, self.config.mods):
            if not 0 <= a < m:
                raise ValueError(f"residue {a} out of range for modulus {m}")
        return int(self.counts[residues])

    def classes(self):
        """All class tuples in lexicographic order."""
        return itertools.product(*(range(m) for m in self.config.mods))

    def as_dict(self):
        return dict(zip(self.classes(), self.counts.ravel().tolist()))


def _chunk_histogram(config: ScanConfig, start: int, stop: int) -> np.ndarray:
    idx = np.zeros(stop - start, dtype=np.int64)
    for p, m in zip(config.primes, config.mods):
        idx *= m
        idx += exponent_range(start, stop, p, mod=m)
    return np.bincount(idx, minlength=config.class_count)


def joint_histogram(config: ScanConfig, threads: int = 1) -> ResidueHistogram:
    """Count n in [0, limit) by the tuple (e_p(n) mod m) over the
    configured prime/modulus pairs.

    Chunks may be computed on a thread pool; the merge is a plain sum of
    exact integer arrays, so the outcome never depends on scheduling.
    """
    total = np.zeros(config.class_count, dtype=np.int64)
    for part in map_spans(partial(_chunk_histogram, config), config, threads):
        total += part
    return ResidueHistogram(config=config, counts=total)


@dataclass(frozen=True)
class DiscrepancyReport:
    """How far a histogram sits from the equidistributed ideal
    limit / (m_1 * ... * m_k) per class."""

    main_term: float
    max_abs_dev: float
    max_rel_dev: float
    worst_class: tuple[int, ...]


def discrepancy(hist: ResidueHistogram) -> DiscrepancyReport:
    """Worst absolute and relative deviation from the uniform main term.

    Ties on the deviation pick the lexicographically smallest class, so
    the report is reproducible.
    """
    main = hist.config.limit / hist.config.class_count
    devs = np.abs(hist.counts - main)
    # argmax takes the first maximum, and C order is lexicographic
    worst = np.unravel_index(np.argmax(devs), hist.config.mods)
    worst_dev = float(devs[worst])
    return DiscrepancyReport(
        main_term=main,
        max_abs_dev=worst_dev,
        max_rel_dev=worst_dev / main,
        worst_class=tuple(int(a) for a in worst),
    )


@dataclass(frozen=True)
class PatternReport:
    """Occurrences of one residue tuple: how many n hit it, the first
    such n, and the widest gap between consecutive hits."""

    config: ScanConfig
    pattern: tuple[int, ...]
    minimal_n: int | None
    hits: int
    max_gap: int | None


def _chunk_hits(config: ScanConfig, pattern, start: int, stop: int):
    mask = np.ones(stop - start, dtype=bool)
    for p, m, want in zip(config.primes, config.mods, pattern):
        mask &= exponent_range(start, stop, p, mod=m) == want
    where = np.flatnonzero(mask)
    if where.size == 0:
        return 0, None, None, None
    inner = int(np.diff(where).max()) if where.size >= 2 else None
    return int(where.size), start + int(where[0]), start + int(where[-1]), inner


def pattern_search(config: ScanConfig, pattern, threads: int = 1) -> PatternReport:
    """Scan [0, limit) for n whose residue tuple equals `pattern`.

    max_gap is None when there are fewer than two hits; leading and
    trailing runs without hits do not count as gaps.
    """
    pattern = tuple(int(a) for a in pattern)
    if len(pattern) != config.k:
        raise ValueError(f"pattern length {len(pattern)} does not match k = {config.k}")
    for a, m in zip(pattern, config.mods):
        if not 0 <= a < m:
            raise ValueError(f"pattern entry {a} out of range for modulus {m}")
    parts = map_spans(partial(_chunk_hits, config, pattern), config, threads)
    hits = 0
    minimal = None
    prev_last = None
    max_gap = None
    for count, first, last, inner in parts:
        if count == 0:
            continue
        hits += count
        if minimal is None:
            minimal = first
        if prev_last is not None:
            boundary = first - prev_last
            max_gap = boundary if max_gap is None else max(max_gap, boundary)
        if inner is not None:
            max_gap = inner if max_gap is None else max(max_gap, inner)
        prev_last = last
    return PatternReport(
        config=config, pattern=pattern, minimal_n=minimal, hits=hits, max_gap=max_gap
    )


@dataclass(frozen=True)
class CoverageReport:
    """Which parity patterns over a prime tuple appear below the limit.

    minimal[c] is the first n whose parity code is c (bit i of c is the
    parity of the exponent of primes[i]), or None if c never showed up.
    covered_prefix is the longest k' such that every pattern over the
    first k' primes has a witness.
    """

    primes: tuple[int, ...]
    limit: int
    minimal: tuple
    covered_prefix: int

    @property
    def complete(self) -> bool:
        return all(n is not None for n in self.minimal)


def _chunk_first_codes(primes, start: int, stop: int):
    codes = np.zeros(stop - start, dtype=np.int64)
    for i, p in enumerate(primes):
        codes |= exponent_range(start, stop, p, mod=2) << i
    values, first_at = np.unique(codes, return_index=True)
    return start, values, first_at


def pattern_coverage(primes, limit: int, chunk_size: int = 1 << 20) -> CoverageReport:
    """First witnesses for all 2^k parity patterns of (e_p(n))_p below
    `limit`, stopping the scan early once every pattern has one."""
    primes = tuple(int(p) for p in primes)
    config = ScanConfig(primes=primes, mods=(2,) * len(primes), limit=limit,
                        chunk_size=chunk_size)
    k = len(primes)
    total = 1 << k
    minimal = [None] * total
    found = 0
    for start, values, first_at in map_spans(partial(_chunk_first_codes, primes), config):
        for v, at in zip(values.tolist(), first_at.tolist()):
            if minimal[v] is None:
                minimal[v] = start + at
                found += 1
        if found == total:
            break
    covered_prefix = 0
    seen = {c for c, n in enumerate(minimal) if n is not None}
    for kp in range(k, 0, -1):
        mask = (1 << kp) - 1
        if len({c & mask for c in seen}) == 1 << kp:
            covered_prefix = kp
            break
    return CoverageReport(
        primes=primes, limit=limit, minimal=tuple(minimal), covered_prefix=covered_prefix
    )


def parity_of_e2(n: int) -> int:
    """Parity of the exponent of 2 in n!, straight from the binary
    expansion: it is the bit-count of n >> 1 mod 2."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return (n >> 1).bit_count() & 1
