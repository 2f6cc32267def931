"""Empirical scans over factorial exponents: joint residue histograms,
pattern searches, and parity-pattern coverage.

Everything here counts exactly, so results are independent of chunk
size and thread count by construction: the kernels hand over residues in
narrow unsigned dtypes, and one fold, `_class_indices`, reads them as the
mixed-radix digits of a class index in the narrowest of uint8, uint16
and int32 that holds every index (at most CLASS_CAP = 2**24 classes):
the histogram's classes, and with moduli 2 the parity codes of the
coverage scan.  Each prime writes its pattern hits into a bool buffer by
row gathers from cached bool tables (at most 4 MiB, see
`exponents.write_exponent_hits`), packed and ANDed into 64-bit words,
whose set bits are counted and whose first and last come from exact
float64 exponents.  Counts and first witnesses are int64.  The
floating-point summaries in DiscrepancyReport are derived from those
exact counts at the very end.

A histogram scan of C classes keeps one int64 accumulator of C counts
per running chunk, reused by the chunks that run after it, so it holds
at most `threads` of them, summed once at the end.  A chunk of at least
C indices is counted by np.bincount, added into the accumulator: uint8
indices as uint16 pair keys of 256 * C bins, the others with C bins.  A
shorter chunk is counted by np.add.at on the accumulator, so no chunk
allocates C counts of its own.  Either route takes its keys in counting
pieces of max(2**17, 8 * bins) (bins = 0 for np.add.at), or the whole
chunk when shorter, so the intp copy of the keys never outgrows a piece.
The counts of a scan take threads * C int64 plus one piece per running
chunk.

Histogram counts are a read-only int64 ndarray of shape `mods`, indexed
by class tuple; its C order is the lexicographic order of exports.

Histogram and pattern scans run their chunks through one driver,
`map_spans`: on t threads, the calling thread and up to t - 1 helper
threads, started once per process and kept between calls, each take the
next chunk nobody has taken, and the results come back in chunk order.
A scan of one chunk, or on one thread, starts no thread.
"""

import itertools
import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .exponents import _PIECE, exponent_range, write_exponent_hits
from .primes import _U63, _shown, is_prime

CLASS_CAP = 1 << 24
CHUNK_SIZE = 1 << 20
THREAD_CAP = 256
# the first-witness entry of a parity code that has none: no n reaches it
NO_WITNESS = np.iinfo(np.int64).max

__all__ = [
    "CLASS_CAP",
    "CHUNK_SIZE",
    "THREAD_CAP",
    "NO_WITNESS",
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
]


@dataclass(frozen=True)
class ScanConfig:
    """What to scan: k primes, k moduli, the range [0, limit), and the
    chunk width used to stream it."""

    primes: tuple[int, ...]
    mods: tuple[int, ...]
    limit: int
    chunk_size: int = CHUNK_SIZE

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(int(p) for p in self.primes))
        object.__setattr__(self, "mods", tuple(int(m) for m in self.mods))
        if len(self.primes) < 1:
            raise ValueError("need at least one prime")
        if len(self.primes) != len(self.mods):
            raise ValueError(
                f"got {len(self.primes)} primes but {len(self.mods)} moduli"
            )
        # primes first, so that the distinct check prints none past 2**64
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"{_shown(p)} is not prime")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError(f"primes must be distinct, got {self.primes}")
        for m in self.mods:
            if m < 2:
                raise ValueError(f"moduli must be >= 2, got {_shown(m)}")
        if self.class_count > CLASS_CAP:
            raise ValueError(f"the residue class count must be at most {CLASS_CAP}, "
                             f"got {_shown(self.class_count)}")
        if not 1 <= self.limit < _U63:
            raise ValueError(f"limit must be in [1, 2^63), got {_shown(self.limit)}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {_shown(self.chunk_size)}")

    @property
    def k(self) -> int:
        return len(self.primes)

    @property
    def class_count(self) -> int:
        return math.prod(self.mods)

    def spans(self):
        """The chunk boundaries covering [0, limit)."""
        for start in range(0, self.limit, self.chunk_size):
            yield start, min(start + self.chunk_size, self.limit)


# The kept helper threads: (pid, workers, executor), built on first need.
_pool = None
_pool_lock = threading.Lock()


def _kept_pool(workers: int) -> ThreadPoolExecutor:
    """This process's kept executor, with at least `workers` threads: one
    that is smaller is replaced and shut down without waiting, and one
    built by another pid is rebuilt, since a forked child inherits the
    executor but not its threads."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < workers:
            if _pool is not None and _pool[0] == os.getpid():
                _pool[2].shutdown(wait=False)
            _pool = os.getpid(), workers, ThreadPoolExecutor(max_workers=workers)
        return _pool[2]


def map_spans(fn, config: ScanConfig, threads: int = 1):
    """Yield fn(start, stop) for each span of config.spans(), in span order.

    With threads > 1 and more than one span, the calling thread and up to
    threads - 1 helpers, kept by the process between calls, each take the
    next span nobody has taken, so at most `threads` calls run at once and
    a slow span holds up no other thread.  A span starts only while its
    index is at most `threads` past the oldest span not yet yielded.  A
    call of one span, or on one thread, starts no thread.  More than
    THREAD_CAP threads are refused before any starts.  A span's exception
    is raised in its place in span order; then, or when the generator is
    closed early, no span starts and the running ones are waited for.
    """
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {_shown(threads)}")
    if threads > THREAD_CAP:
        raise ValueError(f"thread count must be at most {THREAD_CAP}, got {_shown(threads)}")
    spans = config.spans()
    count = -(-config.limit // config.chunk_size)
    helpers = min(threads, count) - 1
    if helpers < 1:
        yield from itertools.starmap(fn, spans)
        return
    cond = threading.Condition()
    done = {}  # span index: (raised, result or exception), until yielded
    taken = oldest = 0
    stop = False

    def work(ready):
        # take and run spans until ready(), read under cond, holds
        nonlocal taken
        while True:
            with cond:
                while not ready() and (stop or taken == count or taken > oldest + threads):
                    cond.wait()
                if ready():
                    return
                i, span = taken, next(spans)
                taken += 1
            try:
                out = False, fn(*span)
            except BaseException as exc:
                out = True, exc
            with cond:
                done[i] = out
                cond.notify_all()

    pool = _kept_pool(threads - 1)
    futures = [pool.submit(work, lambda: stop or taken == count) for _ in range(helpers)]
    try:
        for i in range(count):
            # the caller takes spans too, until span i is done
            work(lambda: i in done)
            with cond:
                raised, value = done.pop(i)
                if not raised:
                    oldest = i + 1
                    cond.notify_all()
            if raised:
                raise value
            yield value
    finally:
        with cond:
            stop = True
            cond.notify_all()
        # cancel the helpers not started, and wait for the others
        for future in futures:
            if not future.cancel():
                future.result()


@dataclass(frozen=True)
class ResidueHistogram:
    """Exact class counts for one scan, in the layout described in the module
    docstring (also taken flat); kept without a copy when int64 C-contiguous."""

    config: ScanConfig
    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        # reshape raises ValueError unless there is one count per class
        counts = np.asarray(self.counts, dtype=np.int64, order="C").reshape(self.config.mods)
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        # an int64 sum can wrap; sum the high and low halves exactly, by pieces
        flat = counts.ravel()
        total = sum((int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())
                    for x in np.split(flat, range(_PIECE, flat.size, _PIECE)))
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


def _fold_dtype(class_count: int) -> np.dtype:
    """The narrowest dtype that holds every class index below class_count."""
    if class_count <= 1 << 8:
        return np.dtype(np.uint8)
    return np.dtype(np.uint16 if class_count <= 1 << 16 else np.int32)


@contextmanager
def _scratch(spare, size: int, make):
    """An array of at least `size` elements popped off the list `spare`, or
    make(size) when the list is empty (or None) or its array is shorter.
    It goes back on the list when the block ends, so the calls of one scan
    hold as many arrays as run at once."""
    spare = [] if spare is None else spare
    try:
        array = spare.pop()
    except IndexError:
        array = make(size)
    if array.size < size:
        array = make(size)
    yield array
    spare.append(array)


def _class_indices(primes, mods, start: int, stop: int) -> np.ndarray:
    """The class index of each n in [start, stop): the digits e_p(n) mod m
    read in the mixed radix of `mods`, the first prime's the most
    significant, in `_fold_dtype` of the class count."""
    pairs = zip(primes, mods)
    p, m = next(pairs)
    # every partial class index is below the class count too
    idx = exponent_range(start, stop, p, mod=m).astype(_fold_dtype(math.prod(mods)), copy=False)
    for p, m in pairs:
        idx *= m
        idx += exponent_range(start, stop, p, mod=m)
    return idx


# The shortest counting piece: its intp copy (1 MiB) stays in the L2 cache.
_COUNT_PIECE = 1 << 17


def _pieces(keys: np.ndarray, bins: int):
    """`keys` in counting pieces of max(_COUNT_PIECE, 8 * bins), or whole
    when shorter: np.bincount copies a piece to intp, and its bins-entry
    result is added into the counts once per piece, so that addition stays
    an eighth of the work or less."""
    step = max(_COUNT_PIECE, 8 * bins)
    return (keys[lo : lo + step] for lo in range(0, keys.size, step))


def _chunk_histogram(config: ScanConfig, start: int, stop: int, *, spare=None) -> np.ndarray:
    """Add the class counts of [start, stop) into an int64 accumulator of
    config.class_count entries, in flat C order, and return it.  The
    accumulator is popped off the list `spare` and pushed back after, so
    the calls of one scan hold as many accumulators as run at once."""
    classes = config.class_count
    idx = _class_indices(config.primes, config.mods, start, stop)
    with _scratch(spare, classes, partial(np.zeros, dtype=np.int64)) as counts:
        if classes > idx.size:
            # a bincount would write more classes than the chunk has indices
            for piece in _pieces(idx, 0):
                np.add.at(counts, piece, 1)
        elif idx.dtype == np.uint8:
            # counted in pairs, all but an odd last one: a uint16 view entry is one
            # index plus 256 times the other, in either byte order, so the row sums
            # count one index of each pair and the column sums the other
            if idx.size & 1:
                counts[idx[-1]] += 1
            for piece in _pieces(idx[: idx.size & ~1].view(np.uint16), 256 * classes):
                table = np.bincount(piece, minlength=256 * classes).reshape(classes, 256)
                counts += table.sum(axis=1)
                counts += table[:, :classes].sum(axis=0)
        else:
            for piece in _pieces(idx, classes):
                counts += np.bincount(piece, minlength=classes)
    return counts


def joint_histogram(config: ScanConfig, threads: int = 1) -> ResidueHistogram:
    """Count n in [0, limit) by the tuple (e_p(n) mod m) over the
    configured prime/modulus pairs.

    Chunks may run on several threads, each thread taking the next chunk
    nobody has taken (`map_spans`).  Each adds its counts into an int64
    accumulator that no other running chunk holds, so a scan holds at
    most `threads` of them, and they are summed once at the end (see
    the module docstring for the two counting routes and the memory
    bound).  The counts are exact integers, so the outcome never depends
    on scheduling.
    """
    spare = []
    deque(map_spans(partial(_chunk_histogram, config, spare=spare), config, threads), maxlen=0)
    total = spare.pop()
    for part in spare:
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


# (hits, first hit, last hit, largest gap between consecutive hits) of a span
_NO_HITS = (0, None, None, None)


def _join_hits(a, b):
    """The hit summary of two adjacent spans, a before b."""
    if not b[0]:
        return a
    if not a[0]:
        return b
    gap = max(g for g in (a[3], b[3], b[1] - a[2]) if g is not None)
    return a[0] + b[0], a[1], b[2], gap


def _gap_in_words(words: np.ndarray, first: int, last: int, floor: int) -> int:
    """The widest gap between consecutive hits inside one of the nonzero
    `words`, or `floor` if none is wider; `first` is the lowest set bit of
    the first word, `last` the highest of the last, and 0 < floor < 63 is
    the widest gap across words (1 if one word holds every hit).  A run of
    misses that reaches the edge of a word is part of a gap across words,
    so shorter than `floor`, unless it lies before the first hit or after
    the last; those are cleared.  The misses are reduced by y &= y >> s,
    doubling s, to the starts of runs of `floor` misses, which are then
    lengthened one miss at a time while any is left."""
    y = ~words
    y[0] = int(y[0]) >> (first + 1) << (first + 1)
    y[-1] = int(y[-1]) & ((1 << last) - 1)
    shifted = np.empty_like(y)
    have, gap = 1, floor
    while have < gap:
        step = min(have, gap - have)
        y &= np.right_shift(y, np.uint64(step), out=shifted)
        have += step
    del shifted
    if not y.any():
        return floor
    y = y[y != 0]
    while y.size:
        gap += 1
        y &= y >> np.uint64(1)
        y = y[y != 0]
    return gap


def _mask_hits(words: np.ndarray, start: int):
    """The hit summary of a mask over n = start, start + 1, ... held as
    little-endian 64-bit words: bit i of word j is n = start + 64j + i.
    The count is a popcount of the words.  The lowest set bit of a word w
    and the highest of w >> 1, one place below that of w, are float64
    exponents, read in one pass over both.  The widest gap is the widest
    across the edge of two nonzero words, 64 more per zero word between,
    or one inside a word (`_gap_in_words`)."""
    count = np.bitwise_count(words)
    hits, carry = int(count.sum()), count.max() >= 53
    del count
    if not hits:
        return _NO_HITS
    n = words.size
    # w & -w alone at the front, a power of two, and w >> 1 behind, both
    # below 2**63, turned to float64 in place (the cast goes element by
    # element); frexp's exponent is the position of the highest set bit
    # plus one, and 0 for 0
    bits = np.empty(2 * n, dtype=np.uint64)
    np.negative(words, out=bits[:n])
    bits[:n] &= words
    np.right_shift(words, np.uint64(1), out=bits[n:])
    floats = bits.view(np.float64)
    np.copyto(floats, bits.view(np.int64), casting="unsafe")
    exponents = np.frexp(floats, out=(floats, np.empty(2 * n, dtype=np.int8)))[1]
    del bits, floats
    # one more than the lowest set bit, 0 for a zero word; and the highest,
    # 0 for a zero word, unless w >> 1 rounded up to the next power of two,
    # which takes 53 set bits (`carry`): then w >> high is 0, as numpy
    # defines shifts past the width
    above_low, high = exponents[:n], exponents[n:]
    if carry:
        high -= np.right_shift(words, high.view(np.uint8)) == 0
    # the first and last nonzero word, w0 and w1, and the zero words between
    zeros = n - np.count_nonzero(above_low)
    w0, w1 = 0, n - 1
    if zeros:
        nonzero = above_low != 0
        if not nonzero[0]:
            w0 = int(nonzero.argmax())
        if not nonzero[-1]:
            w1 -= int(nonzero[::-1].argmax())
        zeros -= w0 + n - 1 - w1
    # the gap across the edge of words j and j + 1 is 63 + above_low[j + 1]
    # - high[j]; where either is zero (high 0 or -1) it reads at most 64 +
    # above_low[j + 1], no more than the gap across that zero word
    gap = int(hits > 1)
    if w1 > w0:
        gap = int(np.subtract(above_low[w0 + 1 : w1 + 1], high[w0:w1], dtype=np.int16).max()) + 63
    if zeros:
        # the runs of zero words start and end in turn, each between the
        # nonzero words `before` and `after`
        edges = np.flatnonzero(nonzero[w0:w1] != nonzero[w0 + 1 : w1 + 1])
        edges += w0
        before, after = edges[0::2], edges[1::2] + 1
        runs = (after - before) << 6
        runs += above_low[after]
        runs -= high[before]
        gap = max(gap, int(runs.max()) - 1)
    first, last = 64 * w0 + int(above_low[w0]) - 1, 64 * w1 + int(high[w1])
    if 0 < gap < 63:
        # no word between the first and last nonzero ones is zero
        gap = _gap_in_words(words[w0 : w1 + 1], first - 64 * w0, last - 64 * w1, gap)
    return hits, start + first, start + last, gap or None


def _chunk_hits(config: ScanConfig, pattern, start: int, stop: int, *, spare=None):
    """The hit summary of `pattern` on [start, stop).  Each prime writes its
    hits into a bool buffer (`exponents.write_exponent_hits`), padded with
    misses to whole 64-bit words, and packs it into words: the first
    prime's words are the chunk's, and each later prime's are ANDed into
    them.  The buffer is popped off the list `spare` and pushed back after,
    so the calls of one scan hold as many buffers as run at once."""
    size = stop - start
    width = -(-size // 64) * 64
    with _scratch(spare, width, partial(np.empty, dtype=bool)) as buffer:
        mask = buffer[:width]
        mask[size:] = False

        def packed(p, m, want):
            write_exponent_hits(mask[:size], start, p, m, want)
            return np.packbits(mask, bitorder="little").view("<u8")

        # ANDed in place, so at most one packed prime is alive beside the words
        words = reduce(operator.iand, itertools.starmap(packed, zip(config.primes, config.mods, pattern)))
    return _mask_hits(words, start)


def pattern_search(config: ScanConfig, pattern, threads: int = 1) -> PatternReport:
    """Scan [0, limit) for n whose residue tuple equals `pattern`: per chunk, each
    prime's hits are row gathers from cached bool tables (4 MiB in all) into a
    buffer reused across chunks, packed into 64-bit words and ANDed, and the
    words are summarized whole, without writing out a hit position (`_mask_hits`).
    On several threads each thread takes the next chunk nobody has taken
    (`map_spans`), and the chunk summaries are joined in chunk order.

    max_gap is None when there are fewer than two hits; leading and
    trailing runs without hits do not count as gaps.
    """
    pattern = tuple(int(a) for a in pattern)
    if len(pattern) != config.k:
        raise ValueError(f"pattern length {len(pattern)} does not match k = {config.k}")
    for a, m in zip(pattern, config.mods):
        if not 0 <= a < m:
            raise ValueError(f"pattern entry {_shown(a)} out of range for modulus {m}")
    parts = map_spans(partial(_chunk_hits, config, pattern, spare=[]), config, threads)
    hits, minimal, _, max_gap = reduce(_join_hits, parts, _NO_HITS)
    return PatternReport(
        config=config, pattern=pattern, minimal_n=minimal, hits=hits, max_gap=max_gap
    )


@dataclass(frozen=True)
class CoverageReport:
    """Which parity patterns over a prime tuple appear below the limit.

    minimal[c] is the first n whose parity code is c (bit i of c is the
    parity of the exponent of primes[i]), or NO_WITNESS if c never showed
    up.  It is a read-only int64 array of 2^k entries, a view when an
    int64 array is passed in.  covered_prefix, read off it, is the longest
    k' such that every pattern over the first k' primes has a witness.
    """

    primes: tuple[int, ...]
    limit: int
    minimal: np.ndarray = field(repr=False)

    def __post_init__(self):
        minimal = np.asarray(self.minimal, dtype=np.int64).view()
        if minimal.shape != (1 << len(self.primes),):
            raise ValueError(f"need 2^{len(self.primes)} first witnesses, got {minimal.size}")
        minimal.flags.writeable = False
        object.__setattr__(self, "minimal", minimal)

    def __eq__(self, other):
        if not isinstance(other, CoverageReport):
            return NotImplemented
        return ((self.primes, self.limit) == (other.primes, other.limit)
                and np.array_equal(self.minimal, other.minimal))

    @property
    def covered_prefix(self) -> int:
        return len(self.covering_limits())

    def covering_limits(self) -> tuple[int, ...]:
        """(N_1, ..., N_j): N_i is the least N below which every parity
        pattern over the first i primes has a witness, and j is the longest
        prefix of primes so covered, covered_prefix."""
        tops = []
        first = self.minimal
        # halving folds away the top bit: first witnesses over one prime fewer;
        # the first fold makes one half-size buffer, and the rest fold within it
        for i in range(len(self.primes)):
            tops.append(int(first.max()))
            half = first.size // 2
            first = np.minimum(first[:half], first[half:], out=first[:half] if i else None)
        # N_i grows with i, so the first prefix with a pattern unseen ends it
        covered = itertools.takewhile(lambda top: top != NO_WITNESS, reversed(tops))
        return tuple(top + 1 for top in covered)


def _chunk_first_codes(primes, first: np.ndarray, start: int, stop: int) -> int:
    """Lower first[c] to the smallest n in [start, stop) with parity code
    c, and return stop; bit i of the code is the parity of
    e_{primes[i]}(n).  A minimum, so spans may come in any order."""
    # reversed, so that the parity of e_{primes[i]} is binary digit i
    codes = _class_indices(primes[::-1], (2,) * len(primes), start, stop)
    for lo in range(0, codes.size, _PIECE):
        piece = codes[lo : lo + _PIECE]
        np.minimum.at(first, piece, np.arange(start + lo, start + lo + piece.size, dtype=np.int64))
    return stop


def pattern_coverage(primes, limit: int, chunk_size: int = CHUNK_SIZE) -> CoverageReport:
    """First witnesses for all 2^k parity patterns of (e_p(n))_p below
    `limit`, stopping the scan early once every pattern has one."""
    primes = tuple(int(p) for p in primes)
    config = ScanConfig(primes=primes, mods=(2,) * len(primes), limit=limit,
                        chunk_size=chunk_size)
    first = np.full(1 << len(primes), NO_WITNESS, dtype=np.int64)
    # An integer is the witness of one pattern at most, so a test that finds
    # m patterns missing shows the pass incomplete for m more integers: testing
    # only from `due` on still stops with the chunk that completes it.  A test
    # counts all 2^k entries while more than 1/16 of them are missing, and then
    # checks the list of the missing ones alone, so it reads at most 16 entries
    # per integer scanned since the last test.
    due, missing = first.size, None
    # map_spans runs one thread here, so no two chunks lower `first` at once
    # (np.minimum.at takes no lock); the order they come in does not matter
    for stop in map_spans(partial(_chunk_first_codes, primes, first), config):
        if stop < due:
            continue
        if missing is None:
            absent = first == NO_WITNESS
            left = int(np.count_nonzero(absent))
            if left <= first.size // 16:
                missing = np.flatnonzero(absent)
        else:
            missing = missing[first[missing] == NO_WITNESS]
            left = missing.size
        if not left:
            break
        due = stop + left
    return CoverageReport(primes=primes, limit=limit, minimal=first)
