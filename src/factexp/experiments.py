"""Empirical scans over factorial exponents: joint residue histograms,
pattern searches, and parity-pattern coverage.

Everything here counts exactly, so results are independent of chunk
size and thread count by construction: the kernels hand over residues in
narrow unsigned dtypes, and one fold, `_class_indices`, reads them as the
mixed-radix digits of a class index in the narrowest of uint8, uint16
and int32 that holds every index (at most CLASS_CAP = 2**24 classes):
the histogram's classes, and with moduli 2 the parity codes of the
coverage scan.  Hits come only as packed 64-bit words from the byte of
the chunk's start, written by the one hit writer `exponents.write_hits`
into a buffer of `exponents.hit_bytes` bytes reused across chunks: the
words of a pattern's primes are ANDed, their set bits counted, and their
first and last read off exact float64 exponents.  How a pair (p, m)
writes them matters here only through `exponents.gathers_words`: its
words are gathered packed (mod 2 with p <= 1021, mod 3 with p <= 317),
or written as a bool per n and packed, which costs more.  Counts and
first witnesses are int64.  The floating-point summaries in
DiscrepancyReport are derived from those exact counts at the very end.

A histogram scan of C classes counts each chunk into an int64
accumulator of C counts that no other running chunk holds, and sums
them once at the end.  Where sum((m_i - 1) * u_i) + C <= 35 + 8k
(`_plane_route`), with u_i = 1 for a pair of gathered words and 4 for
one of bools, a chunk is counted from one packed hit plane per prime i
and residue a = 1 ... m_i - 1: the popcounts of ANDs of planes count the
n with given residues at some primes and any at the others, and
differences along each axis turn them into class counts
(`_plane_counts`).  Its accumulators stay on the scan's spare list,
reused by the chunks that run after, so it holds at most `threads` of
them, and per running chunk sum(m_i - 1) planes of an eighth of the
chunk's width and a buffer for the hits: a bool per n where a pair
writes bools, otherwise about a plane.

Otherwise, before the first chunk starts, the calling thread allocates
one workspace (`_Workspace`) for each chunk that can run at once,
min(threads, chunks), and lends them to the chunks; they go with the
scan.  A workspace holds the accumulator, a fold buffer of one chunk in
the fold dtype, one residue buffer of one chunk per residue dtype of the
primes that have a row table (`exponents._gathered` writes into it; a
prime without one takes `exponent_range`'s array), and an intp key
buffer of at most 2**18 keys.  A chunk of at least C indices is counted
by np.bincount, added into the accumulator: uint8 indices as uint16
pair keys of 256 * C bins, the others with C bins.  A shorter chunk is
counted by np.add.at on the accumulator.  Either route copies its keys
into the key buffer in counting pieces of max(2**17, 8 * bins), at most
the buffer (bins = 0 for np.add.at), so np.bincount copies none.  So the
counts of such a scan take its workspaces, plus per running chunk one
bincount result of `bins` int64, and a helper thread allocates no other
array of a chunk's length, but for a prime without a row table.

Histogram counts are a read-only int64 ndarray of shape `mods`, indexed
by class tuple; its C order is the lexicographic order of exports.

Histogram and pattern scans run their chunks through one driver,
`map_spans`: on t threads, chunks run in rounds of t, the first of a
round on the calling thread and the rest on up to t - 1 helper threads,
started once per process and kept between calls; a round starts once
the one before it has returned, and the results come back in chunk
order.  A scan of one chunk, or on one thread, starts no thread.  The thread
count a scan is given is the most it uses (`_scan_threads`): a pattern
scan where every pair gathers packed words, or a histogram scan
where also its chunks are counted from planes, runs on the calling
thread, since its chunks are a few numpy calls of some microseconds
each and two threads handing the GIL between them run slower than one.
"""

import itertools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .exponents import (_PIECE, _gathered, _shifted_tiles, exponent_range, gathers_words,
                        hit_bytes, write_hits)
from .primes import _U63, _shown, is_prime

CLASS_CAP = 1 << 24
CHUNK_SIZE = 1 << 20
CHUNK_CAP = 1 << 24
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
    that is smaller, or built by another pid (a forked child inherits the
    executor but not its threads), is replaced.  The replaced executor is
    not shut down, since a scan on another thread may still submit to it;
    its idle threads exit once no scan holds it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < workers:
            _pool = os.getpid(), workers, ThreadPoolExecutor(max_workers=workers)
        return _pool[2]


def _check_threads(threads: int) -> None:
    """Refuse a thread count outside [1, THREAD_CAP]."""
    if threads < 1:
        raise ValueError(f"thread count must be positive, got {_shown(threads)}")
    if threads > THREAD_CAP:
        raise ValueError(f"thread count must be at most {THREAD_CAP}, got {_shown(threads)}")


def _check_chunk_size(chunk_size: int) -> None:
    """Refuse a chunk wider than CHUNK_CAP."""
    if chunk_size > CHUNK_CAP:
        raise ValueError(f"chunk size must be at most {CHUNK_CAP}, got {_shown(chunk_size)}")


def _scan_threads(threads: int, config: ScanConfig, hits: bool = True) -> int:
    """The threads a scan of `config` hands `map_spans`, refused first
    outside [1, THREAD_CAP]: 1 where its chunks are counted from hits
    (`hits`) that every pair gathers as packed words
    (`exponents.gathers_words`), else `threads`.  Such a chunk is a few
    numpy calls of some microseconds each, and a second thread waiting
    for the GIL between them costs more than it runs."""
    _check_threads(threads)
    if hits and all(itertools.starmap(gathers_words, zip(config.primes, config.mods))):
        return 1
    return threads


def map_spans(fn, config: ScanConfig, threads: int = 1):
    """Yield fn(start, stop) for each span of config.spans(), in span order.

    With threads > 1 and more than one span, the spans run in rounds of
    `threads`: the first span of a round on the calling thread and the
    rest on helpers kept by the process between calls, and a round starts
    once every span of the one before it has returned, so at most
    `threads` calls run at once.  A call of one span, or on one thread,
    starts no thread.  More than THREAD_CAP threads, and chunks wider than
    CHUNK_CAP, are refused before any span starts.  A span's exception is
    raised in its place in span order; then, or when the generator is
    closed early, the round's spans not started are cancelled and the
    running ones are waited for.
    """
    _check_threads(threads)
    _check_chunk_size(config.chunk_size)
    spans = config.spans()
    if threads == 1 or config.limit <= config.chunk_size:
        yield from itertools.starmap(fn, spans)
        return
    pool = _kept_pool(threads - 1)
    for batch in iter(lambda: tuple(itertools.islice(spans, threads)), ()):
        futures = [pool.submit(fn, *span) for span in batch[1:]]
        try:
            yield fn(*batch[0])
            for future in futures:
                yield future.result()
        finally:
            # wait() counts a cancelled future done only once a helper
            # dequeues it, so wait only for those not cancelled
            wait([future for future in futures if not future.cancel()])


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
    """An array (or `_Workspace`) of at least `size` elements popped off
    the list `spare`, or make(size) when the list is empty (or None) or
    what it pops is shorter.
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


class _Workspace:
    """The buffers one running class-index chunk of a scan writes into
    (see the module docstring), for chunks of at most `size` numbers:
    `counts`, the int64 accumulator of config.class_count entries;
    `fold`, the class indices in `_fold_dtype`; `keys`, the intp key
    buffer of at most _KEYS keys; and one residue buffer per residue
    dtype of the primes with a row table (`residues`)."""

    def __init__(self, config: ScanConfig, size: int):
        self.size = size
        classes = config.class_count
        self.fold = np.empty(size, dtype=_fold_dtype(classes))
        self.keys = np.empty(min(size, _KEYS), dtype=np.intp)
        tables = (_shifted_tiles(p, m) for p, m in zip(config.primes, config.mods))
        self._buffers = {rows.dtype: np.empty(size, dtype=rows.dtype)
                         for rows in tables if rows is not None}
        self.counts = np.zeros(classes, dtype=np.int64)

    def residues(self, start: int, stop: int, p: int, mod: int) -> np.ndarray:
        """e_p(n) mod `mod` for n in [start, stop): gathered off the row
        table into this workspace's buffer of its dtype
        (`exponents._gathered`), or where there is none `exponent_range`."""
        rows = _shifted_tiles(p, mod)
        if rows is None:
            return exponent_range(start, stop, p, mod=mod)
        return _gathered(self._buffers[rows.dtype][: stop - start], start, p, mod, rows)


def _class_indices(primes, mods, start: int, stop: int, work: _Workspace | None = None) -> np.ndarray:
    """The class index of each n in [start, stop): the digits e_p(n) mod m
    read in the mixed radix of `mods`, the first prime's the most
    significant, in `_fold_dtype` of the class count.  The residues come
    from `exponent_range`, and the first prime's are the indices where
    their dtype is the fold's; or with a workspace `work`, from its
    residue buffers (`_Workspace.residues`), folded into its fold buffer."""
    pairs = zip(primes, mods)
    p, m = next(pairs)
    residues = exponent_range if work is None else work.residues
    first = residues(start, stop, p, mod=m)
    if work is None:
        # every partial class index is below the class count too
        idx = first.astype(_fold_dtype(math.prod(mods)), copy=False)
    else:
        idx = work.fold[: stop - start]
        np.copyto(idx, first)
    for p, m in pairs:
        idx *= m
        idx += residues(start, stop, p, mod=m)
    return idx


# The shortest counting piece: its intp keys (1 MiB) stay in the L2
# cache; and the longest, the length of a workspace's key buffer.
_COUNT_PIECE, _KEYS = 1 << 17, 1 << 18


def _pieces(values: np.ndarray, bins: int, keys: np.ndarray):
    """`values` in counting pieces of max(_COUNT_PIECE, 8 * bins), at most
    the length of the intp buffer `keys`, or whole when shorter, each
    copied into `keys`, which is yielded: np.bincount takes intp keys
    without a copy, and its bins-entry result is added into the counts
    once per piece."""
    step = min(keys.size, max(_COUNT_PIECE, 8 * bins))
    for lo in range(0, values.size, step):
        piece = values[lo : lo + step]
        np.copyto(keys[: piece.size], piece)
        yield keys[: piece.size]


# The route rule's cost model, in units of one class's AND and popcount:
# a hit plane of gathered words costs 1, one of bools 4, and the
# uint8-pair route 35 plus 8 per prime.  Measured on a chunk of 2^20, one
# thread of a 2.1 GHz Xeon, numpy 2.4, a unit is 13-15 us, a word plane
# 0.7-1.1 units mod 2 and 0.9-1.3 mod 3 (p = 3 ... 13), and a bool plane
# 5.0-5.3 (p = 3 ... 13 mod 3 before they gathered words) or 6.1-6.4
# (331 mod 3).  Both routes then cost more than modelled, the pair route
# about 50 + 11 per prime, so next to the bound they stay within 15% of
# each other, in units on class indices and on planes: (3, 7) 69 and 67,
# (2, 2, 8) 82 and 81, (2, 2, 2, 2, 4) 106 and 92; and (3, 5, 7, 11) mod
# (3, 3, 3, 2), modelled at 61, took 88 and 66.
_WORD_PLANE_UNITS, _BOOL_PLANE_UNITS, _PAIR_UNITS, _PAIR_UNITS_PER_PRIME = 1, 4, 35, 8


def _plane_route(primes, mods) -> bool:
    """Whether a chunk of e_{p_i} mod m_i, i = 1 ... k, is counted by
    packed hit planes: when sum((m_i - 1) * u_i) + prod(m_i) <= 35 + 8k,
    where u_i is 1 for a pair whose hits are gathered as packed words
    (`exponents.gathers_words`) and 4 for one of bools."""
    units = sum((m - 1) * (_WORD_PLANE_UNITS if gathers_words(p, m) else _BOOL_PLANE_UNITS)
                for p, m in zip(primes, mods))
    return math.prod(mods) + units <= _PAIR_UNITS + _PAIR_UNITS_PER_PRIME * len(mods)


def _plane_counts(config: ScanConfig, start: int, stop: int, buffers) -> np.ndarray:
    """The class counts of [start, stop), of shape config.mods, from packed
    hit planes: prime i's plane a, for a = 1 ... m_i - 1, holds
    [e_{p_i}(n) = a (mod m_i)] (`exponents.write_hits`, from the byte of
    start).
    G(a) is the popcount of the AND of plane a_i of each prime i with
    a_i != 0, and G(0, ..., 0) is the size: a prefix tree over the first
    k - 1 primes takes one AND per node, and each node ANDs the last
    prime's planes in one stack.  G(a) counts n whose residue is a_i at
    every nonzero a_i and anything at the others, so subtracting slots
    1 ... m - 1 from slot 0 along each axis leaves the class counts.  The
    buffer, popped off the list `buffers` and pushed back after, takes
    each plane's hits as they are written (`exponents.hit_bytes`), and
    then, as words, the stack and the inner nodes."""
    size, width = stop - start, stop - start + start % 8
    words = -(-width // 64)
    mods = config.mods
    # the rows of the stack and the inner nodes
    work = mods[-1] + max(len(mods) - 2, 0)
    # a popcount sum is at most the size
    total = np.uint32 if size < 1 << 32 else np.uint64
    G = np.empty(mods, dtype=np.int64)
    hits = max(8 * work * words, *(hit_bytes(width, p, m) for p, m in zip(config.primes, mods)))
    with _scratch(buffers, hits, partial(np.empty, dtype=np.uint8)) as buffer:
        *head, last = planes = [np.empty((m - 1, words), dtype=np.uint64) for m in mods]
        for plane, p, m in zip(planes, config.primes, mods):
            for a, row in enumerate(plane, 1):
                row[...] = write_hits(buffer, start, size, p, m, a)
        rows = buffer[: 8 * work * words].view(np.uint64).reshape(work, words)
        stack, nodes = rows[: mods[-1]], rows[mods[-1] :]

        def fill(index, node):
            # node: the AND of the planes `index` picks, or None while it picks none
            depth = len(index)
            if depth == len(head):
                if node is None:
                    G[index] = size, *np.bitwise_count(last).sum(axis=1, dtype=total)
                else:
                    stack[0] = node
                    np.bitwise_and(last, node, out=stack[1:])
                    G[index] = np.bitwise_count(stack).sum(axis=1, dtype=total)
                return
            fill(index + (0,), node)
            for a, plane in enumerate(head[depth], 1):
                fill(index + (a,), plane if node is None else
                     np.bitwise_and(node, plane, out=nodes[depth - 1]))

        fill((), None)
        # fill refers to itself, and so to the planes: break that cycle, so
        # that they are freed now and not at the next garbage collection
        del fill
    for axis in range(G.ndim):
        g = np.moveaxis(G, axis, 0)
        g[0] -= g[1:].sum(axis=0)
    return G


def _chunk_histogram(config: ScanConfig, start: int, stop: int, *, spare=None,
                     buffers=None) -> np.ndarray:
    """Add the class counts of [start, stop) into an int64 accumulator of
    config.class_count entries, in flat C order, and return it: by packed
    hit planes (`_plane_counts`, with its buffer off the list `buffers`)
    where `_plane_route` takes the moduli, with the accumulator popped off
    the list `spare`; otherwise from the class indices, with a workspace
    popped off `spare` (`_Workspace`), whose accumulator it is.  The
    accumulator or workspace is made where the list is empty (or None),
    and pushed back after, so the calls of one scan hold as many as run at
    once.  A class-index chunk allocates one bincount result of C, or of
    256 * C counts for uint8 indices, besides, and no other array of its
    length but for a prime without a row table."""
    classes = config.class_count
    if _plane_route(config.primes, config.mods):
        found = _plane_counts(config, start, stop, buffers).ravel()
        with _scratch(spare, classes, partial(np.zeros, dtype=np.int64)) as counts:
            counts += found
        return counts
    with _scratch(spare, stop - start, partial(_Workspace, config)) as work:
        idx = _class_indices(config.primes, config.mods, start, stop, work)
        counts = work.counts
        if classes > idx.size:
            # a bincount would write more classes than the chunk has indices
            for keys in _pieces(idx, 0, work.keys):
                np.add.at(counts, keys, 1)
        elif idx.dtype == np.uint8:
            # counted in pairs, all but an odd last one: a uint16 view entry is one
            # index plus 256 times the other, in either byte order, so the row sums
            # count one index of each pair and the column sums the other
            if idx.size & 1:
                counts[idx[-1]] += 1
            for keys in _pieces(idx[: idx.size & ~1].view(np.uint16), 256 * classes, work.keys):
                table = np.bincount(keys, minlength=256 * classes).reshape(classes, 256)
                counts += table.sum(axis=1)
                counts += table[:, :classes].sum(axis=0)
        else:
            for keys in _pieces(idx, classes, work.keys):
                counts += np.bincount(keys, minlength=classes)
    return counts


def joint_histogram(config: ScanConfig, threads: int = 1) -> ResidueHistogram:
    """Count n in [0, limit) by the tuple (e_p(n) mod m) over the
    configured prime/modulus pairs.

    Chunks may run on several threads, in rounds of `threads` chunks
    (`map_spans`).  Each adds its counts into an int64 accumulator that
    no other running chunk holds, and they are summed once at the end.
    On the plane route a scan holds at most `threads` accumulators.
    Otherwise the calling thread first allocates a workspace
    (`_Workspace`) for each of the min(threads, chunks) chunks that run
    at once, and lends them to the chunks: a workspace holds the
    accumulator and a chunk's fold, residue and key buffers, so a scan
    takes its workspaces plus one bincount result per running chunk (see
    the module docstring for the counting routes and the memory bound).
    The counts are exact integers, so the outcome never depends on
    scheduling.  `threads` is the most threads a scan runs on: where
    every chunk is counted from packed hit planes of gathered words
    (`_plane_route` and `exponents.gathers_words`), it runs on the
    calling thread.
    """
    planes = _plane_route(config.primes, config.mods)
    threads = _scan_threads(threads, config, planes)
    spare = []
    if not planes:
        # refused before any workspace is allocated, as map_spans would
        _check_chunk_size(config.chunk_size)
        running = min(threads, -(-config.limit // config.chunk_size))
        width = min(config.chunk_size, config.limit)
        spare = [_Workspace(config, width) for _ in range(running)]
    chunk = partial(_chunk_histogram, config, spare=spare, buffers=[])
    deque(map_spans(chunk, config, threads), maxlen=0)
    parts = spare if planes else [work.counts for work in spare]
    total = parts.pop()
    for part in parts:
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
    """The hit summary of `pattern` on [start, stop).  Each prime's hits
    are written as packed 64-bit words from the byte of start into a
    buffer (`exponents.write_hits`): the first prime's words are the
    chunk's, and each later prime's are ANDed into them.  The buffer is popped off the
    list `spare` and pushed back after, so the calls of one scan hold as
    many buffers as run at once."""
    size, lead = stop - start, start % 8
    (p, m, want), *later = zip(config.primes, config.mods, pattern)
    # the first prime's words may be a view of the first part, so the later
    # primes write into the rest
    first = hit_bytes(size + lead, p, m)
    rest = max((hit_bytes(size + lead, q, n) for q, n, _ in later), default=0)
    with _scratch(spare, first + rest, partial(np.empty, dtype=np.uint8)) as buffer:
        words = write_hits(buffer[:first], start, size, p, m, want)
        for p, m, want in later:
            words &= write_hits(buffer[first:], start, size, p, m, want)
        return _mask_hits(words, start - lead)


def pattern_search(config: ScanConfig, pattern, threads: int = 1) -> PatternReport:
    """Scan [0, limit) for n whose residue tuple equals `pattern`: per chunk, each
    prime's hits are written as packed 64-bit words into a buffer reused across
    chunks, mod 2 by one row gather from a cached table of eight-block groups
    (256 KiB at most per prime), and ANDed, and the words are summarized whole,
    without writing out a hit position (`_mask_hits`).
    On several threads the chunks run in rounds of `threads` (`map_spans`),
    and the chunk summaries are joined in chunk order.
    `threads` is the most threads a scan runs on: where every prime's
    hits are gathered as packed words (`exponents.gathers_words`), it
    runs on the calling thread.

    max_gap is None when there are fewer than two hits; leading and
    trailing runs without hits do not count as gaps.
    """
    pattern = tuple(int(a) for a in pattern)
    if len(pattern) != config.k:
        raise ValueError(f"pattern length {len(pattern)} does not match k = {config.k}")
    for a, m in zip(pattern, config.mods):
        if not 0 <= a < m:
            raise ValueError(f"pattern entry {_shown(a)} out of range for modulus {m}")
    threads = _scan_threads(threads, config)
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
    most = CLASS_CAP.bit_length() - 1
    if len(primes) > most:
        raise ValueError(f"coverage takes at most {most} primes (2^{most} parity patterns), "
                         f"got {len(primes)}")
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
