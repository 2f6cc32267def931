"""Slow, independent routes the tests compare the package against.

Each follows its defining identity: one integer at a time in pure
Python, or, for the array routes at the bottom, one division pass per
digit level, one tile block at a time, one int32 class index counted by
a plain bincount, one residue comparison per prime for a pattern, every
hit position of a mask written out, one coverage scan per bound of a
doubling ladder, or one set of seen codes per prime prefix.
None validates its arguments: the tests only pass valid ones.
"""

import numpy as np

from factexp.experiments import NO_WITNESS, pattern_coverage
from factexp.exponents import _residue_dtype, exponent_range, legendre_exponent


def base_digits(n: int, p: int) -> tuple[int, ...]:
    """The base-p digits of n >= 0, least significant first; (0,) for 0."""
    digits = []
    while True:
        n, d = divmod(n, p)
        digits.append(d)
        if not n:
            return tuple(digits)


class ExponentStream:
    """e_p(n) over consecutive n.

    Each `advance` moves the cursor from n to n+1 and adds v_p(n+1) to
    the running exponent, since e_p(n+1) - e_p(n) = v_p(n+1).  With a
    modulus the exponent is kept reduced.
    """

    def __init__(self, prime: int, start: int = 0, modulus: int | None = None):
        self.prime = prime
        self.modulus = modulus
        self.cursor = start
        e = legendre_exponent(start, prime)
        self.current_exponent = e if modulus is None else e % modulus

    def advance(self) -> tuple[int, int]:
        """Step to n+1; return (n+1, e_p(n+1)), reduced if a modulus is set."""
        n = rest = self.cursor + 1
        e = self.current_exponent
        while rest % self.prime == 0:
            rest //= self.prime
            e += 1
        if self.modulus is not None:
            e %= self.modulus
        self.cursor = n
        self.current_exponent = e
        return n, e


def parity_of_e2(n: int) -> int:
    """Parity of e_2(n), straight from the binary expansion: e_2(n) =
    n - s_2(n), and n - s_2(n) has the parity of the bit count of n >> 1."""
    return (n >> 1).bit_count() & 1


def folded_value(n: int, p: int, weights: tuple[int, ...]) -> int:
    """The construction evaluated from the base-p digits of n, with the
    weight index folded modulo lambda = len(weights): the closed form of
    the q-additive extension, independent of its value table."""
    lam = len(weights)
    acc = 0
    j = 0
    while n:
        acc += (n % p) * weights[j % lam]
        n //= p
        j += 1
    return acc


def floor_sum_range(start: int, stop: int, p: int):
    """The vectorized floor sum: e_p(n) for n in [start, stop) as int64,
    one division per base-p level over every element."""
    ns = np.arange(start, stop, dtype=np.int64)
    acc = np.zeros(ns.shape, dtype=np.int64)
    pj = p
    while pj < stop:
        acc += ns // pj
        pj *= p
    return acc


def packed_floor_sum_hits(start: int, size: int, p: int, m: int, want: int):
    """[e_p(n) = want (mod m)] for n in [start, start + size) as little-endian
    64-bit words from the byte of start, with misses before start and after
    the range to a whole word: the floor sum compared with want, packed."""
    lead = start % 8
    hits = floor_sum_range(start - lead, start + size, p) % m == want
    hits[:lead] = False
    padded = np.zeros(-(-(size + lead) // 64) * 8, dtype=np.uint8)
    packed = np.packbits(hits, bitorder="little")
    padded[: packed.size] = packed
    return padded.view("<u8")


def doubling_group_table(p: int) -> np.ndarray:
    """The (256, span) uint8 table of the parity hits of groups of eight
    blocks of span, the largest power of p at most 1024, built by
    doubling: row 0 is [e_p(b) = 1 (mod 2)] for b in [0, span) in every
    block, packed little-endian, and the codes below 2**(i + 1) are those
    below 2**i, then the same with the bits of block i flipped."""
    span = p
    while span * p <= 1024:
        span *= p
    hits = floor_sum_range(0, span, p) % 2 == 1
    table = np.packbits(np.tile(hits, 8), bitorder="little")[None]
    for flip in np.packbits(np.eye(8, dtype=bool).repeat(span, axis=1), axis=1, bitorder="little"):
        table = np.concatenate([table, table ^ flip])
    return table


def digit_pass_table(p: int, weights: tuple[int, ...]):
    """The construction's value table on [0, p^lambda), lambda =
    len(weights), one pass per digit position: a // p^j % p times the
    j-th weight, summed over every entry, as int64."""
    a = np.arange(p ** len(weights), dtype=np.int64)
    acc = np.zeros(a.shape, dtype=np.int64)
    pj = 1
    for w in weights:
        acc += (a // pj) % p * w
        pj *= p
    return acc


def blockwise_tiled_range(start: int, stop: int, span: int, tile, offsets, mod):
    """`exponents._write_blocks` on a tile, one block at a time: each block
    A of the range is its slice of `tile` (all 0 when tile is None) plus
    offsets[A - start // span], an offset already reduced below mod, with
    mod subtracted where the sum reached it (an XOR mod 2)."""
    out = np.empty(stop - start, dtype=np.int64 if mod is None else _residue_dtype(mod))
    n = start
    while n < stop:
        a, b = divmod(n, span)
        end = min(stop, n - b + span)
        off = int(offsets[a - start // span])
        block = out[n - start : end - start]
        if tile is None:
            block.fill(off)
        elif mod == 2:
            np.bitwise_xor(tile[b : b + end - n], off, out=block)
        else:
            np.add(tile[b : b + end - n], off, out=block)
            if mod is not None and off:
                np.minimum(block, block - mod, out=block)
        n = end
    return out


def int32_chunk_histogram(config, start: int, stop: int):
    """The class counts of n in [start, stop), one per class of `config`
    in flat C order: the residues of each prime folded into an int32
    class index, first prime most significant, and counted by a plain
    bincount."""
    pairs = zip(config.primes, config.mods)
    p, m = next(pairs)
    idx = exponent_range(start, stop, p, mod=m).astype(np.int32)
    for p, m in pairs:
        idx *= m
        idx += exponent_range(start, stop, p, mod=m)
    return np.bincount(idx, minlength=config.class_count)


def residue_chunk_hits(config, pattern, start: int, stop: int):
    """(hits, first hit, last hit, largest gap between consecutive hits) of
    `pattern` on [start, stop), or (0, None, None, None): the residues of
    each prime from `exponent_range` compared with its pattern entry, the
    comparisons ANDed, and the hits read off by `flatnonzero_hits`."""
    mask = np.ones(stop - start, dtype=bool)
    for p, m, want in zip(config.primes, config.mods, pattern):
        mask &= exponent_range(start, stop, p, mod=m) == want
    return flatnonzero_hits(mask, start)


def flatnonzero_hits(mask, start: int):
    """(hits, first hit, last hit, largest gap between consecutive hits) of
    a bool mask over n = start, start + 1, ..., or (0, None, None, None):
    every hit position written out by one flatnonzero, the gaps by diff."""
    where = np.flatnonzero(mask)
    if where.size == 0:
        return 0, None, None, None
    inner = int(np.diff(where).max()) if where.size >= 2 else None
    return int(where.size), start + int(where[0]), start + int(where[-1]), inner


def smallest_covering_limit(primes) -> int:
    """N_k over `primes`, the least N below which every parity pattern has
    a witness: coverage scans at doubling bounds until one is complete,
    then one more than its latest first witness."""
    limit = 64
    while True:
        report = pattern_coverage(primes, limit)
        if report.covered_prefix == len(report.primes):
            return int(report.minimal.max()) + 1
        limit *= 2


def set_covered_prefix(report) -> int:
    """The longest k' such that every parity pattern over the first k'
    primes has a witness: the codes seen, reduced mod 2^k', fill a set of
    2^k'."""
    seen = {c for c, n in enumerate(report.minimal.tolist()) if n != NO_WITNESS}
    full = [kp for kp in range(1, len(report.primes) + 1)
            if len({c % (1 << kp) for c in seen}) == 1 << kp]
    return max(full, default=0)
