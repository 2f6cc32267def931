"""Workloads of the factexp benchmark: what each one runs, and why.

Every op is one `factexp` command line, run in-process through
`factexp.cli.main(argv)`.  A workload repeats a *round*: a fixed list of
slots, one op each.  A slot fixes what sets an op's cost (command,
primes, limit, class count, output format); the seed picks the rest
(moduli, pattern, modulus m).  So every round costs about the same on
every seed, and runs with different seeds measure the same mix of work.

The variants are finite, so `references.json` holds the expected output
digest of every op any seed can generate.

No factexp import happens here: the plan is pure data.
"""

import hashlib
import itertools
import json
import random

DEFAULT_SEED = 0
# Reserved for confirming a claim on inputs not looked at while a change
# was being written.
HELD_OUT_SEED = 9173

# A run is a whole number of rounds: RUN_ROUNDS at NOMINAL_SECONDS, scaled
# by --seconds.  So a run does the same work on every commit and seed.
# At the commit that defined the benchmark a round took about 5.5, 7.5,
# 3 and 8.5 s (2-vCPU Xeon VM, 2 threads); the noisier workloads get more
# rounds, so that a slow spell of the machine hits fewer of ten runs.  A
# timed run has at least MIN_ROUNDS, so that ten ops lie beyond a tail
# percentile.
NOMINAL_SECONDS = 26
RUN_ROUNDS = {"scan-narrow": 4, "scan-wide": 5, "construct": 6, "search": 4}
MIN_ROUNDS = 3

WORKLOADS = {
    "scan-narrow": "scan of 3 primes, mods 2-3, N 2^22-2^24, JSON: the floor-sum exponent kernel is ~90% of the time",
    "scan-wide": "scan of 4-5 primes, 2^14-2^18 classes, N 2^22, CSV/JSON: histogram merge, discrepancy and serialization dominate",
    "construct": "verify of the p^lambda-additive construction at N 2^22 plus lambda certificates for prime m ~1e5-1e6",
    "search": "pattern at N ~2^23 plus the parity-coverage doubling ladder: ~90 small early-stopping coverage calls",
}

# End-to-end metrics: (name, unit, better, bound).  On a shared 2-vCPU VM
# (Xeon, 2.1 GHz) the whole machine slowed by 1.5-2x for seconds to
# minutes at a time, and ten runs at --seconds 26 spread by up to 19%
# between quartiles, so the time bounds sit just under the 0.25 cap, with
# setup_s (the noisiest) at the cap.
END_TO_END = (
    ("throughput_nps", "1/s", "higher", 0.24),
    ("op_p50_s", "s", "lower", 0.24),
    ("op_tail_s", "s", "lower", 0.24),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
)

# Per-layer metrics from the traced run: (name, unit, better, moves),
# where `moves` names the end-to-end metric and workloads the layer
# metric is expected to move.  Values are per round of the workload.
PER_LAYER = (
    ("exponents.exponent_range.busy_s", "s", "lower", "throughput_nps on scan-narrow, search"),
    ("exponents.exponent_range.calls", "count", "lower", "throughput_nps on scan-narrow, search"),
    ("exponents.exponent_range.elems", "count", "lower", "throughput_nps on scan-narrow, search"),
    ("exponents.exponent_range.ns_per_elem", "ns", "lower", "throughput_nps on scan-narrow, search"),
    ("exponents.exponent_range.divs", "count-computed", "lower", "throughput_nps on scan-narrow, search"),
    ("exponents.exponent_range.bytes", "B-computed", "lower", "throughput_nps on scan-narrow, search"),
    ("qadditive.evaluate_range.busy_s", "s", "lower", "throughput_nps on construct"),
    ("qadditive.evaluate_range.elems", "count", "lower", "throughput_nps on construct"),
    ("qadditive.evaluate_range.ns_per_elem", "ns", "lower", "throughput_nps on construct"),
    ("qadditive.evaluate_range.lookups", "count-computed", "lower", "throughput_nps on construct"),
    ("construction.lambda_index.busy_s", "s", "lower", "op_tail_s on construct"),
    ("construction.lambda_index.lambda_sum", "count", "lower", "op_tail_s on construct"),
    ("construction.build_function.busy_s", "s", "lower", "op_p50_s, peak_rss_mib on construct"),
    ("construction.build_function.table_entries", "count", "lower", "op_p50_s, peak_rss_mib on construct"),
    ("construction.verify_congruence.self_s", "s", "lower", "op_p50_s, peak_rss_mib on construct"),
    ("experiments.joint_histogram.self_s", "s", "lower", "op_p50_s on scan-wide; throughput_nps on scan-narrow"),
    ("experiments.joint_histogram.overlap", "ratio", "higher", "op_p50_s on scan-wide; throughput_nps on scan-narrow"),
    ("experiments.discrepancy.busy_s", "s", "lower", "op_p50_s on scan-wide"),
    ("experiments.pattern_search.self_s", "s", "lower", "end-to-end metrics on search"),
    ("experiments.pattern_coverage.self_s", "s", "lower", "end-to-end metrics on search"),
    ("experiments.pattern_coverage.calls", "count", "lower", "end-to-end metrics on search"),
    ("experiments.pattern_coverage.scan_ratio", "ratio", "lower", "end-to-end metrics on search"),
    ("reports.histogram_csv.busy_s", "s", "lower", "op_p50_s on scan-wide"),
    ("reports.histogram_json.busy_s", "s", "lower", "op_p50_s on scan-wide"),
    ("reports.pattern_json.busy_s", "s", "lower", "end-to-end metrics on search"),
    ("reports.coverage_json.busy_s", "s", "lower", "end-to-end metrics on search"),
    ("reports.emit.busy_s", "s", "lower", "op_p50_s on scan-wide"),
    ("reports.bytes_out", "B", "lower", "op_p50_s on scan-wide"),
    ("cli.main.self_s", "s", "lower", "op wall time minus all layer spans: about 0 everywhere"),
    ("cli.main.busy_s", "s", "lower", "base of the layer shares: traced op wall time"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced op wall time"),
)

# Module attributes the traced run wraps: (module, attribute, layer).
# Each is the name a caller looks up at call time, so a wrapper installed
# there sees every call made through it.
SHIM_TARGETS = (
    ("factexp.cli", "joint_histogram", "experiments.joint_histogram"),
    ("factexp.cli", "discrepancy", "experiments.discrepancy"),
    ("factexp.cli", "pattern_search", "experiments.pattern_search"),
    ("factexp.cli", "pattern_coverage", "experiments.pattern_coverage"),
    ("factexp.cli", "lambda_index", "construction.lambda_index"),
    ("factexp.cli", "verify_congruence", "construction.verify_congruence"),
    ("factexp.cli", "histogram_csv", "reports.histogram_csv"),
    ("factexp.cli", "histogram_json", "reports.histogram_json"),
    ("factexp.cli", "pattern_json", "reports.pattern_json"),
    ("factexp.cli", "coverage_json", "reports.coverage_json"),
    ("factexp.cli", "emit", "reports.emit"),
    ("factexp.experiments", "exponent_range", "exponents.exponent_range"),
    ("factexp.construction", "exponent_range", "exponents.exponent_range"),
    ("factexp.construction", "evaluate_range", "qadditive.evaluate_range"),
    ("factexp.construction", "lambda_index", "construction.lambda_index"),
    ("factexp.construction", "build_function", "construction.build_function"),
)

# Commands that take --threads; the worker appends it.
THREADED = ("scan", "pattern")

FIVE_PRIMES = (3, 5, 7, 11, 13)
# First 14 odd primes: the ladder of scripts/parity_coverage_growth.py.
LADDER_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
LADDER_START = 64
# A correct program completes the k = 14 rung at 2^19; the cap only
# stops a broken one from doubling forever.
LADDER_CAP = 1 << 24

NARROW_LIMITS = tuple(round(2 ** (22 + i / 2)) for i in range(5))
WIDE_LIMIT = 1 << 22
WIDE_CLASS_BITS = (14, 15, 16, 17, 18)
WIDE_PRIME_SETS = tuple(itertools.combinations(FIVE_PRIMES, 4)) + (FIVE_PRIMES,)
VERIFY_LIMIT = 1 << 22
# (p, lambda) strata of verify: each fixes the base q = p^lambda <= 2^20,
# so the cost of a stratum does not depend on which m the seed picks.
VERIFY_STRATA = ((3, 12), (3, 4), (5, 8), (7, 6), (11, 4), (13, 2))
VERIFY_MAX_MOD = 400
# Primes m with p a primitive root mod m, so lambda = m - 1 and the
# O(lambda) search runs in full; four per (size, p), near 1.5e5, 4e5, 9e5.
LAMBDA_MODS = {
    150000: {3: (150041, 150053, 150067, 150077), 5: (150053, 150067, 150077, 150083),
             7: (150001, 150067, 150097, 150131), 11: (150053, 150061, 150067, 150107),
             13: (150001, 150053, 150061, 150067)},
    400000: {3: (400087, 400109, 400123, 400157), 5: (400033, 400067, 400087, 400093),
             7: (400031, 400051, 400069, 400087), 11: (400031, 400069, 400109, 400123),
             13: (400031, 400051, 400067, 400069)},
    900000: {3: (900007, 900019, 900089, 900139), 5: (900007, 900143, 900157, 900217),
             7: (900037, 900121, 900139, 900149), 11: (900007, 900037, 900061, 900091),
             13: (900037, 900089, 900139, 900161)},
}
PATTERN_LIMITS = (7 << 20, 8 << 20, 9 << 20)
TRIPLES = tuple(itertools.combinations(FIVE_PRIMES, 3))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def scan_op(primes, mods, limit, fmt) -> dict:
    argv = ["scan", "--primes", _csv(primes), "--mods", _csv(mods),
            "--limit", str(limit), "--format", fmt]
    return {"kind": "cli", "argv": argv, "n": limit}


def pattern_op(primes, pattern, limit) -> dict:
    argv = ["pattern", "--primes", _csv(primes), "--mods", _csv((2,) * len(primes)),
            "--limit", str(limit), "--pattern", _csv(pattern)]
    return {"kind": "cli", "argv": argv, "n": limit}


def verify_op(p, m, limit=VERIFY_LIMIT) -> dict:
    argv = ["verify", "--prime", str(p), "--mod", str(m), "--limit", str(limit)]
    return {"kind": "cli", "argv": argv, "n": limit}


def lambda_op(p, m) -> dict:
    # A certificate covers no range of n.
    return {"kind": "cli", "argv": ["lambda", "--prime", str(p), "--mod", str(m)], "n": 0}


def coverage_argv(k, limit) -> list:
    return ["coverage", "--primes", _csv(LADDER_PRIMES[:k]), "--limit", str(limit)]


LADDER_OP = {"kind": "ladder"}


def repunit_order(p: int, m: int, cap: int) -> int | None:
    """Least j <= cap with (p^j - 1)/(p - 1) = 0 mod m, else None."""
    acc, power = 0, 1
    for j in range(1, cap + 1):
        acc = (acc + power) % m
        power = power * p % m
        if acc == 0:
            return j
    return None


def verify_mods(p: int, lam: int) -> tuple[int, ...]:
    """Every m < VERIFY_MAX_MOD, p not dividing m, whose repunit order is lam."""
    return tuple(m for m in range(2, VERIFY_MAX_MOD)
                 if m % p and repunit_order(p, m, lam) == lam)


VERIFY_MODS = {(p, lam): verify_mods(p, lam) for p, lam in VERIFY_STRATA}


def mods_choices(k: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """Three fixed moduli vectors of k powers of two with product 2^bits:
    as even as possible, and two skewed variants."""
    base, extra = divmod(bits, k)
    even = [base + (i < extra) for i in range(k)]
    skew = list(even)
    skew[0] += 1
    skew[-1] -= 1
    skew2 = list(even)
    skew2[1] -= 1
    skew2[-2] += 1
    return tuple(tuple(1 << e for e in v) for v in (even, skew, skew2))


def _slots_scan_narrow():
    return [[scan_op(t, mods, NARROW_LIMITS[i % len(NARROW_LIMITS)], "json")
             for mods in itertools.product((2, 3), repeat=3)]
            for i, t in enumerate(TRIPLES)]


def _slots_scan_wide():
    slots = []
    for j, (bits, fmt) in enumerate(itertools.product(WIDE_CLASS_BITS, ("csv", "json"))):
        primes = WIDE_PRIME_SETS[j % len(WIDE_PRIME_SETS)]
        slots.append([scan_op(primes, mods, WIDE_LIMIT, fmt)
                      for mods in mods_choices(len(primes), bits)])
    return slots


def _slots_construct():
    slots = [[verify_op(p, m) for m in VERIFY_MODS[p, lam]] for p, lam in VERIFY_STRATA]
    slots += [[lambda_op(p, m) for p, ms in by_p.items() for m in ms]
              for by_p in LAMBDA_MODS.values()]
    return slots


def _slots_search():
    slots = [[pattern_op(t, pat, PATTERN_LIMITS[i % len(PATTERN_LIMITS)])
              for pat in itertools.product((0, 1), repeat=3)]
             for i, t in enumerate(TRIPLES)]
    return slots + [[LADDER_OP]]


# A round is one op per slot.  A slot fixes what sets an op's cost; its
# entries are the variants a seed picks from.
SLOTS = {
    "scan-narrow": _slots_scan_narrow(),
    "scan-wide": _slots_scan_wide(),
    "construct": _slots_construct(),
    "search": _slots_search(),
}

WARMUP = {
    "scan-narrow": scan_op((3, 5, 7), (2, 2, 2), 1 << 16, "json"),
    "scan-wide": scan_op((3, 5, 7, 11), (4, 4, 4, 4), 1 << 16, "csv"),
    "construct": verify_op(3, 2, 1 << 16),
    "search": pattern_op((3, 5, 7), (1, 0, 1), 1 << 16),
}


def round_count(workload: str, seconds: float, minimum: int = MIN_ROUNDS) -> int:
    return max(minimum, round(RUN_ROUNDS[workload] * seconds / NOMINAL_SECONDS))


def rounds(workload: str, seed: int, count: int) -> list:
    """The first `count` rounds of a workload for a seed: a list of rounds,
    each a list of op dicts, one per slot in slot order.  Round r depends
    only on (workload, seed, r).  The order is fixed so that the allocator
    sees the same history, and peak memory the same peak, on every seed."""
    out = []
    for r in range(count):
        rng = random.Random(f"{workload}:{seed}:{r}")
        out.append([rng.choice(slot) for slot in SLOTS[workload]])
    return out


def plan_digest(workload: str, seed: int, count: int) -> str:
    """Digest of the first `count` rounds: runs with equal digests ran
    identical inputs."""
    text = json.dumps(rounds(workload, seed, count), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_key(argv) -> str:
    """Reference key of a command line: the argv without --threads and
    --out, which do not change the output bytes."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--threads", "--out"):
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def pool(workload: str) -> list:
    """Every op any seed can generate for the workload, warm-up included."""
    return [WARMUP[workload]] + [op for slot in SLOTS[workload] for op in slot]
