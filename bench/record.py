"""Record the benchmark's output references, after cross-checking them.

    python3 bench/record.py

First every op any seed can generate (plan.pool) is run through the CLI
at a reduced limit and compared byte for byte with output built here from
slow, independent routes: digit sums for scans, the scalar floor sum
`legendre_exponent` for patterns and coverage, `QAdditiveFunction.evaluate`
on a table built from base-p digits for verify, and the multiplicative
order of p mod m(p-1) for lambda.  Only if all agree are the full-size
outputs digested into `references.json`.

The references cover the whole pool, so the default seed, the held-out
seed and any other seed are checked against the same file.
"""

import functools
import itertools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

import plan
import worker

ROOT = Path(__file__).resolve().parent.parent
SMALL_N = 4096
CHUNK = 1 << 20

sys.path.insert(0, str(ROOT / "src"))

from factexp.cli import main as cli_main  # noqa: E402
from factexp.exponents import digit_sum, legendre_exponent  # noqa: E402
from factexp.qadditive import QAdditiveFunction  # noqa: E402


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _args(argv) -> dict:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv), 2)}


def _ints(text) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _factor(n: int) -> dict:
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _phi(n: int) -> int:
    out = 1
    for r, e in _factor(n).items():
        out *= (r - 1) * r ** (e - 1)
    return out


def order_lambda(p: int, m: int) -> int:
    """Least lambda with (p^lambda - 1)/(p - 1) = 0 mod m, as the
    multiplicative order of p modulo m(p - 1)."""
    modulus = m * (p - 1)
    t = _phi(modulus)
    for r in _factor(t):
        while t % r == 0 and pow(p, t // r, modulus) == 1:
            t //= r
    return t


def oracle_scan(primes, mods, limit, fmt) -> bytes:
    counts = Counter(
        tuple((n - digit_sum(n, p)) // (p - 1) % m for p, m in zip(primes, mods))
        for n in range(limit))
    classes = list(itertools.product(*(range(m) for m in mods)))
    if fmt == "csv":
        rows = [",".join(f"a_{i}" for i in range(1, len(primes) + 1)) + ",count"]
        rows += [",".join(map(str, c)) + f",{counts[c]}" for c in classes]
        return ("\n".join(rows) + "\n").encode()
    main = limit / len(classes)
    worst, dev = None, -1.0
    for c in classes:
        if abs(counts[c] - main) > dev:
            worst, dev = c, abs(counts[c] - main)
    return _dumps({
        "primes": list(primes), "mods": list(mods), "limit": limit, "chunk_size": CHUNK,
        "counts": [{"residues": list(c), "count": counts[c]} for c in classes],
        "discrepancy": {"main_term": _sig12(main), "max_abs_dev": _sig12(dev),
                        "max_rel_dev": _sig12(dev / main), "worst_class": list(worst)},
    })


def oracle_pattern(primes, mods, limit, pattern) -> bytes:
    hits = [n for n in range(limit)
            if all(legendre_exponent(n, p) % m == a for p, m, a in zip(primes, mods, pattern))]
    gaps = [b - a for a, b in zip(hits, hits[1:])]
    sep = "" if all(m == 2 for m in mods) else "-"
    return _dumps({
        "primes": list(primes), "mods": list(mods), "limit": limit, "chunk_size": CHUNK,
        "pattern": sep.join(map(str, pattern)), "minimal_n": hits[0] if hits else None,
        "hits": len(hits), "max_gap": max(gaps) if gaps else None,
    })


def oracle_coverage(primes, limit) -> bytes:
    first = {}
    for n in range(limit):
        code = sum((legendre_exponent(n, p) & 1) << i for i, p in enumerate(primes))
        first.setdefault(code, n)
    prefix = 0
    for kp in range(len(primes), 0, -1):
        if len({c & ((1 << kp) - 1) for c in first}) == 1 << kp:
            prefix = kp
            break
    patterns = []
    for bits in itertools.product((0, 1), repeat=len(primes)):
        code = sum(b << i for i, b in enumerate(bits))
        patterns.append({"pattern": "".join(map(str, bits)), "minimal_n": first.get(code)})
    return _dumps({"primes": list(primes), "limit": limit, "covered_prefix": prefix,
                   "patterns": patterns})


@functools.lru_cache(maxsize=None)
def digit_weight_function(p: int, lam: int) -> QAdditiveFunction:
    """The p^lam-additive function with f(a) = sum_j a_j (p^j - 1)/(p - 1)
    over the base-p digits a_j of a < p^lam."""
    weights = [(p**j - 1) // (p - 1) for j in range(lam)]
    table = [0] * p**lam
    for j, w in enumerate(weights):
        block = p**j
        for a in range(p**lam):
            table[a] += (a // block) % p * w
    return QAdditiveFunction(q=p**lam, table=tuple(table))


def oracle_verify(p, m, limit) -> bytes:
    f = digit_weight_function(p, order_lambda(p, m))
    bad = next((n for n in range(limit)
                if f.evaluate(n) % m != legendre_exponent(n, p) % m), None)
    return _dumps({
        "p": p, "m": m, "limit": limit, "passed": bad is None, "counterexample": bad,
        "f_value": None if bad is None else f.evaluate(bad),
        "e_value": None if bad is None else legendre_exponent(bad, p) % m,
    })


def oracle_lambda(p, m) -> bytes:
    m_prime = 1
    for r, e in _factor(m).items():
        if (p - 1) % r == 0:
            m_prime *= r**e
    m_dprime = m // m_prime
    return _dumps({"p": p, "m": m, "lambda": order_lambda(p, m), "m_prime": m_prime,
                   "m_dprime": m_dprime, "mu": m_prime * _phi(m_dprime)})


def reduced(argv) -> list:
    """The same command line at limit min(limit, SMALL_N)."""
    a = _args(argv)
    if "limit" in a:
        a["limit"] = str(min(int(a["limit"]), SMALL_N))
    return [argv[0]] + [x for k, v in a.items() for x in (f"--{k}", v)]


def oracle(argv) -> bytes:
    """The expected output of a command line, from the slow routes."""
    a = _args(argv)
    cmd, limit = argv[0], int(a.get("limit", 0))
    if cmd == "scan":
        return oracle_scan(_ints(a["primes"]), _ints(a["mods"]), limit, a["format"])
    if cmd == "pattern":
        return oracle_pattern(_ints(a["primes"]), _ints(a["mods"]), limit, _ints(a["pattern"]))
    if cmd == "coverage":
        return oracle_coverage(_ints(a["primes"]), limit)
    if cmd == "verify":
        return oracle_verify(int(a["prime"]), int(a["mod"]), limit)
    return oracle_lambda(int(a["prime"]), int(a["mod"]))


def pool_argvs():
    """Every distinct command line of every pool, by reference key.  The
    ladder's coverage calls depend on its outputs and are added by
    cross_check and record."""
    seen = {}
    for w in plan.WORKLOADS:
        for op in plan.pool(w):
            if op["kind"] == "cli":
                seen.setdefault(plan.op_key(op["argv"]), op["argv"])
    return seen


def cross_check(runner) -> int:
    checked, failures = set(), 0
    argvs = list(pool_argvs().values())
    argvs += [plan.coverage_argv(k, plan.LADDER_START << i)
              for k in range(1, len(plan.LADDER_PRIMES) + 1) for i in range(7)]
    for argv in argvs:
        small = reduced(argv)
        if plan.op_key(small) in checked:
            continue
        checked.add(plan.op_key(small))
        rc, _, got = runner.output(small)
        if rc != 0 or got != oracle(small):
            failures += 1
            print(f"MISMATCH {plan.op_key(small)}", file=sys.stderr)
    print(f"cross-checked {len(checked)} reduced command lines, {failures} mismatches",
          file=sys.stderr)
    return failures


def record(runner) -> dict:
    refs = {}

    def digest(argv) -> bytes:
        rc, _, data = runner.output(argv)
        if rc != 0:
            raise SystemExit(f"{plan.op_key(argv)} exited {rc}")
        refs[plan.op_key(argv)] = worker.digest(data)
        return data

    for argv in pool_argvs().values():
        digest(argv)
    for k in range(1, len(plan.LADDER_PRIMES) + 1):
        limit = plan.LADDER_START
        while True:
            data = digest(plan.coverage_argv(k, limit))
            if all(p["minimal_n"] is not None for p in json.loads(data)["patterns"]):
                break
            limit *= 2
    return refs


def main() -> int:
    outdir = ROOT / ".bench_out" / f"record-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = worker.Runner(cli_main, {}, outdir, min(2, len(os.sched_getaffinity(0))))
    t0 = time.monotonic()
    if cross_check(runner):
        return 1
    refs = record(runner)
    outdir.rmdir()
    outdir.parent.rmdir()
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps({"refs": refs}, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} references in {time.monotonic() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
