"""Command-line front end.

Exit status contract: 0 on success (including a verify run that finds a
counterexample; the report is the product), 1 on runtime failures
(invalid mathematical inputs, overflow, I/O, memory), 2 on usage errors
(argparse's own convention).

Environment knobs: FACTEXP_THREADS supplies a default for --threads,
and FACTEXP_OUT_DIR is prepended to relative --out paths.
"""

import argparse
import os
import sys
from decimal import Decimal, InvalidOperation
from functools import lru_cache

from .construction import (
    build_function,
    construction_error_exponent,
    coverage_depth,
    coverage_log_threshold,
    lambda_index,
    verify_congruence,
)
from .exponents import legendre_exponent
from .experiments import (CHUNK_SIZE, THREAD_CAP, ScanConfig, discrepancy,
                          joint_histogram, pattern_coverage, pattern_search)
from .reports import (
    _dumps,
    coverage_csv,
    coverage_json,
    emit,
    histogram_csv,
    histogram_json,
    pattern_csv,
    pattern_json,
)

# Integer arguments must stay below 10**(MAX_POWER + 1), at most 20,001
# digits: int(Decimal("1e1000000")) alone takes about half a minute, and
# no command has use for such a number.
MAX_POWER = 20_000
# A usage error repeats at most this many characters of the argument.
ECHO_CAP = 60


def _echo(text: str) -> str:
    """`text` quoted for an error message, cut to ECHO_CAP characters."""
    return repr(text[:ECHO_CAP]) + ("..." if len(text) > ECHO_CAP else "")


def integer(text: str) -> int:
    """Exact integer argument below 10**(MAX_POWER + 1) in magnitude,
    scientific shorthand welcome (1e6)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {_echo(text)}")
    if not value.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {_echo(text)}")
    # checked before int(), whose cost grows faster than linearly in the digits
    if value and value.adjusted() > MAX_POWER:
        raise argparse.ArgumentTypeError(
            f"must stay below 1e{MAX_POWER + 1}, got a {value.adjusted() + 1}-digit number"
        )
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {_echo(text)}")
    return int(value)


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers."""
    out = []
    for i, part in enumerate(text.split(","), 1):
        try:
            out.append(integer(part))
        except argparse.ArgumentTypeError as err:
            raise argparse.ArgumentTypeError(f"item {i} of {_echo(text)}: {err}") from None
    return tuple(out)


def integer_text(text: str) -> str:
    """An integer argument kept as written, so that an error about its
    value can echo it; `integer` checks it."""
    integer(text)
    return text


def _threads(args) -> int:
    """The thread count of --threads, else of FACTEXP_THREADS, else 1; a
    value outside [1, THREAD_CAP] is refused, named and echoed."""
    name, text = "--threads", args.threads
    if text is None:
        name, text = "FACTEXP_THREADS", os.environ.get("FACTEXP_THREADS")
        if not text:
            return 1
    try:
        threads = integer(text)
    except argparse.ArgumentTypeError as err:
        raise ValueError(f"{name}: {err}") from None
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"{name} must be in [1, {THREAD_CAP}], got {_echo(text)}")
    return threads


def _out_path(path):
    if path is None or path == "-":
        return path
    base = os.environ.get("FACTEXP_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def cmd_exponent(args) -> int:
    if args.mod is not None and args.mod < 1:
        raise ValueError(f"modulus must be >= 1, got {args.mod}")
    e = legendre_exponent(args.n, args.prime)
    # a Decimal prints every digit, past the interpreter's int-to-str digit cap
    print(e % args.mod if args.mod is not None else Decimal(e))
    return 0


def cmd_lambda(args) -> int:
    cert = lambda_index(args.prime, args.mod)
    sys.stdout.write(_dumps({
        "p": cert.p,
        "m": cert.m,
        "lambda": cert.lam,
        "m_prime": cert.m_prime,
        "m_dprime": cert.m_dprime,
        "mu": cert.mu,
    }))
    return 0


def cmd_construct(args) -> int:
    built = build_function(args.prime, args.mod)
    try:
        delta = str(construction_error_exponent(1, args.prime, args.mod))
    except OverflowError:
        delta = None
    sys.stdout.write(_dumps({
        "p": built.p,
        "m": built.m,
        "lambda": built.certificate.lam,
        "q": built.q,
        "weights": list(built.weights),
        "table_prefix": built.f.table[:16].tolist(),
        "F": built.F,
        "d": built.d,
        "delta": delta,
    }))
    return 0


def cmd_verify(args) -> int:
    report = verify_congruence(args.prime, args.mod, args.limit, chunk_size=args.chunk_size)
    sys.stdout.write(_dumps({
        "p": report.p,
        "m": report.m,
        "limit": report.limit,
        "passed": report.passed,
        "counterexample": report.counterexample,
        "f_value": report.f_value,
        "e_value": report.e_value,
    }))
    return 0


def _config(args) -> ScanConfig:
    return ScanConfig(primes=args.primes, mods=args.mods, limit=args.limit,
                      chunk_size=args.chunk_size)


def _report(args, report, to_csv, to_json) -> int:
    """Emit to_csv(report) or to_json(report), as --format asks, to --out."""
    emit(to_csv(report) if args.format == "csv" else to_json(report), _out_path(args.out))
    return 0


def cmd_scan(args) -> int:
    hist = joint_histogram(_config(args), threads=_threads(args))
    return _report(args, hist, histogram_csv, lambda h: histogram_json(h, discrepancy(h)))


def cmd_pattern(args) -> int:
    report = pattern_search(_config(args), args.pattern, threads=_threads(args))
    return _report(args, report, pattern_csv, pattern_json)


def cmd_coverage(args) -> int:
    report = pattern_coverage(args.primes, args.limit, chunk_size=args.chunk_size)
    return _report(args, report, coverage_csv, coverage_json)


def cmd_kofx(args) -> int:
    print(coverage_depth(args.x, args.c1))
    return 0


def cmd_threshold(args) -> int:
    print(coverage_log_threshold(args.k, args.c3))
    return 0


@lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factexp",
        description="prime exponents of factorials: exact values, modular "
                    "representations, and empirical distribution scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponent", help="exponent of a prime in n!")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--prime", type=integer, required=True)
    p.add_argument("--mod", type=integer, default=None, help="reduce the result")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("lambda", help="repunit order of p modulo m, with certificate")
    p.add_argument("--prime", type=integer, required=True)
    p.add_argument("--mod", type=integer, required=True)
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("construct", help="build the q-additive representation of e_p mod m")
    p.add_argument("--prime", type=integer, required=True)
    p.add_argument("--mod", type=integer, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustively check the representation on [0, limit)")
    p.add_argument("--prime", type=integer, required=True)
    p.add_argument("--mod", type=integer, required=True)
    p.add_argument("--limit", type=integer, required=True)
    p.add_argument("--chunk-size", type=integer, default=CHUNK_SIZE)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="joint residue histogram with discrepancy summary")
    p.add_argument("--primes", type=int_list, required=True)
    p.add_argument("--mods", type=int_list, required=True)
    p.add_argument("--limit", type=integer, required=True)
    p.add_argument("--chunk-size", type=integer, default=CHUNK_SIZE)
    p.add_argument("--threads", type=integer_text, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None, help="output path, - for stdout")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("pattern", help="occurrences of one residue tuple")
    p.add_argument("--primes", type=int_list, required=True)
    p.add_argument("--mods", type=int_list, required=True)
    p.add_argument("--limit", type=integer, required=True)
    p.add_argument("--pattern", type=int_list, required=True)
    p.add_argument("--chunk-size", type=integer, default=CHUNK_SIZE)
    p.add_argument("--threads", type=integer_text, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("coverage", help="first witnesses of all parity patterns")
    p.add_argument("--primes", type=int_list, required=True)
    p.add_argument("--limit", type=integer, required=True)
    p.add_argument("--chunk-size", type=integer, default=CHUNK_SIZE)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("kofx", help="guaranteed coverable pattern length below x")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.set_defaults(func=cmd_kofx)

    p = sub.add_parser("threshold", help="log of the bound past which all patterns appear")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--c3", type=float, required=True)
    p.set_defaults(func=cmd_threshold)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, RuntimeError, OSError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
