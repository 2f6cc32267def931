"""Command-line front end.

Exit status contract: 0 on success (including a verify run that finds a
counterexample; the report is the product), 1 on runtime failures
(invalid mathematical inputs, overflow, I/O, memory), 2 on usage errors
(argparse's own convention).

The parser is built from two tables: OPTIONS defines each option once,
and COMMANDS gives each command its function, options and help line.
"""

import argparse
import sys
from dataclasses import asdict
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
from .primes import _shown
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
    """The thread count of --threads; a value outside [1, THREAD_CAP] is
    refused and echoed as written."""
    threads = integer(args.threads)
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"--threads must be in [1, {THREAD_CAP}], got {_echo(args.threads)}")
    return threads


def cmd_exponent(args) -> None:
    if args.mod is not None and args.mod < 1:
        raise ValueError(f"modulus must be >= 1, got {_shown(args.mod)}")
    e = legendre_exponent(args.n, args.prime)
    # a Decimal prints every digit, past the interpreter's int-to-str digit cap
    print(Decimal(e % args.mod if args.mod is not None else e))


def cmd_lambda(args) -> None:
    cert = asdict(lambda_index(args.prime, args.mod))
    cert["lambda"] = cert.pop("lam")
    sys.stdout.write(_dumps(cert))


def cmd_construct(args) -> None:
    # built by hand: asdict would deep-copy f's value table of up to 2^24 entries
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


def cmd_verify(args) -> None:
    report = verify_congruence(args.prime, args.mod, args.limit, chunk_size=args.chunk_size)
    sys.stdout.write(_dumps({**asdict(report), "passed": report.passed}))


def _config(args) -> ScanConfig:
    return ScanConfig(primes=args.primes, mods=args.mods, limit=args.limit,
                      chunk_size=args.chunk_size)


def _report(args, report, to_csv, to_json) -> None:
    """Emit to_csv(report) or to_json(report), as --format asks, to --out."""
    emit(to_csv(report) if args.format == "csv" else to_json(report), args.out)


def cmd_scan(args) -> None:
    hist = joint_histogram(_config(args), threads=_threads(args))
    _report(args, hist, histogram_csv, lambda h: histogram_json(h, discrepancy(h)))


def cmd_pattern(args) -> None:
    report = pattern_search(_config(args), args.pattern, threads=_threads(args))
    _report(args, report, pattern_csv, pattern_json)


def cmd_coverage(args) -> None:
    report = pattern_coverage(args.primes, args.limit, chunk_size=args.chunk_size)
    _report(args, report, coverage_csv, coverage_json)


def cmd_kofx(args) -> None:
    print(coverage_depth(args.x, args.c1))


def cmd_threshold(args) -> None:
    print(coverage_log_threshold(args.k, args.c3))


# Every option once, by its flag: its argparse type or choices, default and help.
OPTIONS = {
    "--n": dict(type=integer, help="n of n!"),
    "--prime": dict(type=integer, help="the prime p"),
    "--mod": dict(type=integer, help="the modulus m (exponent: reduce the result)"),
    "--limit": dict(type=integer, help="the end of the range [0, limit)"),
    "--primes": dict(type=int_list, help="the primes p_1,...,p_k"),
    "--mods": dict(type=int_list, help="the moduli m_1,...,m_k"),
    "--pattern": dict(type=int_list, help="the residues a_1,...,a_k"),
    "--chunk-size": dict(type=integer, default=CHUNK_SIZE, help="numbers per chunk"),
    "--threads": dict(type=integer_text, default="1", help=f"worker threads, 1 to {THREAD_CAP}"),
    "--format": dict(choices=("csv", "json"), default="json"),
    "--out": dict(help="output path; stdout if absent or -"),
    "--x": dict(type=float, help="the bound x, past e"),
    "--c1": dict(type=float, help="the constant c_1"),
    "--k": dict(type=integer, help="the pattern length"),
    "--c3": dict(type=float, help="the constant c_3"),
}
# Each command: its function, its options and its help line.  The options
# read as in a usage line: a bracketed one is optional, any other required.
# The cmd_* functions look the kernels and report functions up in this
# module when called, so a wrapper installed on those names sees every call.
COMMANDS = {
    "exponent": (cmd_exponent, "n prime [mod]", "exponent of a prime in n!"),
    "lambda": (cmd_lambda, "prime mod", "repunit order of p modulo m, with certificate"),
    "construct": (cmd_construct, "prime mod", "build the q-additive representation of e_p mod m"),
    "verify": (cmd_verify, "prime mod limit [chunk-size]",
               "exhaustively check the representation on [0, limit)"),
    "scan": (cmd_scan, "primes mods limit [chunk-size] [threads] [format] [out]",
             "joint residue histogram with discrepancy summary"),
    "pattern": (cmd_pattern, "primes mods limit pattern [chunk-size] [threads] [format] [out]",
                "occurrences of one residue tuple"),
    "coverage": (cmd_coverage, "primes limit [chunk-size] [format] [out]",
                 "first witnesses of all parity patterns"),
    "kofx": (cmd_kofx, "x c1", "guaranteed coverable pattern length below x"),
    "threshold": (cmd_threshold, "k c3", "log of the bound past which all patterns appear"),
}


@lru_cache(maxsize=None)  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factexp",
        description="prime exponents of factorials: exact values, modular "
                    "representations, and empirical distribution scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, usage, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for word in usage.split():
            name = "--" + word.strip("[]")
            p.add_argument(name, required=word[0] != "[", **OPTIONS[name])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OverflowError, RuntimeError, OSError, MemoryError) as err:
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
