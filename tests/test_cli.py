"""Command-line behavior: outputs, exit codes, the option surface."""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import factexp
import factexp.cli
from factexp.cli import build_parser, int_list, integer, main
from factexp.construction import coverage_log_threshold
from factexp.experiments import CHUNK_SIZE
from factexp.primes import nth_odd_prime


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_exponent_plain(capsys):
    assert run(capsys, "exponent", "--prime", "3", "--n", "10") == (0, "4\n", "")


def test_exponent_scientific_and_mod(capsys):
    code, out, err = run(capsys, "exponent", "--n", "1e6", "--prime", "7", "--mod", "10")
    assert (code, out, err) == (0, "4\n", "")


def test_exponent_prints_every_digit_past_the_str_digit_cap(capsys):
    # e_3(10^5000) = (n - s_3(n)) / 2 has 5000 digits, past the 4300-digit
    # default cap on int-to-str conversion; printing leaves the cap as it was
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "exponent", "--n", "1e5000", "--prime", "3")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    assert (code, err) == (0, "")
    n, s3 = 10**5000, 0
    rest = n
    while rest:
        rest, digit = divmod(rest, 3)
        s3 += digit
    want, digits = (n - s3) // 2, []
    while want:
        want, low = divmod(want, 10**100)
        digits.append(f"{low:0100d}")
    full = "".join(reversed(digits)).lstrip("0")
    assert out == full + "\n"
    # reduced mod 10^4400, the result still has more than 4300 digits
    code, out, err = run(capsys, "exponent", "--n", "1e5000", "--prime", "3", "--mod", "1e4400")
    assert (code, out, err) == (0, full[-4400:].lstrip("0") + "\n", "")


def test_lambda_json(capsys):
    code, out, _ = run(capsys, "lambda", "--prime", "13", "--mod", "10")
    assert code == 0
    assert json.loads(out) == {
        "p": 13, "m": 10, "lambda": 4, "m_prime": 2, "m_dprime": 5, "mu": 8,
    }


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--prime", "3", "--mod", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 9
    assert payload["weights"] == [0, 1]
    assert payload["table_prefix"] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert payload["F"] == 0 and payload["d"] == 1
    assert payload["delta"] == "1/349920"


def test_construct_delta_null_when_unrepresentable(capsys):
    code, out, _ = run(capsys, "construct", "--prime", "7", "--mod", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 49
    assert payload["delta"] is None


def test_construct_delta_null_when_the_denominator_has_thousands_of_digits(capsys):
    # lambda = 9, so q = 3^9 is small, but delta's denominator holds 3^(3*9841)
    code, out, err = run(capsys, "construct", "--prime", "3", "--mod", "9841")
    assert (code, err) == (0, "")
    assert '"lambda":9' in out
    assert '"delta":null' in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "3", "--mod", "2", "--limit", "1e4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["counterexample"] is None
    assert payload["limit"] == 10**4


SCAN_3_5_BYTES = (
    '{"chunk_size":1048576,"counts":[{"count":21,"residues":[0,0]},'
    '{"count":26,"residues":[0,1]},{"count":11,"residues":[0,2]},'
    '{"count":19,"residues":[1,0]},{"count":14,"residues":[1,1]},'
    '{"count":9,"residues":[1,2]}],"discrepancy":{"main_term":16.6666666667,'
    '"max_abs_dev":9.33333333333,"max_rel_dev":0.56,"worst_class":[0,1]},'
    '"limit":100,"mods":[2,3],"primes":[3,5]}\n'
)


@pytest.mark.parametrize("argv, stdout", [
    ("lambda --prime 13 --mod 10",
     '{"lambda":4,"m":10,"m_dprime":5,"m_prime":2,"mu":8,"p":13}\n'),
    ("verify --prime 3 --mod 2 --limit 1e4",
     '{"counterexample":null,"e_value":null,"f_value":null,"limit":10000,"m":2,"p":3,'
     '"passed":true}\n'),
    ("pattern --primes 3,5 --mods 2,2 --pattern 1,1 --limit 100 --format csv",
     "pattern,minimal_n,hits,max_gap\n11,5,15,28\n"),
    ("pattern --primes 3 --mods 7 --pattern 6 --limit 10",
     '{"chunk_size":1048576,"hits":0,"limit":10,"max_gap":null,"minimal_n":null,'
     '"mods":[7],"pattern":"6","primes":[3]}\n'),
    ("pattern --primes 3 --mods 7 --pattern 6 --limit 10 --format csv",
     "pattern,minimal_n,hits,max_gap\n6,,0,\n"),
    ("scan --primes 3,5 --mods 2,3 --limit 100", SCAN_3_5_BYTES),
])
def test_output_bytes(capsys, argv, stdout):
    assert run(capsys, *argv.split()) == (0, stdout, "")


def test_failed_verify_bytes(monkeypatch, capsys):
    report = factexp.CongruenceReport(13, 10, 10**6, 28560, f_value=2377, e_value=2376)
    monkeypatch.setattr(factexp.cli, "verify_congruence", lambda *args, **kwargs: report)
    assert run(capsys, "verify", "--prime", "13", "--mod", "10", "--limit", "1e6") == (
        0, '{"counterexample":28560,"e_value":2376,"f_value":2377,"limit":1000000,"m":10,'
           '"p":13,"passed":false}\n', "")


def test_scan_csv_stdout(capsys):
    code, out, _ = run(
        capsys, "scan", "--primes", "3", "--mods", "2", "--limit", "9", "--format", "csv"
    )
    assert code == 0
    assert out == "a_1,count\n0,6\n1,3\n"


def test_scan_json_to_file(tmp_path, capsys):
    target = tmp_path / "hist.json"
    code, out, _ = run(
        capsys, "scan", "--primes", "3,5", "--mods", "2,2", "--limit", "100",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["primes"] == [3, 5]
    assert "discrepancy" in payload
    assert sum(entry["count"] for entry in payload["counts"]) == 100


def test_scan_csv_file_rows_sum_to_limit(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    code, _, _ = run(
        capsys, "scan", "--primes", "3,5", "--mods", "2,2", "--limit", "1000000",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    rows = target.read_text().splitlines()
    assert rows[0] == "a_1,a_2,count"
    assert len(rows) == 5
    assert sum(int(r.rsplit(",", 1)[1]) for r in rows[1:]) == 10**6


def test_pattern_command(capsys):
    code, out, _ = run(
        capsys, "pattern", "--primes", "3,5", "--mods", "2,2", "--limit", "100",
        "--pattern", "1,0", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "10,3,27,22"


def test_coverage_command(capsys):
    code, out, _ = run(
        capsys, "coverage", "--primes", "3,5", "--limit", "1000", "--format", "csv"
    )
    assert code == 0
    assert out == "pattern,minimal_n\n00,0\n01,6\n10,3\n11,5\n"


def test_coverage_refuses_more_than_24_primes_by_their_count(capsys):
    primes = [nth_odd_prime(i) for i in range(1, 26)]
    assert run(capsys, "coverage", "--primes", ",".join(map(str, primes)), "--limit", "10") == (
        1, "", "error: coverage takes at most 24 primes (2^24 parity patterns), got 25\n")
    # 24 pass the count, so a composite among them is named instead
    code, out, err = run(capsys, "coverage", "--primes", ",".join(map(str, primes[:23] + [9])),
                         "--limit", "10")
    assert (code, out, err) == (1, "", "error: 9 is not prime\n")


def test_kofx(capsys):
    assert run(capsys, "kofx", "--x", "1e100", "--c1", "1.0") == (0, "0\n", "")


def test_threshold_round_trips(capsys):
    code, out, _ = run(capsys, "threshold", "--k", "1", "--c3", "1.0")
    assert code == 0
    assert float(out) == pytest.approx(349920 * math.log(18), rel=1e-10)
    # printed repr parses back to the exact float the library computes
    expected = coverage_log_threshold(1, 1.0)
    assert float(out) == expected


def test_threshold_refuses_a_huge_k_at_once(capsys):
    t0 = time.monotonic()
    assert run(capsys, "threshold", "--k", "1e10", "--c3", "1.0") == (
        1, "", "error: odd-prime index 10000000000 exceeds the cap of 1000000\n")
    assert time.monotonic() - t0 < 1.0


def test_runtime_errors_exit_1(capsys):
    code, out, err = run(capsys, "lambda", "--prime", "2", "--mod", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "lambda", "--prime", "3", "--mod", "3")
    assert code == 1
    assert "dividing" in err  # the violated hypothesis is named
    code, _, err = run(capsys, "construct", "--prime", "3", "--mod", "49")
    assert code == 1
    assert "cap" in err


def test_lambda_of_a_large_prime_modulus_is_fast(capsys):
    # lambda is the order of 3 mod 2(10^9 + 7): no search up to mu = 10^9 + 6
    t0 = time.perf_counter()
    code, out, err = run(capsys, "lambda", "--prime", "3", "--mod", "1000000007")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    assert '"lambda":500000003' in out
    assert elapsed < 5.0


def test_lambda_refuses_a_modulus_it_cannot_factor(capsys):
    # 2^61 - 1 is prime, so factoring it needs trial divisors up to 2^30.5
    code, out, err = run(capsys, "lambda", "--prime", "3", "--mod", str(2**61 - 1))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot factor 2305843009213693951")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["lambda", "construct"])
def test_a_modulus_past_2_to_the_64_is_refused_at_once(capsys, command):
    # 10^20000 is smooth, so it factors at once, but its powers would take minutes
    t0 = time.monotonic()
    assert run(capsys, command, "--prime", "3", "--mod", "1e20000") == (
        1, "", "error: modulus must be below 2**64, got a 66439-bit number\n")
    assert time.monotonic() - t0 < 1.0


def test_lambda_of_a_64_bit_modulus(capsys):
    code, out, err = run(capsys, "lambda", "--prime", "3", "--mod", str(2**63))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"p": 3, "m": 2**63, "lambda": 2**62, "m_prime": 2**63,
                               "m_dprime": 1, "mu": 2**63}


@pytest.mark.parametrize("argv, message", [
    ("exponent --prime 1e5000 --n 5", "primality test is only deterministic below 2**64"),
    ("lambda --prime 1e5000 --mod 2", "primality test is only deterministic below 2**64"),
    ("scan --primes 1e5000 --mods 2 --limit 10", "primality test is only deterministic"),
    ("scan --primes 3 --mods 1e5000 --limit 10", "residue class count must be at most 16777216"),
    ("coverage --primes 3 --limit 1e5000", "limit must be in [1, 2^63)"),
    ("threshold --k 1e5000 --c3 1", "odd-prime index a 16610-bit number exceeds the cap"),
    ("exponent --prime 3 --n=-1e5000", "n must be nonnegative"),
    ("exponent --prime 3 --n 5 --mod=-1e5000", "modulus must be >= 1"),
    ("exponent --prime=-1e5000 --n 5", "expected a prime"),
    ("threshold --k=-1e5000 --c3 1", "k must be >= 1"),
    ("scan --primes 1e5000,1e5000 --mods 2,2 --limit 10", "only deterministic below 2**64"),
    ("coverage --primes=-1e5000 --limit 10", "a 16610-bit number is not prime"),
    ("pattern --primes 3 --mods 2 --limit 10 --pattern=-1e5000", "pattern entry a 16610-bit"),
])
def test_errors_name_a_huge_number_by_its_width(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err and "16610-bit number" in err
    assert "Exceeds the limit" not in err and "Traceback" not in err


def test_construct_refuses_a_huge_lambda_before_forming_the_base(capsys):
    code, out, err = run(capsys, "construct", "--prime", "3", "--mod", "1000000007")
    assert (code, out) == (1, "")
    assert err == "error: table for q = 3^500000003 exceeds the 16777216-entry cap\n"


def test_write_failure_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "scan", "--primes", "3", "--mods", "2", "--limit", "9",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("message", ["Unable to allocate 9.09 TiB", ""])
def test_memory_exhaustion_exits_1(monkeypatch, capsys, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(factexp.cli, "joint_histogram", exhausted)
    code, out, err = run(capsys, "scan", "--primes", "3", "--mods", "2", "--limit", "1e13",
                         "--chunk-size", "1e13")
    assert (code, out) == (1, "")
    assert err == f"error: {message or 'out of memory'}\n"


def test_scan_refuses_a_million_threads(capsys):
    code, out, err = run(capsys, "scan", "--primes", "3", "--mods", "2", "--limit", "1e9",
                         "--chunk-size", "1", "--threads", "1000000")
    assert (code, out) == (1, "")
    assert err == "error: --threads must be in [1, 256], got '1000000'\n"


@pytest.mark.parametrize("argv", [
    "scan --primes 3,5 --mods 16,5",
    "pattern --primes 3,5 --mods 2,3 --pattern 1,2",
    "coverage --primes 3,5,7",
    "verify --prime 3 --mod 5",
])
def test_chunks_wider_than_the_cap_exit_1(capsys, argv):
    args = argv.split() + ["--limit", "1e9"]
    code, out, err = run(capsys, *args, "--chunk-size", "16777217")
    assert (code, out) == (1, "")
    assert err == "error: chunk size must be at most 16777216, got 16777217\n"
    # a chunk of exactly the cap still runs
    code, out, err = run(capsys, *args[:-1], "1e4", "--chunk-size", "16777216")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("command", ["scan", "pattern"])
@pytest.mark.parametrize("value", ["1e5000", "1e400", "0", "-3"])
def test_threads_out_of_range_are_echoed_as_written(capsys, command, value):
    # 1e5000 has more digits than an int may print, 1e400 has 401
    argv = [command, "--primes", "3", "--mods", "2", "--limit", "10", "--threads", value]
    if command == "pattern":
        argv += ["--pattern", "1"]
    assert run(capsys, *argv) == (1, "", f"error: --threads must be in [1, 256], got '{value}'\n")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nope"],
        ["exponent", "--n", "10"],
        ["exponent", "--n", "1.5", "--prime", "3"],
        ["scan", "--primes", "3"],
        ["threshold", "--k", "1", "--c3", "1.0", "--c1", "1.0"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", ["inf", "-Infinity", "sNaN"])
def test_non_finite_integer_exits_2(capsys, n):
    with pytest.raises(SystemExit) as exc:
        main(["exponent", "--prime", "3", f"--n={n}"])
    assert exc.value.code == 2
    assert "not a" in capsys.readouterr().err


def test_integer_past_the_digit_cap_exits_2_at_once(capsys):
    # converting 10^1000000 to an int alone would take about half a minute
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--primes", "3", "--mods", "2", "--limit", "1e1000000"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert exc.value.code == 2 and elapsed < 1.0
    assert [line for line in err.splitlines() if "error" in line] == [
        "factexp scan: error: argument --limit: must stay below 1e20001, got a 1000001-digit number"
    ]
    assert "Traceback" not in err
    assert integer("1e20000") == 10**20000 and integer("-9e20000") == -9 * 10**20000
    assert integer("0e1000000") == 0


def test_integer_list_item_errors_keep_their_message_and_name_the_item(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--primes", "3,1e30000", "--mods", "2,2", "--limit", "10"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error" in line] == [
        "factexp scan: error: argument --primes: item 2 of '3,1e30000': "
        "must stay below 1e20001, got a 30001-digit number"
    ]
    with pytest.raises(argparse.ArgumentTypeError, match=r"^item 3 of '3,5,x': not a number: 'x'$"):
        int_list("3,5,x")


@pytest.mark.parametrize("argv", [
    ["scan", "--primes", "3", "--mods", "2", "--limit", "x" * 10**6],
    ["scan", "--primes", "3," + "7" * 10**6 + ".5", "--mods", "2,2", "--limit", "10"],
])
def test_usage_errors_do_not_echo_a_huge_argument_whole(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err) < 2000 and "Traceback" not in err
    assert "..." in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kofx", "--x", "inf", "--c1", "1.0"],
        ["kofx", "--x", "1e400", "--c1", "1.0"],
        ["kofx", "--x", "2.7182818284590455", "--c1", "1"],
        ["kofx", "--x", "1e100", "--c1", "inf"],
        ["threshold", "--k", "1", "--c3", "inf"],
    ],
)
def test_non_finite_coverage_inputs_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mod", ["0", "-3"])
def test_exponent_mod_below_one_exits_1(capsys, mod):
    code, out, err = run(capsys, "exponent", "--prime", "3", "--n", "10", "--mod", mod)
    assert (code, out) == (1, "")
    assert err.startswith("error: modulus must be >= 1")


def test_verify_refuses_limit_past_int64_at_once(capsys):
    code, out, err = run(capsys, "verify", "--prime", "3", "--mod", "2", "--limit", "1e19")
    assert (code, out) == (1, "")
    assert err.startswith("error: limit must be in [1, 2^63)")


def test_integer_argument_type():
    assert integer("1000") == 1000
    assert integer("1e3") == 1000
    assert integer("2.5e1") == 25
    with pytest.raises(argparse.ArgumentTypeError):
        integer("1.5")
    with pytest.raises(argparse.ArgumentTypeError):
        integer("abc")
    assert int_list("3,5,7") == (3, 5, 7)
    with pytest.raises(argparse.ArgumentTypeError):
        int_list("3,x")


# Each command's required options and what they parse to, with every
# other option of the command at its default (--threads aside).
SURFACE = {
    "exponent": (["--n", "10", "--prime", "3"], {"n": 10, "prime": 3, "mod": None}),
    "lambda": (["--prime", "13", "--mod", "10"], {"prime": 13, "mod": 10}),
    "construct": (["--prime", "13", "--mod", "10"], {"prime": 13, "mod": 10}),
    "verify": (["--prime", "13", "--mod", "10", "--limit", "1e3"],
               {"prime": 13, "mod": 10, "limit": 1000, "chunk_size": CHUNK_SIZE}),
    "scan": (["--primes", "3,5", "--mods", "2,3", "--limit", "1e3"],
             {"primes": (3, 5), "mods": (2, 3), "limit": 1000, "chunk_size": CHUNK_SIZE,
              "format": "json", "out": None}),
    "pattern": (["--primes", "3,5", "--mods", "2,3", "--limit", "1e3", "--pattern", "1,2"],
                {"primes": (3, 5), "mods": (2, 3), "limit": 1000, "pattern": (1, 2),
                 "chunk_size": CHUNK_SIZE, "format": "json", "out": None}),
    "coverage": (["--primes", "3,5", "--limit", "1e3"],
                 {"primes": (3, 5), "limit": 1000, "chunk_size": CHUNK_SIZE,
                  "format": "json", "out": None}),
    "kofx": (["--x", "1e100", "--c1", "1"], {"x": 1e100, "c1": 1.0}),
    "threshold": (["--k", "1", "--c3", "1"], {"k": 1, "c3": 1.0}),
}


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_command_line_surface(capsys, command):
    argv, want = SURFACE[command]
    args = vars(build_parser().parse_args([command, *argv]))
    assert args.pop("func") is getattr(factexp.cli, f"cmd_{command}")
    assert ("threads" in args) == (command in ("scan", "pattern"))
    args.pop("threads", None)
    assert args == {"command": command, **want}
    # leaving out any one required option is a usage error that names it
    for i in range(0, len(argv), 2):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *argv[:i], *argv[i + 2:]])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: the following arguments are required: {argv[i]}\n")
    # help is formatted only when printed, so print it
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith(f"usage: factexp {command}")


def test_back_to_back_calls_share_one_parser_and_no_state(capsys):
    scan = ("scan", "--primes", "3", "--mods", "2", "--limit", "9")
    assert run(capsys, *scan, "--format", "csv") == (0, "a_1,count\n0,6\n1,3\n", "")
    # the csv choice does not stick: a plain scan is JSON again
    code, out, err = run(capsys, *scan)
    assert (code, err) == (0, "")
    assert json.loads(out)["counts"] == [{"count": 6, "residues": [0]}, {"count": 3, "residues": [1]}]
    assert run(capsys, *scan, "--format", "csv")[0] == 0
    assert build_parser() is build_parser()


def child_env():
    """Environment for a child process that imports the same factexp tree as the suite.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child neither depends on its working directory nor picks up an
    older installed copy.
    """
    env = dict(os.environ)
    root = str(Path(factexp.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def test_console_script_on_path(tmp_path):
    env = child_env()
    exe = shutil.which("factexp")
    if exe is None:
        # No installed copy: write the launcher an installer writes for the
        # [project.scripts] declaration, so the declaration itself is checked.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["factexp"]
        module, func = target.split(":")
        launcher = tmp_path / "factexp"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        launcher.chmod(0o755)
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        exe = shutil.which("factexp", path=env["PATH"])
    assert exe, "the factexp console script should be on PATH"
    res = subprocess.run(
        [exe, "exponent", "--prime", "3", "--n", "10"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "4\n"


def test_module_invocation(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "factexp", "exponent", "--prime", "3", "--n", "10"],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "4\n"


@pytest.mark.parametrize("argv", [
    ["--primes", "4", "--mods", "2", "--limits", "100"],
    ["--threads", "0", "--limits", "100"],
])
def test_equidistribution_script_exits_1_without_a_traceback(tmp_path, argv):
    script = Path(__file__).resolve().parent.parent / "scripts" / "equidistribution_scan.py"
    res = subprocess.run([sys.executable, str(script), *argv],
                         capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
