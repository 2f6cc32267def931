"""The repunit-order construction and its certificates.

Frozen lambda values were cross-checked once against the exact bigint
repunit scan in brute_lambda below, which the property tests keep
running on a subgrid.
"""

import dataclasses
import json
import math
import time
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import factexp.construction as cons
from factexp.construction import (
    CongruenceReport,
    build_function,
    construction_error_exponent,
    coverage_depth,
    coverage_log_threshold,
    euler_phi,
    lambda_index,
    split_modulus,
    verify_congruence,
)
from factexp.cli import main
from factexp.exponents import legendre_exponent
from factexp.primes import nth_odd_prime, primes_up_to
from factexp.qadditive import (
    TABLE_CAP,
    DigitWeightFunction,
    QAdditiveFunction,
    derive_invariants,
    evaluate_range,
    kim_error_exponent,
)
from oracles import digit_pass_table, folded_value

odd_primes_st = st.sampled_from([3, 5, 7, 11, 13, 31, 97])


def repunit(p: int, j: int) -> int:
    return (p**j - 1) // (p - 1)


def brute_lambda(p: int, m: int) -> int:
    # independent oracle: exact bigint repunits, no modular shortcuts
    for j in range(1, 5000):
        if repunit(p, j) % m == 0:
            return j
    raise AssertionError("no repunit divisible within bound")


def test_euler_phi_known_values():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert euler_phi(97) == 96
    assert euler_phi(360) == 96
    with pytest.raises(ValueError):
        euler_phi(0)


@given(st.integers(1, 300))
def test_euler_phi_counts_coprime_residues(n):
    assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_split_modulus_cases():
    assert split_modulus(13, 10) == (2, 5)
    assert split_modulus(3, 4) == (4, 1)
    assert split_modulus(7, 5) == (1, 5)
    assert split_modulus(3, 10) == (2, 5)
    assert split_modulus(2, 9) == (1, 9)
    assert split_modulus(5, 10) == (2, 5)
    with pytest.raises(ValueError):
        split_modulus(4, 10)
    with pytest.raises(ValueError):
        split_modulus(3, 1)


@given(odd_primes_st, st.integers(2, 400))
def test_split_modulus_invariants(p, m):
    mp, md = split_modulus(p, m)
    assert mp * md == m
    assert gcd(mp, md) == 1
    assert gcd(md, p - 1) == 1
    x = mp
    while x > 1:  # every prime factor of m' divides p - 1
        g = gcd(x, p - 1)
        assert g > 1
        while x % g == 0:
            x //= g


FROZEN_LAMBDAS = {
    (3, 2): 2, (5, 2): 2, (7, 2): 2, (3, 5): 4,
    (5, 3): 2, (7, 4): 2, (13, 10): 4,
    (7, 6): 6, (7, 8): 2, (3, 25): 20, (3, 49): 42,
}


def test_lambda_frozen_values():
    for (p, m), lam in FROZEN_LAMBDAS.items():
        cert = lambda_index(p, m)
        assert cert.lam == lam, (p, m)
        assert cert.lam == brute_lambda(p, m), (p, m)


def test_lambda_matches_brute_oracle_on_subgrid():
    for p in [q for q in primes_up_to(59) if q > 2]:
        for m in range(2, 200):
            if m % p == 0:
                continue
            cert = lambda_index(p, m)
            assert cert.lam == brute_lambda(p, m), (p, m)
            assert pow(p, cert.lam, m * (p - 1)) == 1, (p, m)
            assert 2 <= cert.lam <= cert.mu <= m


def test_lambda_rejections():
    with pytest.raises(ValueError):
        lambda_index(2, 5)  # even prime has no two-digit repunit trick
    with pytest.raises(ValueError):
        lambda_index(3, 1)
    with pytest.raises(ValueError):
        lambda_index(3, 6)  # p divides m
    with pytest.raises(ValueError):
        lambda_index(9, 4)


def test_lambda_modulus_stays_below_2_to_the_64():
    # 2^64 - 1 = 3 * 5 * 17 * 257 * 641 * 65537 * 6700417
    cert = lambda_index(7, 2**64 - 1)
    assert (cert.lam, cert.m_prime, cert.mu) == (17153064960, 3, 13813472443005665280)
    for m in (2**64, 2**64 + 1, 10**20000):
        with pytest.raises(ValueError, match=rf"^modulus must be below 2\*\*64, "
                                             rf"got a {m.bit_length()}-bit number$"):
            lambda_index(7, m)


# m = 5^7000 (16,254 bits) with m' = 1 and mu = phi(m): lambda = mu took
# 18.9 s to pass the checks, and lambda = 1 raised the interpreter's
# digit-limit error from the bound-chain message
@pytest.mark.parametrize("lam", [4 * 5**6999, 1], ids=["mu", "1"])
def test_certificate_refuses_a_modulus_past_2_to_the_64_at_once(lam):
    m = 5**7000
    began = time.perf_counter()
    with pytest.raises(ValueError, match=r"^modulus must be below 2\*\*64, got a 16254-bit number$"):
        cons.LambdaCertificate(p=3, m=m, lam=lam, m_prime=1, m_dprime=m, mu=4 * 5**6999)
    assert time.perf_counter() - began < 1
    # the largest power of two below the bound still builds
    assert lambda_index(3, 2**63).lam == 2**62


def test_certificate_bound_chain_names_a_huge_lambda_by_its_width():
    # 3 mod 7: m' = 1, m'' = 7, mu = phi(7) = 6
    with pytest.raises(ValueError, match=r"^need 2 <= lambda <= mu <= m, got a 601-bit number, 6, 7$"):
        cons.LambdaCertificate(p=3, m=7, lam=2**600, m_prime=1, m_dprime=7, mu=6)


@pytest.mark.parametrize("call", [
    lambda: split_modulus(4, 10),
    lambda: lambda_index(9, 4),
    lambda: build_function(15, 4),
])
def test_composite_prime_argument_message(call):
    with pytest.raises(ValueError, match="^expected a prime, got (4|9|15)$"):
        call()


def test_certificate_rejects_tampering():
    cert = lambda_index(3, 5)
    with pytest.raises(ValueError):
        dataclasses.replace(cert, lam=2)  # repunit(3,2) = 4, not divisible by 5
    with pytest.raises(ValueError):
        dataclasses.replace(cert, mu=3)  # breaks mu = m' phi(m'')
    with pytest.raises(ValueError):
        dataclasses.replace(cert, m_prime=5, m_dprime=1)  # 5 does not divide p-1


def test_certificate_rejects_non_minimal_lambda():
    # repunit(13, 8) is divisible by 10 and 8 <= mu, but lambda = 4 already works
    with pytest.raises(ValueError, match="minimal"):
        cons.LambdaCertificate(p=13, m=10, lam=8, m_prime=2, m_dprime=5, mu=8)


def table_of(built) -> QAdditiveFunction:
    """The construction as a value table on [0, q), from the digit-pass
    oracle: the table form that build_function no longer builds."""
    return QAdditiveFunction(q=built.q, table=digit_pass_table(built.p, built.weights))


def test_build_function_smallest_case():
    built = build_function(3, 2)
    assert built.q == 9
    assert built.weights == built.f.weights == (0, 1)
    assert evaluate_range(built.f, 0, built.q).tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert (built.F, built.d) == (0, 1)
    assert built.certificate.lam == 2


@pytest.mark.parametrize("p,m", [(3, 5), (5, 3), (7, 2)])
def test_table_equals_exact_exponents_below_q(p, m):
    # with fewer than lambda digits nothing folds, so f must be e_p itself
    # on [0, q)
    built = build_function(p, m)
    values = evaluate_range(built.f, 0, built.q)
    for n in range(built.q):
        assert values[n] == built.f(n) == legendre_exponent(n, p)


def test_build_function_invariants_recomputed():
    built = build_function(13, 10)
    assert derive_invariants(built.f, 10) == derive_invariants(table_of(built), 10) == (0, 1)
    assert built.f(1) == 0
    assert built.f(13) == 1


def acceptance_grid():
    """The 248 pairs of the acceptance grid: odd p < 100, m <= 50 with p
    not dividing m, and p^lambda <= 2^20.  It holds every tabulable
    FROZEN_LAMBDAS pair."""
    return [(p, m) for p in primes_up_to(100)[1:] for m in range(2, 51)
            if m % p and p ** lambda_index(p, m).lam <= 1 << 20]


def test_folded_table_equals_the_digit_pass_build_on_the_grid():
    # f on [0, q), written from the weights, is the digit-pass table, and
    # the closed-form invariants are those of that table
    grid = acceptance_grid()
    for p, m in grid:
        built = build_function(p, m)
        values = evaluate_range(built.f, 0, built.q)
        assert values.dtype == np.int64
        assert np.array_equal(values, digit_pass_table(p, built.weights)), (p, m)
        assert (built.F, built.d) == derive_invariants(table_of(built), m) == (0, 1)
    assert len(grid) == 248


def test_construct_prints_what_a_table_form_f_prints_on_the_grid(capsys):
    # the table prefix is f on [0, min(q, 16)), now evaluated from the
    # weights; the JSON is built here from a table-form f of the oracle
    for p, m in acceptance_grid():
        assert main(["construct", "--prime", str(p), "--mod", str(m)]) == 0
        cert = lambda_index(p, m)
        weights = tuple((p**j - 1) // (p - 1) for j in range(cert.lam))
        f = QAdditiveFunction(q=p**cert.lam, table=digit_pass_table(p, weights))
        F, d = derive_invariants(f, m)
        try:
            delta = str(construction_error_exponent(1, p, m))
        except OverflowError:
            delta = None
        want = {"p": p, "m": m, "lambda": cert.lam, "q": f.q, "weights": list(weights),
                "table_prefix": f.table[:16].tolist(), "F": F, "d": d, "delta": delta}
        assert capsys.readouterr().out == json.dumps(want, separators=(",", ":"), sort_keys=True) + "\n"


def test_build_at_the_table_cap_peaks_below_a_mebibyte():
    # lambda(3, 7174453) = 15, and 3^15 is just below TABLE_CAP: f is its
    # 15 weights, with no table of 3^15 int64 entries (109 MiB)
    tracemalloc.start()
    try:
        built = build_function(3, 7174453)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.q == 3**15 <= TABLE_CAP
    assert peak < 1 << 20


def test_build_function_rejects_oversized_base():
    with pytest.raises(ValueError, match="cap"):
        build_function(3, 49)  # lambda = 42, table would need 3^42 entries


def test_folded_value_matches_table_route():
    built = build_function(13, 10)
    for n in list(range(200)) + [28560, 28561, 10**6, 10**9 + 7]:
        assert folded_value(n, 13, built.weights) == built.f.evaluate(n)


@given(st.integers(0, 10**12), st.sampled_from(sorted(FROZEN_LAMBDAS)))
def test_folded_value_congruent_to_exponent(n, pair):
    p, m = pair
    cert = lambda_index(p, m)
    weights = []
    w = 0
    for _ in range(cert.lam):
        weights.append(w)
        w = w * p + 1
    assert folded_value(n, p, tuple(weights)) % m == legendre_exponent(n, p) % m


def test_verify_congruence_passes_and_reports():
    rep = verify_congruence(3, 2, 10**4)
    assert rep.passed
    assert rep.counterexample is None
    assert (rep.p, rep.m, rep.limit) == (3, 2, 10**4)
    # odd chunk sizes see the same thing
    assert verify_congruence(3, 2, 10**4, chunk_size=997).passed


def bump_last_entry(monkeypatch, p, m):
    """Make build_function(p, m) return the construction as a value table
    with its last entry raised by one, so f first differs from e_p at
    n = q - 1."""
    real = build_function(p, m)
    table = digit_pass_table(p, real.weights)
    table[-1] += 1
    bumped = dataclasses.replace(real, f=QAdditiveFunction(q=real.q, table=table))
    monkeypatch.setattr(cons, "build_function", lambda p, m: bumped)
    return bumped


def test_verify_congruence_reports_a_counterexample_exactly(monkeypatch, capsys):
    # (13, 10) has lambda = 4, so q = 13^4 = 28561; with the last table
    # entry bumped by one, f and e_13 first differ at n = q - 1 = 28560,
    # where f(n) = e_13(n) + 1 = 2377.  Chunks of 28560 put it first in
    # the second chunk, and a limit of 28561 in chunks of 997 puts it last
    # in a short last chunk.
    bumped = bump_last_entry(monkeypatch, 13, 10)
    for limit, chunk in ((10**6, 1 << 20), (10**6, 997), (10**6, 28560), (28561, 997)):
        rep = verify_congruence(13, 10, limit, chunk_size=chunk)
        assert rep.counterexample == bumped.q - 1 == 28560 and not rep.passed
        assert (rep.f_value, rep.e_value) == (bumped.f(28560), legendre_exponent(28560, 13)) == (2377, 2376)
        assert rep.f_value % 10 != rep.e_value % 10
    # every n below it agrees
    assert verify_congruence(13, 10, 28560).passed
    # the command reports the same, and a counterexample is not a failure
    assert main(["verify", "--prime", "13", "--mod", "10", "--limit", "1e6"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "p": 13, "m": 10, "limit": 10**6, "passed": False,
        "counterexample": 28560, "f_value": 2377, "e_value": 2376,
    }


def test_verify_congruence_reports_a_uint16_counterexample(monkeypatch):
    # (3, 130) has lambda = 12, so q = 3^12 = 531441 tiles by itself and
    # both sides hold uint16 residues; f and e_3 first differ at q - 1
    bumped = bump_last_entry(monkeypatch, 3, 130)
    for chunk in (1 << 20, 997):
        rep = verify_congruence(3, 130, 10**6, chunk_size=chunk)
        assert rep.counterexample == bumped.q - 1 == 531440
        assert (rep.f_value, rep.e_value) == (265709, 265708)
    assert verify_congruence(3, 130, 531440).passed


def test_verify_congruence_reports_a_raised_weight_exactly(monkeypatch):
    # (3, 143) has lambda = 15, so raising w_12 by one makes the weight form
    # first differ from e_3 at n = 3^12 = 531441, in the third piece of
    # 2^18; chunks of 10^6, 997 and 3^12 put it mid-chunk, mid-chunk and
    # first in the second chunk
    real = build_function(3, 143)
    weights = list(real.weights)
    weights[12] += 1
    bumped = dataclasses.replace(real, f=DigitWeightFunction(p=3, weights=tuple(weights)))
    monkeypatch.setattr(cons, "build_function", lambda p, m: bumped)
    n = 3**12
    for chunk in (10**6, 997, n):
        rep = verify_congruence(3, 143, 10**6, chunk_size=chunk)
        assert rep.counterexample == n and not rep.passed
        assert (rep.f_value, rep.e_value) == (bumped.f(n), legendre_exponent(n, 3)) == (265721, 265720)
    assert verify_congruence(3, 143, n).passed


@pytest.mark.parametrize("chunk", [1 << 20, 1 << 24])
def test_verify_congruence_peaks_at_its_two_piece_buffers(chunk):
    # 3 mod 143 has lambda = 15 and uint16 residues: no 3^15-entry table
    # and no chunk-sized array, only two buffers of 2^18 residues (1 MiB)
    tracemalloc.start()
    try:
        assert verify_congruence(3, 143, 1 << 22, chunk_size=chunk).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def test_verify_congruence_keeps_no_mismatch_mask():
    # warmed, a piece holds f's residues with e_p's XORed into them and
    # e_p's own residues, two buffers of 2^18 and no third array
    verify_congruence(3, 2, 1 << 22)
    tracemalloc.start()
    try:
        assert verify_congruence(3, 2, 1 << 22).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20) * np.dtype(np.uint8).itemsize + (1 << 18)


def test_verify_congruence_rejections():
    with pytest.raises(ValueError):
        verify_congruence(3, 2, 0)
    with pytest.raises(ValueError):
        verify_congruence(3, 2, 100, chunk_size=0)
    with pytest.raises(ValueError):
        verify_congruence(2, 5, 100)
    with pytest.raises(ValueError):
        verify_congruence(3, 6, 100)


def test_congruence_report_passed_property():
    bad = CongruenceReport(p=3, m=2, limit=10, counterexample=7, f_value=0, e_value=1)
    assert not bad.passed


def test_error_exponent_smallest_case():
    assert construction_error_exponent(1, 3, 2) == Fraction(1, 349920)


@given(st.integers(1, 3), st.sampled_from([3, 5, 7]), st.integers(2, 5))
def test_error_exponent_formula(k, p, m):
    assert construction_error_exponent(k, p, m) == Fraction(1, 120 * k * k * p ** (3 * m) * m * m)


def test_error_exponent_overflow_and_rejections():
    with pytest.raises(OverflowError):
        construction_error_exponent(1, 3, 50)
    with pytest.raises(OverflowError):
        construction_error_exponent(1, 7, 8)
    with pytest.raises(ValueError):
        construction_error_exponent(0, 3, 2)
    with pytest.raises(ValueError):
        construction_error_exponent(1, 1, 2)
    with pytest.raises(ValueError):
        construction_error_exponent(1, 3, 1)
    with pytest.raises(ValueError):
        construction_error_exponent(0, 3, 9841)
    # 3^(3*9841) has about 14,000 digits, more than str() may print; the
    # message gives a bit count instead, and p^m is never formed
    with pytest.raises(OverflowError, match=r" for k = 1, p = 3, m = 9841 has over 29523 bits"):
        construction_error_exponent(1, 3, 9841)
    # below the shortcut (3*m < 64 for p = 3) the exact denominator decides
    with pytest.raises(OverflowError, match=r" for k = 1, m = 21 has 116 bits"):
        construction_error_exponent(1, 3, 21)


def test_error_exponent_never_beats_system_bound():
    # the construction's exponent with p^m can only be smaller than the
    # generic one at q = p^lambda, because lambda <= m
    for p, m in FROZEN_LAMBDAS:
        lam = lambda_index(p, m).lam
        try:
            delta = construction_error_exponent(1, p, m)
        except OverflowError:
            assert lam <= m
            continue
        assert delta <= kim_error_exponent(1, p**lam, m)


def test_coverage_params_validation():
    coverage_log_threshold(3, 2.0)
    for c3 in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c3"):
            coverage_log_threshold(1, c3)
    with pytest.raises(ValueError, match="k must be"):
        coverage_log_threshold(0, 1.0)


def test_threshold_closed_form():
    value = coverage_log_threshold(1, 1.0)
    assert value == pytest.approx(349920 * math.log(18), rel=1e-12)
    # generic case against the single-log form of the same expression,
    # at p_2 = 5
    expected = 480 * 4 * 5**6 * math.log(2.5 * 2**2 * math.sqrt(2) * 25)
    assert coverage_log_threshold(2, 2.5) == pytest.approx(expected, rel=1e-12)


def test_coverage_depth_values():
    assert coverage_depth(10**100, 1.0) == 0
    assert coverage_depth(10**100, 10.0) == 5


def test_coverage_depth_monotone_in_scale_factor():
    assert coverage_depth(10**100, 1.0) <= coverage_depth(10**100, 10.0)


def test_coverage_depth_rejections():
    with pytest.raises(ValueError):
        coverage_depth(2.0, 1.0)  # x must exceed e
    with pytest.raises(ValueError):
        coverage_depth(10**100, 0.0)
    # 2.7182818284590455 is the double after e, whose ln rounds to 1.0
    for x in (math.inf, math.nan, 2.7182818284590455):
        with pytest.raises(ValueError, match="x must be finite"):
            coverage_depth(x, 1.0)
    for c1 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="c1 must be positive and finite"):
            coverage_depth(10**100, c1)


def test_odd_prime_lookup_reexported():
    assert cons.nth_odd_prime is nth_odd_prime
    assert nth_odd_prime(1) == 3
