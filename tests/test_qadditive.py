"""Completely q-additive functions and the joint-system gcd checks."""

import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factexp.construction import build_function
from factexp.exponents import (
    _residue_dtype,
    _row_span,
    _shifted_tiles,
    _tile_span,
    _tiled_offsets,
    digit_sum,
    exponent_range,
    legendre_exponent,
)
from factexp.qadditive import (
    TABLE_CAP,
    DigitWeightFunction,
    QAdditiveFunction,
    _value_tile,
    _weight_table,
    check_system,
    derive_invariants,
    evaluate_range,
    kim_error_exponent,
)
from oracles import digit_pass_table, folded_value


def digit_sum_function(q: int) -> QAdditiveFunction:
    return QAdditiveFunction(q=q, table=tuple(range(q)))


@st.composite
def small_functions(draw):
    q = draw(st.integers(2, 24))
    values = draw(st.lists(st.integers(-40, 40), min_size=q, max_size=q))
    values[0] = 0
    return QAdditiveFunction(q=q, table=tuple(values))


@lru_cache(maxsize=None)
def both_forms(p: int, m: int) -> tuple[DigitWeightFunction, QAdditiveFunction]:
    """The construction for (p, m) as built, by its weights, and as a
    value table on [0, q) from the digit-pass oracle."""
    f = build_function(p, m).f
    return f, QAdditiveFunction(q=f.q, table=digit_pass_table(p, f.weights))


def digit_levels_oracle(f: QAdditiveFunction, start: int, stop: int, mod=None) -> np.ndarray:
    """f on [start, stop) one base-q digit level at a time: a //, a % and
    a table lookup per level, reduced at every level when mod is set."""
    table = np.asarray(f.table, dtype=np.int64)
    ns = np.arange(start, stop, dtype=np.int64)
    acc = np.zeros(ns.shape, dtype=np.int64)
    qj = 1
    while qj < max(stop, 2):
        acc += np.take(table, (ns // qj) % f.q)
        if mod is not None:
            acc %= mod
        qj *= f.q
    return acc


def test_digit_sum_table_is_the_digit_sum():
    f = digit_sum_function(7)
    for n in range(2000):
        assert f(n) == digit_sum(n, 7)


def test_zero_maps_to_zero():
    f = digit_sum_function(5)
    assert f(0) == 0
    assert f.evaluate(0) == 0


@given(small_functions(), st.integers(1, 10**6), st.integers(1, 6), st.data())
def test_complete_additivity(f, a, k, data):
    # the defining equation: f(a*q^k + b) = f(a) + f(b) for b < q^k
    b = data.draw(st.integers(0, f.q**k - 1))
    assert f(a * f.q**k + b) == f(a) + f(b)


def test_construction_rejections():
    with pytest.raises(ValueError, match="^base must be >= 2, got 1$"):
        QAdditiveFunction(q=1, table=(0,))
    with pytest.raises(ValueError, match=r"^a completely q-additive function has f\(0\) = 0$"):
        QAdditiveFunction(q=3, table=(1, 0, 0))
    with pytest.raises(ValueError, match="^table must have exactly q=3 entries, got 2$"):
        QAdditiveFunction(q=3, table=(0, 1))
    with pytest.raises(ValueError, match="^table must have exactly q=3 entries, got 2$"):
        QAdditiveFunction(q=3, table=np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match=f"^value table would need {TABLE_CAP + 1} entries, cap is {TABLE_CAP}$"):
        QAdditiveFunction(q=TABLE_CAP + 1, table=())


def test_table_is_a_read_only_int64_array_from_any_sequence():
    for table in ((0, 3, 1), [0, 3, 1], np.array([0, 3, 1], dtype=np.int32)):
        f = QAdditiveFunction(q=3, table=table)
        assert f.table.dtype == np.int64
        assert f.table.tolist() == [0, 3, 1]
        assert not f.table.flags.writeable
        with pytest.raises(ValueError):
            f.table[1] = 7


def test_an_int64_table_is_kept_as_a_view_and_left_writeable_for_its_caller():
    values = np.array([0, 3, 1], dtype=np.int64)
    f = QAdditiveFunction(q=3, table=values)
    assert np.shares_memory(f.table, values)
    assert values.flags.writeable and not f.table.flags.writeable
    values[1] = 5
    assert values.tolist() == [0, 5, 1]


def test_evaluate_and_invariants_return_python_ints():
    f = QAdditiveFunction(q=3, table=np.array([0, 3, 1], dtype=np.int64))
    assert type(f.evaluate(5)) is int and f.evaluate(5) == 4
    assert type(f(0)) is int
    # exact past int64: 2^62 at each of 64 digit positions
    big = QAdditiveFunction(q=2, table=(0, 1 << 62))
    assert big.evaluate(2**64 - 1) == 1 << 68
    F, d = derive_invariants(f, 4)
    assert (type(F), type(d)) == (int, int)


def test_functions_compare_by_value_and_are_unhashable():
    f = QAdditiveFunction(q=3, table=(0, 3, 1))
    assert f == QAdditiveFunction(q=3, table=np.array([0, 3, 1]))
    assert f != QAdditiveFunction(q=3, table=(0, 3, 2))
    assert f != QAdditiveFunction(q=2, table=(0, 3))
    assert f != (3, (0, 3, 1))
    with pytest.raises(TypeError):
        hash(f)


def test_evaluate_rejects_negative():
    with pytest.raises(ValueError):
        digit_sum_function(3).evaluate(-1)


@given(small_functions(), st.integers(0, 5000), st.integers(0, 400))
def test_evaluate_range_matches_scalar(f, start, width):
    arr = evaluate_range(f, start, start + width)
    assert arr.tolist() == [f(n) for n in range(start, start + width)]


@given(small_functions(), st.integers(2, 97))
def test_evaluate_range_mod(f, m):
    plain = evaluate_range(f, 0, 600)
    reduced = evaluate_range(f, 0, 600, mod=m)
    assert np.array_equal(reduced, plain % m)


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 10, 81, 169, 300, 70001]), st.integers(1, 96),
       st.integers(0, 2**30), st.integers(-3, 3), st.integers(2, 3),
       st.sampled_from([None, 2, 7, 1000]), st.data())
def test_evaluate_range_straddles_tiles(q, c, block, shift, blocks, mod, data):
    # tiles of 2^16, 3^10, 10^4, 81^2, 169^2, 300^2 and 70001 entries
    f = QAdditiveFunction(q=q, table=tuple(r * c % 97 - 48 if r else 0 for r in range(q)))
    span = _tile_span(q)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = evaluate_range(f, start, stop, mod=mod)
    assert np.array_equal(got, digit_levels_oracle(f, start, stop, mod))
    for a in range(start // span, (stop - 1) // span + 2):
        for n in (a * span - 1, a * span, a * span + 1, start, stop - 1):
            if start <= n < stop:
                assert got[n - start] == (f(n) if mod is None else f(n) % mod)


@settings(max_examples=80)
@given(st.sampled_from([2, 3, 10, 81, 169, 300, 70001]), st.integers(1, 96),
       st.sampled_from([1, 1000003]),
       st.sampled_from([2, 3, 127, 128, 129, 255, 256, 257, 2**15, 2**15 + 1, 2**16 + 1, 2**24]),
       st.integers(0, 2**30), st.integers(-3, 3), st.integers(1, 3), st.data())
def test_reduced_evaluate_range_at_every_dtype_boundary(q, c, scale, m, block, shift, blocks, data):
    f = QAdditiveFunction(q=q, table=tuple((r * c % 97 - 48) * scale if r else 0 for r in range(q)))
    span = _tile_span(q)
    start = max(0, block * span + shift)
    stop = start + data.draw(st.integers((blocks - 1) * span + 1, blocks * span))
    got = evaluate_range(f, start, stop, mod=m)
    # the same narrow dtype as e_p mod m, so the two compare directly
    assert got.dtype == exponent_range(0, 0, 3, mod=m).dtype
    assert np.array_equal(got, digit_levels_oracle(f, start, stop, m))
    assert np.array_equal(got, evaluate_range(f, start, stop) % m)


@settings(max_examples=30)
@given(st.sampled_from([(3, 7), (5, 13), (23, 24), (31, 32)]),
       st.sampled_from([None, 2, 3, 129, 2**15 + 1, 2**31 + 1, 2**63 - 1]),
       st.integers(0, 80), st.data())
def test_evaluate_range_over_whole_blocks_is_the_folded_value(pair, mod, blocks, data):
    # q = 729, 625, 529 and 961 tile by q itself; a leading partial block,
    # 0 to about 80 whole blocks and a trailing partial block below 2^40
    built = build_function(*pair)
    span = _tile_span(built.q)
    a, b = data.draw(st.integers(0, 2**40 // span)), data.draw(st.integers(0, span - 1))
    start = a * span + b
    stop = (a + blocks) * span + data.draw(st.integers(0 if blocks else b, span - 1))
    got = evaluate_range(built.f, start, stop, mod=mod)
    want = [folded_value(n, built.p, built.weights) for n in range(start, stop)]
    assert got.tolist() == (want if mod is None else [v % mod for v in want])


def test_value_tile_is_built_once_per_modulus():
    f = QAdditiveFunction(q=7, table=(0, 3, 1, 4, 1, 5, 9))
    evaluate_range(f, 0, 10**5, mod=19)
    tile = f._tiles[19]
    got = evaluate_range(f, 10**5, 2 * 10**5, mod=19)
    assert f._tiles[19] is tile
    assert np.array_equal(got, digit_levels_oracle(f, 10**5, 2 * 10**5, 19))
    evaluate_range(f, 0, 10, mod=5)
    evaluate_range(f, 0, 10)
    assert set(f._tiles) == {None, 5, 19}


@pytest.mark.parametrize("pair", [(5, 24), (5, 313), (3, 130)])
def test_value_tile_allocates_no_int64_copy_of_the_table(pair):
    # q = 5^8 and 3^12 tile by q itself; the uint8 and uint16 residues are
    # reduced from the int64 table in pieces, and 1 << 17 covers the piece
    # buffer and the ufunc buffers
    # a new function on the construction's value table, so that its tile
    # is reduced under tracemalloc
    m, table = pair[1], both_forms(*pair)[1].table
    f = QAdditiveFunction(q=table.size, table=table)
    tracemalloc.start()
    try:
        got = evaluate_range(f, 0, 10, mod=m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tile = f._tiles[m]
    assert tile.size == f.q
    assert peak < tile.nbytes + (1 << 17)
    assert np.array_equal(tile, f.table % m)
    assert got.tolist() == [f(n) % m for n in range(10)]


@pytest.mark.parametrize("q", [7, 81, 8193, 19683])
def test_value_tile_reduces_any_int64_table_exactly(q):
    # floor division and a wrapping subtraction give int(t) % m for every
    # int64 t, the two extremes included, in every residue dtype; q = 8193
    # and 19683 span more than one piece
    rng = np.random.default_rng(q)
    info = np.iinfo(np.int64)
    table = rng.integers(info.min, info.max, size=q, dtype=np.int64, endpoint=True)
    table[:3] = 0, info.min, info.max
    f = QAdditiveFunction(q=q, table=table)
    dtypes = set()
    for m in (2, 130, (1 << 31) - 1, (1 << 31) + 11, (1 << 62) + 1):
        tile = _value_tile(f, q, m)
        dtypes.add(tile.dtype)
        assert tile.tolist() == [t % m for t in table.tolist()]
    assert dtypes == {np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)}


def test_evaluate_range_reduces_each_level():
    # table values near the int64 edge only work because the accumulator
    # is reduced at every digit level
    f = QAdditiveFunction(q=2, table=(0, 1 << 61))
    arr = evaluate_range(f, 0, 64, mod=1000)
    assert arr.tolist() == [f(n) % 1000 for n in range(64)]


def test_evaluate_range_empty_and_bad_range():
    assert evaluate_range(digit_sum_function(3), 5, 5).size == 0
    with pytest.raises(ValueError):
        evaluate_range(digit_sum_function(3), 5, 4)


def test_evaluate_range_checks_its_arguments_as_exponent_range_does():
    f = digit_sum_function(3)
    for mod in (1, 0, -3):
        for kernel in (lambda: evaluate_range(f, 0, 10, mod=mod), lambda: exponent_range(0, 10, 3, mod=mod)):
            with pytest.raises(ValueError, match=f"^modulus must be >= 2, got {mod}$"):
                kernel()
    for kernel in (lambda: evaluate_range(f, 0, 1 << 63), lambda: exponent_range(0, 1 << 63, 3)):
        with pytest.raises(ValueError, match=r"^range end must stay below 2\*\*63, got 9223372036854775808$"):
            kernel()
    # the last values below 2^63 are still written
    start, stop = (1 << 63) - 6, (1 << 63) - 1
    assert evaluate_range(f, start, stop, mod=5).tolist() == [f(n) % 5 for n in range(start, stop)]


# one function of each (p, lambda) stratum that the construct benchmark
# verifies, at the largest of its moduli below 400: q = 3^12, 3^4, 5^8,
# 7^6, 11^4 and 13^2
STRATA_PAIRS = [(3, 365), (3, 40), (5, 313), (7, 344), (11, 366), (13, 14)]


@pytest.mark.parametrize("pair", STRATA_PAIRS)
def test_weight_zero_block_offsets_are_the_scalar_value(pair):
    # block ranges near 0, across a block of the level above, and near 2^62
    # (three levels above q^12) across a block of the level above, unreduced
    # and mod m, on the construction as a value table
    f, m = both_forms(*pair)[1], pair[1]
    span = _tile_span(f.q)
    far = (1 << 62) // span
    edge = far // span * span
    for mod in (None, m):
        evaluate_range(f, 0, 1, mod=mod)
        tile = f._tiles[mod]
        for a0, n in ((0, 1), (0, 3), (1, 50), (span - 2, 4), (edge - 3, 7), (far - 1000, 1000)):
            got = _tiled_offsets(a0, a0 + n, span, tile, 0, mod)
            assert got.dtype == tile.dtype
            want = [f.evaluate(a) for a in range(a0, a0 + n)]
            assert got.tolist() == (want if mod is None else [v % m for v in want]), (mod, a0, n)


# uint8, uint16 and no-row moduli, each with q <= 3^12
ROUTE_PAIRS = [(3, 35), (13, 10), (13, 7), (3, 40), (5, 313), (3, 130), (7, 344),
               (3, 7381), (5, 3906), (13, 2380)]


def test_route_pairs_cover_every_residue_route():
    rows = {(_residue_dtype(m).itemsize, _row_span(p, m) is not None) for p, m in ROUTE_PAIRS}
    assert rows == {(1, True), (2, True), (2, False)}
    assert all(p ** len(both_forms(p, m)[0].weights) <= 3**12 for p, m in ROUTE_PAIRS)


@st.composite
def ranges_of(draw, pair):
    """A range of 1 to 2^17 numbers below 2^62: anywhere, or from a few
    numbers before an edge of a run of digit groups of blocks."""
    p, m = pair
    f = both_forms(p, m)[0]
    span = _weight_table(f, m)[0].shape[-1]
    top = 0
    while span * p ** (top + 1) < 2**62:
        top += 1
    width = draw(st.integers(1, 1 << 17))
    edge = min(span * p ** draw(st.integers(0, top)) * draw(st.integers(1, p - 1)), 2**62 - 1)
    start = draw(st.one_of(st.integers(0, 2**62 - 1), st.integers(max(0, edge - width), edge)))
    return start, start + width


@settings(max_examples=80)
@given(st.sampled_from(ROUTE_PAIRS), st.data())
def test_weight_route_equals_the_table_route_mod_m(pair, data):
    start, stop = data.draw(ranges_of(pair))
    weight, table = both_forms(*pair)
    got = evaluate_range(weight, start, stop, mod=pair[1])
    want = evaluate_range(table, start, stop, mod=pair[1])
    assert got.dtype == want.dtype == _residue_dtype(pair[1])
    assert np.array_equal(got, want)


@settings(max_examples=60)
@given(st.sampled_from(ROUTE_PAIRS + [(3, 143)]),
       st.one_of(st.integers(0, 2**62), st.integers(2**63 - (1 << 13), 2**63 - 1 - (1 << 12))),
       st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=8))
def test_weight_route_is_the_floor_sum_mod_m(pair, start, points):
    # (3, 143) has q = 3^15, past any table this test builds; ranges reach
    # the last number below 2^63
    p, m = pair
    f = build_function(p, m).f
    got = evaluate_range(f, start, start + (1 << 12), mod=m)
    for i in points:
        assert got[i] == legendre_exponent(start + i, p) % m


@given(st.sampled_from([2, 3, 5, 13, 101]), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=20),
       st.integers(0, 2**200))
def test_weight_function_evaluate_is_the_folded_value(p, weights, n):
    f = DigitWeightFunction(p=p, weights=tuple(weights))
    assert f.evaluate(n) == f(n) == folded_value(n, p, tuple(weights))
    assert isinstance(f.q, int) and f.q == p ** len(weights)


@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(-40, 40), min_size=1, max_size=4),
       st.integers(2, 60))
def test_closed_form_invariants_are_those_of_the_table(p, weights, m):
    # F = w_0 and d = gcd(m, (q - 1)F, w_j - p^j F for j >= 1), against the
    # scan over the value table on [0, q)
    f = DigitWeightFunction(p=p, weights=tuple(weights))
    table = QAdditiveFunction(q=f.q, table=[f(r) for r in range(f.q)])
    assert derive_invariants(f, m) == derive_invariants(table, m)


@pytest.mark.parametrize("pair, shared", [((3, 130), True), ((5, 313), True), ((3, 40), False),
                                          ((13, 14), False)])
def test_weight_row_table_is_e_ps_only_where_its_digits_carry_e_ps_weights(pair, shared):
    # 3^6 and 5^4 blocks are shorter than q = 3^12 and 5^8; 3^7 and 13^3
    # blocks are longer than q = 3^4 and 13^2, so a weight folds back
    f = build_function(*pair).f
    table, s = _weight_table(f, pair[1])
    assert (table is _shifted_tiles(*pair)) == shared == (s <= len(f.weights))
    assert not table.flags.writeable


def test_weight_function_rejections():
    with pytest.raises(ValueError, match="base"):
        DigitWeightFunction(p=1, weights=(0,))
    with pytest.raises(ValueError, match="at least one weight"):
        DigitWeightFunction(p=3, weights=())
    with pytest.raises(ValueError, match="fit int64"):
        DigitWeightFunction(p=3, weights=(0, 1 << 62))
    with pytest.raises(ValueError):
        DigitWeightFunction(p=3, weights=(0, 1)).evaluate(-1)


def test_invariants_of_digit_sums():
    s10 = digit_sum_function(10)
    assert derive_invariants(s10, 3) == (1, 3)  # gcd(3, 9) = 3, residuals vanish
    assert derive_invariants(s10, 5) == (1, 1)  # gcd(5, 9) = 1
    assert derive_invariants(digit_sum_function(2), 9) == (1, 1)


def test_invariants_of_zero_function():
    z = QAdditiveFunction(q=6, table=(0,) * 6)
    assert derive_invariants(z, 12) == (0, 12)


@given(small_functions(), st.integers(2, 60))
def test_invariants_match_unoptimized_definition(f, m):
    F = f(1)
    d = gcd(m, (f.q - 1) * F)
    for r in range(2, f.q):
        d = gcd(d, f(r) - r * F)
    result = derive_invariants(f, m)
    assert result == (F, d)
    # d is seeded with a gcd against m, so it always divides the modulus
    assert m % result[1] == 0
    # and recomputing changes nothing
    assert derive_invariants(f, m) == result


def test_invariants_reject_bad_modulus():
    with pytest.raises(ValueError):
        derive_invariants(digit_sum_function(3), 1)


def test_system_needs_entries():
    with pytest.raises(ValueError):
        check_system(())
    with pytest.raises(ValueError):
        check_system([(digit_sum_function(10), 1)])  # modulus below 2


def test_system_of_coprime_digit_sums_passes():
    report = check_system([(digit_sum_function(2), 2), (digit_sum_function(3), 2)])
    assert report.pairwise_coprime_bases
    assert report.gcd_F_d_one == (True, True)
    assert report.pairwise_coprime_d
    assert report.all_pass


def test_system_flags_shared_base():
    report = check_system([(digit_sum_function(4), 3), (digit_sum_function(2), 2)])
    assert not report.pairwise_coprime_bases
    assert not report.all_pass


def test_system_flags_shared_d():
    # both entries have d = 3; bases 10 and 7 are coprime, so the failure
    # is isolated to the pairwise-coprime-d condition
    report = check_system(iter([(digit_sum_function(10), 3), (digit_sum_function(7), 3)]))
    assert report.pairwise_coprime_bases
    assert all(report.gcd_F_d_one)
    assert not report.pairwise_coprime_d
    assert not report.all_pass


def test_error_exponent_values():
    assert kim_error_exponent(1, 2, 2) == Fraction(1, 120 * 8 * 4)
    assert kim_error_exponent(2, 9, 2) == Fraction(1, 120 * 4 * 729 * 4)
    assert kim_error_exponent(1, 3, 2) == Fraction(1, 12960)


def test_error_exponent_overflow_and_rejections():
    with pytest.raises(OverflowError):
        kim_error_exponent(1000, 10**4, 10**4)
    # a base of thousands of digits: the message gives its bit length, not its digits
    with pytest.raises(OverflowError, match=r" for k = 1, m = 9841 has 46827 bits, exceeding 64$"):
        kim_error_exponent(1, 3**9841, 9841)
    with pytest.raises(ValueError):
        kim_error_exponent(0, 2, 2)
    with pytest.raises(ValueError):
        kim_error_exponent(1, 1, 2)
    with pytest.raises(ValueError):
        kim_error_exponent(1, 2, 1)
