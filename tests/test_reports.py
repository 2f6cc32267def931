"""Serialization goldens and byte-stability."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from factexp.experiments import (
    NO_WITNESS,
    CoverageReport,
    ResidueHistogram,
    ScanConfig,
    discrepancy,
    joint_histogram,
    pattern_coverage,
    pattern_search,
)
from factexp.primes import primes_up_to
from factexp.reports import (
    coverage_csv,
    coverage_json,
    emit,
    histogram_csv,
    histogram_json,
    pattern_csv,
    pattern_json,
)
from oracles import set_covered_prefix


@pytest.fixture(scope="module")
def small_hist():
    return joint_histogram(ScanConfig(primes=(3,), mods=(2,), limit=9))


def test_histogram_csv_golden(small_hist):
    assert histogram_csv(small_hist) == "a_1,count\n0,6\n1,3\n"


def test_histogram_csv_lex_rows():
    hist = joint_histogram(ScanConfig(primes=(3, 5), mods=(2, 2), limit=20))
    lines = histogram_csv(hist).splitlines()
    assert lines[0] == "a_1,a_2,count"
    assert [ln.rsplit(",", 1)[0] for ln in lines[1:]] == ["0,0", "0,1", "1,0", "1,1"]
    assert sum(int(ln.rsplit(",", 1)[1]) for ln in lines[1:]) == 20


def test_histogram_json_fields(small_hist):
    text = histogram_json(small_hist, discrepancy(small_hist))
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["primes"] == [3]
    assert payload["mods"] == [2]
    assert payload["limit"] == 9
    assert payload["chunk_size"] == 1 << 20
    assert payload["counts"] == [
        {"residues": [0], "count": 6},
        {"residues": [1], "count": 3},
    ]
    disc = payload["discrepancy"]
    assert disc["main_term"] == 4.5
    assert disc["max_abs_dev"] == 1.5
    assert disc["max_rel_dev"] == 0.333333333333  # 12 significant digits
    assert disc["worst_class"] == [0]


def test_histogram_json_without_discrepancy(small_hist):
    payload = json.loads(histogram_json(small_hist))
    assert "discrepancy" not in payload


def test_histogram_json_byte_stable(small_hist):
    rep = discrepancy(small_hist)
    assert histogram_json(small_hist, rep) == histogram_json(small_hist, rep)


def test_pattern_csv_parity_bitstring():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 2), limit=100)
    rep = pattern_search(cfg, (1, 0))
    assert pattern_csv(rep) == "pattern,minimal_n,hits,max_gap\n10,3,27,22\n"


def test_pattern_csv_dash_separated_when_not_parity():
    cfg = ScanConfig(primes=(3, 5), mods=(2, 3), limit=200)
    rep = pattern_search(cfg, (1, 2))
    line = pattern_csv(rep).splitlines()[1]
    assert line == "1-2,12,28,47"


def test_pattern_csv_empty_fields_when_no_hits():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=3)
    rep = pattern_search(cfg, (1,))
    assert pattern_csv(rep) == "pattern,minimal_n,hits,max_gap\n1,,0,\n"


def test_pattern_json_nulls_and_fields():
    cfg = ScanConfig(primes=(3,), mods=(2,), limit=3)
    payload = json.loads(pattern_json(pattern_search(cfg, (1,))))
    assert payload["pattern"] == "1"
    assert payload["minimal_n"] is None
    assert payload["hits"] == 0
    assert payload["max_gap"] is None
    assert payload["primes"] == [3]


def test_coverage_csv_golden():
    rep = pattern_coverage((3, 5), 1000)
    assert coverage_csv(rep) == "pattern,minimal_n\n00,0\n01,6\n10,3\n11,5\n"


def test_coverage_csv_missing_pattern_empty_field():
    rep = pattern_coverage((3, 5), 6)
    lines = coverage_csv(rep).splitlines()
    assert lines[2] == "01,"  # pattern (0,1) has no witness below 6


def bit_by_bit_patterns(report):
    """(pattern, witness) pairs straight from the definition: patterns in
    lexicographic order, bit i of the code is the i-th pattern digit, and
    None stands for NO_WITNESS."""
    k = len(report.primes)
    for bits in itertools.product((0, 1), repeat=k):
        code = sum(b << i for i, b in enumerate(bits))
        n = int(report.minimal[code])
        yield "".join(str(b) for b in bits), None if n == NO_WITNESS else n




def test_coverage_json_fields():
    payload = json.loads(coverage_json(pattern_coverage((3, 5), 1000)))
    assert payload["primes"] == [3, 5]
    assert payload["limit"] == 1000
    assert payload["covered_prefix"] == 2
    assert payload["patterns"] == [
        {"pattern": "00", "minimal_n": 0},
        {"pattern": "01", "minimal_n": 6},
        {"pattern": "10", "minimal_n": 3},
        {"pattern": "11", "minimal_n": 5},
    ]


def test_emit_stdout(capsys):
    emit("hello\n", None)
    emit("again\n", "-")
    assert capsys.readouterr().out == "hello\nagain\n"


def test_emit_file(tmp_path):
    target = tmp_path / "out.csv"
    emit("a,b\n1,2\n", str(target))
    assert target.read_text() == "a,b\n1,2\n"


def test_emit_propagates_file_errors(tmp_path):
    with pytest.raises(OSError):
        emit("x", str(tmp_path / "missing" / "out.csv"))


# The slow oracle: the serializers as plain dicts and tuple joins under
# json.dumps(sort_keys=True) with tight separators.  The fast ones must
# give the same bytes.


def oracle_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def lex_classes(hist):
    return itertools.product(*(range(m) for m in hist.config.mods))


def oracle_histogram_csv(hist) -> str:
    k = hist.config.k
    lines = [",".join(f"a_{i}" for i in range(1, k + 1)) + ",count"]
    for cls, count in zip(lex_classes(hist), hist.counts.ravel().tolist()):
        lines.append(",".join(str(a) for a in cls) + f",{count}")
    return "\n".join(lines) + "\n"


def oracle_histogram_json(hist, report=None) -> str:
    config = hist.config
    payload = {
        "primes": list(config.primes),
        "mods": list(config.mods),
        "limit": config.limit,
        "chunk_size": config.chunk_size,
        "counts": [
            {"residues": list(cls), "count": count}
            for cls, count in zip(lex_classes(hist), hist.counts.ravel().tolist())
        ],
    }
    if report is not None:
        payload["discrepancy"] = {
            "main_term": float(f"{report.main_term:.12g}"),
            "max_abs_dev": float(f"{report.max_abs_dev:.12g}"),
            "max_rel_dev": float(f"{report.max_rel_dev:.12g}"),
            "worst_class": list(report.worst_class),
        }
    return oracle_dumps(payload)


def oracle_coverage_csv(report) -> str:
    lines = ["pattern,minimal_n"]
    for pat, n in bit_by_bit_patterns(report):
        lines.append(f"{pat}," + ("" if n is None else str(n)))
    return "\n".join(lines) + "\n"


def oracle_coverage_json(report) -> str:
    return oracle_dumps({
        "primes": list(report.primes),
        "limit": report.limit,
        "covered_prefix": report.covered_prefix,
        "patterns": [{"pattern": pat, "minimal_n": n} for pat, n in bit_by_bit_patterns(report)],
    })


@st.composite
def histograms(draw):
    """Histograms of k = 1..5 moduli in 2..12 (so two-digit residues
    appear) with zero counts, small counts and counts above 2^32."""
    k = draw(st.integers(1, 5))
    mods, room = [], 300
    for i in range(k):
        m = draw(st.integers(2, min(12, room // 2 ** (k - 1 - i))))
        mods.append(m)
        room //= m
    size = math.prod(mods)
    count = st.sampled_from([0, 1]) | st.integers(0, 99) | st.integers(2**32, 2**40)
    counts = draw(st.lists(count, min_size=size, max_size=size).filter(any))
    config = ScanConfig(primes=primes_up_to(40)[1 : k + 1], mods=tuple(mods),
                        limit=sum(counts), chunk_size=draw(st.integers(1, 2**40)))
    return ResidueHistogram(config=config, counts=counts)


# the explain phase takes over a minute to report a failing example here
@settings(phases=[phase for phase in Phase if phase is not Phase.explain])
@given(histograms(), st.booleans())
def test_histogram_serializers_match_oracle(hist, with_report):
    assert histogram_csv(hist) == oracle_histogram_csv(hist)
    report = discrepancy(hist) if with_report else None
    assert histogram_json(hist, report) == oracle_histogram_json(hist, report)


# Shapes around the suffix label pieces of at most 256 classes and the
# batches of 2^14 rows: one axis just inside and just outside a suffix, a
# suffix under a prefix axis, a suffix that stops growing at 256 classes,
# a last axis wider than that (alone and under a prefix axis), nine axes,
# two whole batches, batches of whole 257-row blocks with a partial last
# batch, and a last axis wider than a batch, cut in two (alone and under a
# prefix axis).
@pytest.mark.parametrize("mods", [(256,), (257,), (2, 128), (2, 129), (16, 16), (16, 17),
                                  (3, 1009), (1031,), (2, 600), (2,) * 9, (2,) * 15,
                                  (128, 257), (20000,), (3, 16500)])
def test_histogram_serializers_match_oracle_at_group_boundaries(mods):
    counts = [(7919 * i) % 1000 for i in range(math.prod(mods))]
    config = ScanConfig(primes=primes_up_to(60)[1 : len(mods) + 1], mods=mods, limit=sum(counts))
    hist = ResidueHistogram(config=config, counts=counts)
    assert histogram_csv(hist) == oracle_histogram_csv(hist)
    report = discrepancy(hist)
    assert histogram_json(hist, report) == oracle_histogram_json(hist, report)


# A fifth of the patterns missing at k = 0..14, and at k = 15 (two batches
# of rows) none or all of them.
@pytest.mark.parametrize("k, share", [*(pytest.param(k, 0.2, id=str(k)) for k in range(15)),
                                      pytest.param(15, 0.0, id="15-none-missing"),
                                      pytest.param(15, 1.0, id="15-all-missing")])
def test_coverage_patterns_match_bit_by_bit_oracle(k, share):
    minimal = 3 * np.arange(1 << k, dtype=np.int64)
    rng = np.random.default_rng(k)
    minimal[rng.random(minimal.size) < share] = NO_WITNESS
    report = CoverageReport(primes=tuple(primes_up_to(50)[:k]), limit=1 << 20, minimal=minimal)
    assert coverage_csv(report) == oracle_coverage_csv(report)
    assert coverage_json(report) == oracle_coverage_json(report)


@given(st.integers(0, 7).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.just(NO_WITNESS) | st.integers(0, NO_WITNESS - 1),
             min_size=1 << k, max_size=1 << k),
)), st.integers(1, 2**63))
def test_coverage_serializers_match_oracle(drawn, limit):
    k, minimal = drawn
    report = CoverageReport(primes=tuple(primes_up_to(40)[1 : k + 1]), limit=limit,
                            minimal=tuple(minimal))
    assert report.covered_prefix == set_covered_prefix(report)
    assert coverage_csv(report) == oracle_coverage_csv(report)
    assert coverage_json(report) == oracle_coverage_json(report)


# Values at the edge of the two routes to value strings: a largest value one
# below the number of values (a table of str(0..top)) and equal to it (one
# str per value), and values near 2^63 - 1.  20 classes.
@pytest.mark.parametrize("counts", [
    list(range(10, 20)) + list(range(10)),
    [20] + list(range(19)),
    [0] * 19 + [1],
    [2**63 - 20] + [1] * 19,
], ids=["top=count-1", "top=count", "one-nonzero", "near-2^63"])
def test_histogram_value_routes_match_oracle(counts):
    config = ScanConfig(primes=(3, 5), mods=(4, 5), limit=sum(counts))
    hist = ResidueHistogram(config=config, counts=counts)
    assert histogram_csv(hist) == oracle_histogram_csv(hist)
    assert histogram_json(hist) == oracle_histogram_json(hist)


# The same for coverage, 16 patterns, with and without missing ones, and
# with all witnesses zero.  The count is that of the present values: an
# early rung of the coverage ladder, most patterns missing, has its largest
# witness between that count and the number of patterns.
@pytest.mark.parametrize("minimal", [
    list(range(15, -1, -1)),
    list(range(14)) + [NO_WITNESS, 13],
    [16] + list(range(15)),
    [16] + list(range(14)) + [NO_WITNESS],
    [0] * 16,
    [NO_WITNESS - 1, NO_WITNESS] + list(range(14)),
    [NO_WITNESS] * 5 + [0, NO_WITNESS, 9, NO_WITNESS, 3, NO_WITNESS, 14, NO_WITNESS, 6, NO_WITNESS, 1],
    [NO_WITNESS] * 10 + [5, 0, 4, 1, 3, 2],
], ids=["top=count-1", "top<count-missing", "top=count", "top=count-missing", "all-zero",
        "near-2^63", "early-rung", "early-rung-top=count-1"])
def test_coverage_value_routes_match_oracle(minimal):
    report = CoverageReport(primes=(3, 5, 7, 11), limit=2**63 - 1, minimal=minimal)
    assert coverage_csv(report) == oracle_coverage_csv(report)
    assert coverage_json(report) == oracle_coverage_json(report)
