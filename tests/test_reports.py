"""Serialization goldens and byte-stability."""

import itertools
import json

import pytest

from factexp.experiments import (
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
    _coverage_patterns,
    coverage_csv,
    coverage_json,
    emit,
    histogram_csv,
    histogram_json,
    pattern_csv,
    pattern_json,
)


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
    lexicographic order, bit i of the code is the i-th pattern digit."""
    k = len(report.primes)
    for bits in itertools.product((0, 1), repeat=k):
        code = sum(b << i for i, b in enumerate(bits))
        yield "".join(str(b) for b in bits), report.minimal[code]


@pytest.mark.parametrize("k", range(13))
def test_coverage_patterns_match_bit_by_bit_oracle(k):
    minimal = tuple(None if c % 5 == 4 else 3 * c for c in range(1 << k))
    report = CoverageReport(primes=tuple(primes_up_to(40)[:k]), limit=1 << 20,
                            minimal=minimal, covered_prefix=0)
    assert list(_coverage_patterns(report)) == list(bit_by_bit_patterns(report))


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
