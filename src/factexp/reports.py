"""Serialization of scan results to CSV and JSON.

Output is byte-stable: rows follow lexicographic class order, JSON keys
are sorted with tight separators, and floats are rounded to 12
significant digits before serialization so platform noise cannot leak
into diffs.

Rows are built as text in row groups: one template spells out the rows of
the longest suffix of axes with at most _GROUP classes, field 0 holding the
residues of a prefix class and the other fields the values, so a group is
one `str.format` call. A JSON row spells out what `json.dumps` writes for
it with sorted keys and tight separators, spliced into the empty list left
for the rows in the `json.dumps` of the scalar fields, so the bytes equal a
`json.dumps` of the whole payload without one dict per row.
"""

import json
import sys

import numpy as np

from .experiments import CoverageReport, DiscrepancyReport, PatternReport, ResidueHistogram

__all__ = [
    "histogram_csv",
    "histogram_json",
    "pattern_csv",
    "pattern_json",
    "coverage_csv",
    "coverage_json",
    "emit",
]

_GROUP = 256  # the most classes one row group spells out in its template


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _config_dict(config) -> dict:
    return {
        "primes": list(config.primes),
        "mods": list(config.mods),
        "limit": config.limit,
        "chunk_size": config.chunk_size,
    }


def _labels(mods, sep: str, lead: str = "") -> list[str]:
    """The residues of every class joined by `sep` and led by `lead`, in
    lexicographic order; [""] when there are no moduli."""
    labels = [""]
    for i, m in enumerate(mods):
        glue = sep if i else lead
        digits = [f"{glue}{d}" for d in range(m)]
        labels = [p + d for p in labels for d in digits]
    return labels


def _rows(mods, values, row: str, sep: str, join: str) -> str:
    """The rows of all classes of `mods`, lexicographic, joined by `join`; `row`
    formats one from the residues joined by `sep` ({0}) and its value ({1})."""
    cut, size = len(mods), 1
    while cut and size * mods[cut - 1] <= _GROUP:
        cut -= 1
        size *= mods[cut]
    prefixes = _labels(mods[:cut], sep)
    if size == 1:  # no group: auto-numbered fields format a little faster
        args = (prefixes, values) if row.index("{0}") < row.index("{1}") else (values, prefixes)
        return join.join(map(row.replace("{0}", "{}").replace("{1}", "{}").format, *args))
    group = join.join(row.replace("{0}", "{0}" + label).replace("{1}", f"{{{i}}}")
                      for i, label in enumerate(_labels(mods[cut:], sep, sep if cut else ""), 1))
    # map draws the `size` values of each group from the one iterator in turn
    return join.join(map(group.format, prefixes, *[iter(values)] * size))


def _dumps_with_rows(payload: dict, key: str, rows: str) -> str:
    """_dumps(payload) with payload[key] holding the JSON array whose
    elements are the preformatted `rows`."""
    payload[key] = []
    # the scalar fields before `key` in sorted order hold no such text
    head, tail = _dumps(payload).split(f'"{key}":[]', 1)
    return f'{head}"{key}":[{rows}]{tail}'


def histogram_csv(hist: ResidueHistogram) -> str:
    """One row per residue class, lexicographic, with a header naming
    the tuple coordinates."""
    k = hist.config.k
    header = ",".join(f"a_{i}" for i in range(1, k + 1)) + ",count\n"
    return header + _rows(hist.config.mods, hist.counts.ravel().tolist(), "{0},{1}\n", ",", "")


def histogram_json(hist: ResidueHistogram, report: DiscrepancyReport | None = None) -> str:
    rows = _rows(hist.config.mods, hist.counts.ravel().tolist(),
                 '{{"count":{1},"residues":[{0}]}}', ",", ",")
    payload = _config_dict(hist.config)
    if report is not None:
        payload["discrepancy"] = {
            "main_term": _sig12(report.main_term),
            "max_abs_dev": _sig12(report.max_abs_dev),
            "max_rel_dev": _sig12(report.max_rel_dev),
            "worst_class": list(report.worst_class),
        }
    return _dumps_with_rows(payload, "counts", rows)


def _pattern_str(pattern, mods) -> str:
    if all(m == 2 for m in mods):
        return "".join(str(b) for b in pattern)
    return "-".join(str(a) for a in pattern)


def pattern_csv(report: PatternReport) -> str:
    pat = _pattern_str(report.pattern, report.config.mods)
    minimal = "" if report.minimal_n is None else str(report.minimal_n)
    gap = "" if report.max_gap is None else str(report.max_gap)
    return "pattern,minimal_n,hits,max_gap\n" + f"{pat},{minimal},{report.hits},{gap}\n"


def pattern_json(report: PatternReport) -> str:
    payload = _config_dict(report.config)
    payload["pattern"] = _pattern_str(report.pattern, report.config.mods)
    payload["minimal_n"] = report.minimal_n
    payload["hits"] = report.hits
    payload["max_gap"] = report.max_gap
    return _dumps(payload)


def _coverage_rows(report: CoverageReport, row: str, missing, join: str) -> str:
    """_rows over the patterns, `missing` standing for a None witness. Digit i
    of a pattern is bit i of its code: pattern order reverses the k bit axes."""
    mods = (2,) * len(report.primes)
    codes = np.array(report.minimal, dtype=object).reshape(mods).transpose()
    return _rows(mods, [missing if n is None else n for n in codes.ravel().tolist()], row, "", join)


def coverage_csv(report: CoverageReport) -> str:
    return "pattern,minimal_n\n" + _coverage_rows(report, "{0},{1}\n", "", "")


def coverage_json(report: CoverageReport) -> str:
    rows = _coverage_rows(report, '{{"minimal_n":{1},"pattern":"{0}"}}', "null", ",")
    payload = {
        "primes": list(report.primes),
        "limit": report.limit,
        "covered_prefix": report.covered_prefix,
    }
    return _dumps_with_rows(payload, "patterns", rows)


def emit(text: str, destination=None) -> None:
    """Write to stdout (destination None or "-") or to a file path.

    File errors propagate untouched so callers can map them to an exit
    status.
    """
    if destination is None or destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)
