"""Serialization of scan results to CSV and JSON.

Output is byte-stable: rows follow lexicographic class order, JSON keys
are sorted with tight separators, and floats are rounded to 12
significant digits before serialization so platform noise cannot leak
into diffs.

Rows are built as text in row groups.  A group spells out the rows of at
most _GROUP classes: the longest suffix of axes with at most _GROUP classes,
or a block of at most _GROUP residues of a last axis wider than that.  Its
template is printf-style, with the labels of its classes written in after a
placeholder for the prefix label and a `%s` slot per value; each call builds
one template per block.  So a group is one `str.replace` of the prefix label
and one `%` over a tuple of its slice of the values.  A JSON row spells out
what `json.dumps` writes for it with sorted keys and tight separators,
spliced into the empty list left for the rows in the `json.dumps` of the
scalar fields, so the bytes equal a `json.dumps` of the whole payload
without one dict per row.
"""

import json
import math
import sys
import numpy as np

from .experiments import (
    NO_WITNESS,
    CoverageReport,
    DiscrepancyReport,
    PatternReport,
    ResidueHistogram,
)

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
_PREFIX = "\0"  # stands for the prefix label in a group template; no row holds it


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


def _labels(axes, sep: str, lead: str = "") -> list[str]:
    """The residues of every class of the product of the ranges `axes`,
    joined by `sep` and led by `lead`, in lexicographic order; [""] when
    there are no axes."""
    labels = [""]
    for i, axis in enumerate(axes):
        glue = sep if i else lead
        digits = [f"{glue}{d}" for d in axis]
        labels = [p + d for p in labels for d in digits]
    return labels


def _group(axes: tuple, row: str, sep: str, lead: str, join: str) -> str:
    """The template of one row group: `row` for each class of `axes`, its
    label after _PREFIX and a %s slot for its value, joined by `join`."""
    head, tail = row.replace("%(value)s", "%s").split("%(label)s")
    head += _PREFIX
    return head + (tail + join + head).join(_labels(axes, sep, lead)) + tail


def _rows(mods, values, row: str, sep: str, join: str) -> str:
    """The rows of all classes of `mods`, lexicographic, joined by `join`,
    from the list `values` in class order; `row` is printf-style, with
    %(label)s for the residues joined by `sep` and %(value)s for the value."""
    cut, size = len(mods), 1
    while cut and size * mods[cut - 1] <= _GROUP:
        cut -= 1
        size *= mods[cut]
    if size == 1 and mods:  # the last axis alone outgrows a group: split it in blocks
        cut, size = cut - 1, mods[-1]
        blocks = [((range(lo, min(lo + _GROUP, size)),), lo) for lo in range(0, size, _GROUP)]
    else:
        blocks = [(tuple(map(range, mods[cut:])), 0)]
    prefixes = _labels(map(range, mods[:cut]), sep)
    out = [""] * (len(prefixes) * len(blocks))
    for b, (axes, lo) in enumerate(blocks):
        group = _group(axes, row, sep, sep if cut else "", join)
        width = math.prod(map(len, axes))
        out[b :: len(blocks)] = [group.replace(_PREFIX, prefix) % tuple(values[i : i + width])
                                 for prefix, i in zip(prefixes, range(lo, len(values), size))]
    return join.join(out)


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
    return header + _rows(hist.config.mods, hist.counts.ravel().tolist(),
                          "%(label)s,%(value)s\n", ",", "")


def histogram_json(hist: ResidueHistogram, report: DiscrepancyReport | None = None) -> str:
    rows = _rows(hist.config.mods, hist.counts.ravel().tolist(),
                 '{"count":%(value)s,"residues":[%(label)s]}', ",", ",")
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


def _coverage_rows(report: CoverageReport, row: str, missing: str, join: str) -> str:
    """_rows over the patterns, `missing` standing in for NO_WITNESS. Digit i
    of a pattern is bit i of its code: pattern order reverses the k bit axes."""
    mods = (2,) * len(report.primes)
    witnesses = report.minimal.reshape(mods).transpose().ravel()
    values = witnesses.tolist()
    for i in np.flatnonzero(witnesses == NO_WITNESS).tolist():
        values[i] = missing
    return _rows(mods, values, row, "", join)


def coverage_csv(report: CoverageReport) -> str:
    return "pattern,minimal_n\n" + _coverage_rows(report, "%(label)s,%(value)s\n", "", "")


def coverage_json(report: CoverageReport) -> str:
    rows = _coverage_rows(report, '{"minimal_n":%(value)s,"pattern":"%(label)s"}', "null", ",")
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
