"""Serialization of scan results to CSV and JSON.

Output is byte-stable: rows follow lexicographic class order, JSON keys
are sorted with tight separators, and floats are rounded to 12
significant digits before serialization so platform noise cannot leak
into diffs.

The per-class and per-pattern rows are built as text: the comma-joined
residue labels of all classes come from extending a list of prefixes one
axis at a time, and each row is one `str.format` of a fixed template.
A JSON row template spells out exactly what `json.dumps` writes for
that object with sorted keys and tight separators, and the rows are
spliced into the empty list left for them in the `json.dumps` text of
the scalar fields, so the bytes equal a `json.dumps` of the whole
payload without one dict per row.
"""

import json
import sys

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


def _labels(mods, sep: str = ",") -> list[str]:
    """The residues of every class joined by `sep`, in lexicographic
    order; [""] when there are no moduli."""
    labels = [""]
    for i, m in enumerate(mods):
        glue = sep if i else ""
        digits = [f"{glue}{d}" for d in range(m)]
        labels = [p + d for p in labels for d in digits]
    return labels


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
    rows = map("{},{}\n".format, _labels(hist.config.mods), hist.counts.ravel().tolist())
    return header + "".join(rows)


def histogram_json(hist: ResidueHistogram, report: DiscrepancyReport | None = None) -> str:
    rows = ",".join(map('{{"count":{},"residues":[{}]}}'.format,
                        hist.counts.ravel().tolist(), _labels(hist.config.mods)))
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


def _coverage_patterns(report: CoverageReport):
    """(pattern, witness) pairs with the patterns in lexicographic order.
    Digit i of a pattern is bit i of its code, so the codes are built
    digit by digit alongside the patterns."""
    k = len(report.primes)
    codes = [0]
    for i in range(k):
        codes = [c | b << i for c in codes for b in (0, 1)]
    return zip(_labels((2,) * k, sep=""), [report.minimal[c] for c in codes])


def coverage_csv(report: CoverageReport) -> str:
    rows = ("{},{}\n".format(pat, "" if n is None else n)
            for pat, n in _coverage_patterns(report))
    return "pattern,minimal_n\n" + "".join(rows)


def coverage_json(report: CoverageReport) -> str:
    rows = ",".join(
        '{{"minimal_n":{},"pattern":"{}"}}'.format("null" if n is None else n, pat)
        for pat, n in _coverage_patterns(report)
    )
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
