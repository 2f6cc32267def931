"""Serialization of scan results to CSV and JSON.

Output is byte-stable: rows follow lexicographic class order, JSON keys
are sorted with tight separators, and floats are rounded to 12
significant digits before serialization so platform noise cannot leak
into diffs.
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


def histogram_csv(hist: ResidueHistogram) -> str:
    """One row per residue class, lexicographic, with a header naming
    the tuple coordinates."""
    k = hist.config.k
    lines = [",".join(f"a_{i}" for i in range(1, k + 1)) + ",count"]
    for cls, count in zip(hist.classes(), hist.counts.ravel().tolist()):
        lines.append(",".join(str(a) for a in cls) + f",{count}")
    return "\n".join(lines) + "\n"


def histogram_json(hist: ResidueHistogram, report: DiscrepancyReport | None = None) -> str:
    counts = [
        {"residues": list(cls), "count": count}
        for cls, count in zip(hist.classes(), hist.counts.ravel().tolist())
    ]
    payload = _config_dict(hist.config)
    payload["counts"] = counts
    if report is not None:
        payload["discrepancy"] = {
            "main_term": _sig12(report.main_term),
            "max_abs_dev": _sig12(report.max_abs_dev),
            "max_rel_dev": _sig12(report.max_rel_dev),
            "worst_class": list(report.worst_class),
        }
    return _dumps(payload)


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
    # Patterns in lexicographic order: the t-th is t in k binary digits,
    # bit i of the code is digit i of the pattern, so the code is t with
    # its k bits reversed.
    k = len(report.primes)
    for t in range(1 << k):
        pattern = format(t, f"0{k}b")[:k]  # at k = 0 format gives "0"
        yield pattern, report.minimal[int(pattern[::-1] or "0", 2)]


def coverage_csv(report: CoverageReport) -> str:
    lines = ["pattern,minimal_n"]
    for pat, n in _coverage_patterns(report):
        lines.append(f"{pat}," + ("" if n is None else str(n)))
    return "\n".join(lines) + "\n"


def coverage_json(report: CoverageReport) -> str:
    payload = {
        "primes": list(report.primes),
        "limit": report.limit,
        "covered_prefix": report.covered_prefix,
        "patterns": [
            {"pattern": pat, "minimal_n": n} for pat, n in _coverage_patterns(report)
        ],
    }
    return _dumps(payload)


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
