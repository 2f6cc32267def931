"""Serialization of scan results to CSV and JSON.

Output is byte-stable: rows follow lexicographic class order, JSON keys
are sorted with tight separators, and floats are rounded to 12
significant digits before serialization so platform noise cannot leak
into diffs.

A report is one `"".join` of its head, its rows in batches and its tail.
A class label is split in a prefix part (the leading axes) and a suffix
part (the longest suffix of axes with at most _SUFFIX classes, or the
last axis alone when it is wider), and each call builds the pieces of
both once, with the fixed text of a row already glued onto them.  A row
is then three items, its value string, its prefix piece and its suffix
piece, filled into an object array by broadcasting, _BATCH rows at a
time, and one `"".join` turns a batch into text.  Value strings come
from a table of str(0..top), built per call, when the largest value
`top` is below the number of values, and otherwise from one `format`
call (str of an int) per value.  A JSON report's head and tail are the
`json.dumps` of its scalar fields around the empty list left for the
rows, so the bytes equal a `json.dumps` of the whole payload without one
dict per row.

A JSON object is the fields of the dataclass it reports, by
`dataclasses.asdict`: a scan's config, its discrepancy summary and a
pattern report, whose CSV header and row are the same fields.  A
coverage report's head is built by hand, since `asdict` would deep-copy
its 2^k first witnesses.
"""

import json
import sys
from dataclasses import asdict

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

_SUFFIX = 256  # the most classes a suffix label piece spans, unless the last axis is wider
_BATCH = 1 << 14  # rows per "".join


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _labels(axes: tuple, sep: str, lead: str = "", end: str = "") -> list[str]:
    """The residues of every class of the product of the ranges `axes`,
    joined by `sep`, led by `lead` and ended by `end`, in lexicographic
    order; [lead + end] when there are no axes.  Built from the labels of
    the two halves of the axes, so most concatenations make whole labels."""
    if len(axes) < 2:
        return [f"{lead}{d}{end}" for d in (axes[0] if axes else ("",))]
    half = len(axes) // 2
    right = _labels(axes[half:], sep, sep, end)
    return [a + b for a in _labels(axes[:half], sep, lead) for b in right]


def _report(head: str, row: str, join: str, tail: str, mods, values: np.ndarray,
            sep: str, missing: str | None = None) -> str:
    """`head`, the rows of all classes of `mods` in lexicographic order joined
    by `join`, and `tail`, as one string.  `row` spells one row, with {label}
    for the residues of its class joined by `sep` and {value} for its entry
    of the int array `values`, in class order; `missing`, when given,
    stands in for NO_WITNESS."""
    value_first = row.index("{value}") < row.index("{label}")
    before, between, after = row.replace("{value}", "{label}").split("{label}")
    cut, size = len(mods), 1
    while cut and size * mods[cut - 1] <= _SUFFIX:
        cut -= 1
        size *= mods[cut]
    if size == 1 and mods:  # the last axis alone is wider than _SUFFIX classes
        cut -= 1
    prefix_axes, suffix_axes = tuple(map(range, mods[:cut])), tuple(map(range, mods[cut:]))
    # `glue` runs from the end of one row to the start of the next; it goes
    # on the label piece next to that gap, and is cut off the outer row
    glue = after + join + before
    lead = sep if cut else ""
    if value_first:  # value, prefix piece, suffix piece
        prefixes = _labels(prefix_axes, sep, between)
        suffixes = _labels(suffix_axes, sep, lead, glue)
        value, prefix = 0, 1
    else:  # prefix piece, suffix piece, value
        prefixes = _labels(prefix_axes, sep, glue)
        suffixes = _labels(suffix_axes, sep, lead, between)
        value, prefix = 2, 0
    prefixes = np.array(prefixes, dtype=object)
    suffixes = np.array(suffixes, dtype=object)
    grid = values.reshape(prefixes.size, suffixes.size)
    known = grid != NO_WITNESS if missing is not None else np.full(grid.shape, True)
    top = int(grid.max(initial=-1, where=known))
    # str(0..top) costs no more than one str per present value; NO_WITNESS
    # clips to the last entry of the table, `missing`
    table = (np.array([*map(str, range(top + 1)), missing], dtype=object)
             if top < np.count_nonzero(known) else None)
    rows, cols = max(1, _BATCH // suffixes.size), min(suffixes.size, _BATCH)
    batches = [head + before]
    for i in range(0, prefixes.size, rows):
        for j in range(0, suffixes.size, cols):
            block = grid[i : i + rows, j : j + cols]
            items = np.empty((*block.shape, 3), dtype=object)
            items[..., prefix] = prefixes[i : i + rows, None]
            items[..., prefix + 1] = suffixes[j : j + cols]
            strings = items[..., value]
            if table is not None:
                np.take(table, block, out=strings, mode="clip")
            else:
                present = known[i : i + rows, j : j + cols]
                strings[~present] = missing
                # format(n) is str(n) for an int, and the faster call
                strings[present] = np.fromiter(map(format, block[present].tolist()), object,
                                               np.count_nonzero(present))
            batches.append("".join(items.ravel().tolist()))
    if value_first:
        batches[-1] = batches[-1][: len(batches[-1]) - len(glue)]
    else:
        batches[1] = batches[1][len(glue) :]
    batches.append(after + tail)
    return "".join(batches)


def _json_ends(payload: dict, key: str) -> tuple[str, str]:
    """The text of _dumps(payload) before and after the elements of the
    JSON array payload[key]."""
    payload[key] = []
    # the scalar fields before `key` in sorted order hold no such text
    head, tail = _dumps(payload).split(f'"{key}":[]', 1)
    return f'{head}"{key}":[', f"]{tail}"


def histogram_csv(hist: ResidueHistogram) -> str:
    """One row per residue class, lexicographic, with a header naming
    the tuple coordinates."""
    k = hist.config.k
    header = ",".join(f"a_{i}" for i in range(1, k + 1)) + ",count\n"
    return _report(header, "{label},{value}\n", "", "", hist.config.mods, hist.counts, ",")


def histogram_json(hist: ResidueHistogram, report: DiscrepancyReport | None = None) -> str:
    payload = asdict(hist.config)
    if report is not None:
        payload["discrepancy"] = {key: _sig12(value) if isinstance(value, float) else value
                                  for key, value in asdict(report).items()}
    head, tail = _json_ends(payload, "counts")
    return _report(head, '{"count":{value},"residues":[{label}]}', ",", tail,
                   hist.config.mods, hist.counts, ",")


def _pattern_str(pattern, mods) -> str:
    if all(m == 2 for m in mods):
        return "".join(str(b) for b in pattern)
    return "-".join(str(a) for a in pattern)


def _pattern_fields(report: PatternReport) -> dict:
    """The report's fields but its config, in field order, with the pattern
    spelled out."""
    fields = asdict(report)
    del fields["config"]
    fields["pattern"] = _pattern_str(report.pattern, report.config.mods)
    return fields


def pattern_csv(report: PatternReport) -> str:
    fields = _pattern_fields(report)
    values = ("" if value is None else str(value) for value in fields.values())
    return ",".join(fields) + "\n" + ",".join(values) + "\n"


def pattern_json(report: PatternReport) -> str:
    return _dumps({**asdict(report.config), **_pattern_fields(report)})


def _coverage(report: CoverageReport, head: str, row: str, join: str, tail: str,
              missing: str) -> str:
    """_report over the patterns.  Digit i of a pattern is bit i of its code:
    pattern order reverses the k bit axes."""
    mods = (2,) * len(report.primes)
    witnesses = report.minimal.reshape(mods).transpose()
    return _report(head, row, join, tail, mods, witnesses, "", missing)


def coverage_csv(report: CoverageReport) -> str:
    return _coverage(report, "pattern,minimal_n\n", "{label},{value}\n", "", "", "")


def coverage_json(report: CoverageReport) -> str:
    head, tail = _json_ends({
        "primes": list(report.primes),
        "limit": report.limit,
        "covered_prefix": report.covered_prefix,
    }, "patterns")
    return _coverage(report, head, '{"minimal_n":{value},"pattern":"{label}"}', ",", tail, "null")


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
