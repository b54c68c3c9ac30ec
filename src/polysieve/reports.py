"""Structured experiment reports with JSON/CSV emission.

Reports are plain data: a config echo, a results dict, optional named
tables held as columns ({column: list of cells}, all of one length),
timings, and the semi-decision disclosures (k_max caps) whenever closure
questions were only scanned.  JSON output is deterministic for a fixed
(config, seed) up to the timings block.  A table goes to JSON as a list
of rows, each a flat dict keyed by column, and to CSV as one line per
row; both are written a column at a time.
"""

import csv
import json
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import InvariantViolation

TOOL_VERSION = "0.1.0"


@dataclass
class ExperimentReport:
    subcommand: str
    config: dict
    results: dict
    tables: dict = dc_field(default_factory=dict)
    timings: dict = dc_field(default_factory=dict)
    semi_decisions: dict = dc_field(default_factory=dict)
    seed: int = 0

    def validate(self):
        """Cross-checks that must hold in any emitted report."""
        res = self.results
        if "exact_count" in res and "sieve_count" in res:
            if res["exact_count"] != res["sieve_count"]:
                raise InvariantViolation(
                    f"exact count {res['exact_count']} != "
                    f"sieve count {res['sieve_count']}")
        for name, columns in self.tables.items():
            if len(set(map(len, columns.values()))) > 1:
                raise InvariantViolation(f"table {name!r} has columns of unequal length")
        return self

    def to_dict(self):
        return {
            "tool": "polysieve",
            "version": TOOL_VERSION,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "config": self.config,
            "results": self.results,
            "tables": self.tables,
            "semi_decisions": self.semi_decisions,
            "timings": self.timings,
        }


def _json_default(obj):
    """What json cannot encode itself: complex as {"re", "im"}, sets sorted
    by repr, numpy scalars and arrays as Python values, the rest by repr."""
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj, key=repr)
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return obj.tolist()
    return repr(obj)


_encode = json.JSONEncoder(sort_keys=True, default=_json_default).encode


def _table_json(columns):
    """A table's rows in JSON, a column at a time: exact ints and strs by the C
    encoder's own functions, the cells of any other column through _encode."""
    n, k = len(next(iter(columns.values()), ())), len(columns)
    if not n:
        return "[]"
    flat = [None] * (2 * k * n)  # per row and key: '}, {"key": ' or ', "key": ', then the cell
    for j, key in enumerate(sorted(columns)):
        cells, kinds = columns[key], set(map(type, columns[key]))
        head = ("}, {" if j == 0 else ", ") + encode_basestring_ascii(key) + ": "
        flat[2 * j::2 * k] = [head] * n
        flat[2 * j + 1::2 * k] = map(int.__repr__ if kinds == {int} else encode_basestring_ascii
                                     if kinds == {str} else _encode, cells)
    return "[" + "".join(flat)[3:] + "}]"


def report_json(report):
    """Compact, key-sorted JSON of the report, by json's C encoder.

    Every dict key must be a str already; everything is encoded as it
    stands, through _json_default.  The blocks sorted before and after
    "tables" are one call each, and the tables go in between by _table_json.
    """
    body = report.to_dict()
    tables = body.pop("tables")
    head = _encode({k: v for k, v in body.items() if k < "tables"})
    tail = _encode({k: v for k, v in body.items() if k > "tables"})
    return head[:-1] + ', "tables": {' + ", ".join(
        f"{encode_basestring_ascii(name)}: {_table_json(tables[name])}"
        for name in sorted(tables)) + "}, " + tail[1:]


def emit_report(report, out_path, text=None):
    """Write report.json (text, where report_json made it already) plus one CSV
    per table with rows, a column at a time; returns the paths written."""
    report.validate()
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text((report_json(report) if text is None else text) + "\n")
    written = [out_path]
    for name, columns in report.tables.items():
        if not any(columns.values()):
            continue
        csv_path = out_path.with_name(f"{out_path.stem}.{name}.csv")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*(map(_csv_cell, c) for c in columns.values())))
        written.append(csv_path)
    return written


def _csv_cell(v):
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    if isinstance(v, float):
        return repr(v)
    return v
