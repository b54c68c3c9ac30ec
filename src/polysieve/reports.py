"""Structured experiment reports with JSON/CSV emission.

Reports are plain data: a config echo, a results dict, optional named
tables (lists of flat dicts), timings, and the semi-decision
disclosures (k_max caps) whenever closure questions were only scanned.
JSON output is deterministic for a fixed (config, seed) up to the
timings block.  Tables go to JSON and CSV a column at a time (_columns).
"""

import csv
import json
from dataclasses import dataclass, field as dc_field
from json.encoder import encode_basestring_ascii
from operator import itemgetter
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


def _str_keys(obj):
    """obj with every non-str dict key replaced by its str, through dicts and lists."""
    if isinstance(obj, dict):
        return {k if isinstance(k, str) else str(k): _str_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_str_keys(v) for v in obj]
    return obj


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


def _columns(rows):
    """{key: its cells} in first-row order where rows are flat dicts with the
    same str keys, else None; written out, the bytes of row by row."""
    if type(rows) is not list or not rows or set(map(type, rows)) != {dict} \
            or set(map(type, rows[0])) != {str} or set(map(len, rows)) != {len(rows[0])}:
        return None
    try:
        return {k: list(map(itemgetter(k), rows)) for k in rows[0]}
    except KeyError:
        return None


def _table_json(rows):
    """rows in JSON, a column at a time: exact ints and strs by the C encoder's
    own functions, the cells of any other column through _encode."""
    columns = _columns(rows)
    if columns is None:
        return _encode(rows)
    k, n = len(columns), len(rows)
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

    Table rows are flat dicts keyed by column name (emit_report writes
    them as CSV), so only the other blocks are walked for non-str keys;
    everything else is encoded as it stands, through _json_default.  Tables
    with rows go in by _table_json, after one call over the other blocks.
    """
    body = report.to_dict()
    tables = {str(name): rows for name, rows in body.pop("tables").items()}
    body = _str_keys(body)
    if any(type(rows) is list and rows for rows in tables.values()):
        body["tables"] = "\0tables"  # holds the tables block's place
        text, mark = _encode(body), encode_basestring_ascii("\0tables")
        if text.count(mark) == 1:  # nowhere else in the report
            return text.replace(mark, "{" + ", ".join(
                f"{encode_basestring_ascii(name)}: {_table_json(tables[name])}"
                for name in sorted(tables)) + "}")
    body["tables"] = tables
    return _encode(body)


def emit_report(report, out_path, text=None):
    """Write report.json (text, where report_json made it already) plus one CSV
    per table section, a column at a time where _columns allows; returns paths."""
    report.validate()
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text((report_json(report) if text is None else text) + "\n")
    written = [out_path]
    for name, rows in report.tables.items():
        if not rows:
            continue
        csv_path = out_path.with_name(f"{out_path.stem}.{name}.csv")
        columns = _columns(rows)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            if columns is None:
                writer.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)
            else:
                csv.writer(fh).writerows(zip(*(map(_csv_cell, c) for c in columns.values())))
        written.append(csv_path)
    return written


def _csv_cell(v):
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    if isinstance(v, float):
        return repr(v)
    return v
