"""Structured experiment reports with JSON/CSV emission.

Reports are plain data: a config echo, a results dict, optional named
tables (lists of flat dicts), timings, and the semi-decision
disclosures (k_max caps) whenever closure questions were only scanned.
JSON output is deterministic for a fixed (config, seed) up to the
timings block.
"""

import csv
import json
from dataclasses import dataclass, field as dc_field
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


def report_json(report):
    """Compact, key-sorted JSON of the report, by json's C encoder.

    Table rows are flat dicts keyed by column name (emit_report writes
    them as CSV), so only the other blocks are walked for non-str keys;
    everything else is encoded as it stands, through _json_default.
    """
    body = report.to_dict()
    tables = body.pop("tables")
    body = _str_keys(body)
    body["tables"] = {str(name): rows for name, rows in tables.items()}
    return json.dumps(body, sort_keys=True, default=_json_default)


def emit_report(report, out_path):
    """Write report.json plus one CSV per table section; returns paths."""
    report.validate()
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(report_json(report) + "\n")
    written = [out_path]
    for name, rows in report.tables.items():
        if not rows:
            continue
        csv_path = out_path.with_name(f"{out_path.stem}.{name}.csv")
        fieldnames = list(rows[0])
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        written.append(csv_path)
    return written


def _csv_cell(v):
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j"
    if isinstance(v, float):
        return repr(v)
    return v
