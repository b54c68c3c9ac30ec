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


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_jsonable(v) for v in items]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):  # numpy scalars
        return _jsonable(obj.item())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def report_json(report):
    return json.dumps(_jsonable(report.to_dict()), sort_keys=True)


def emit_report(report, out_path, formats=("json", "csv")):
    """Write report.json plus one CSV per table section; returns paths."""
    report.validate()
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        out_path.write_text(report_json(report) + "\n")
        written.append(out_path)
    if "csv" in formats:
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


def load_report(path):
    return json.loads(Path(path).read_text())


def strip_timings(report_dict):
    out = dict(report_dict)
    out.pop("timings", None)
    return out
