"""Regenerate the stored reference reports.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_references.py [workload ...]

It runs every request any seed can draw (plus each workload's CLI
invocation) and writes references/<workload>.json.  Run it only when
the catalogue in mixes.py changes, on the commit that defined the
references; regenerating to silence a mismatch defeats the check.
"""

import json
import sys
from pathlib import Path

from checks import check_report, fingerprint
from mixes import WORKLOADS, catalogue, request_key
from worker import execute

REF_DIR = Path(__file__).resolve().parent / "references"


def build(workload):
    refs, slow = {}, []
    for argv in catalogue(workload):
        outcome, text, seconds = execute(argv, 60.0)
        if outcome != "report":
            raise SystemExit(f"{workload}: {request_key(argv)}: {outcome}")
        report = json.loads(text)
        refs[request_key(argv)] = fingerprint(report)
        problem = check_report(report, refs[request_key(argv)], argv)
        if problem:
            raise SystemExit(f"{workload}: {request_key(argv)}: {problem}")
        slow.append((seconds, request_key(argv)))
    REF_DIR.mkdir(exist_ok=True)
    out = REF_DIR / f"{workload}.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    total = sum(s for s, _ in slow)
    print(f"{workload}: {len(refs)} references, {total:.1f} s, slowest:")
    for seconds, key in sorted(slow, reverse=True)[:5]:
        print(f"  {seconds:7.3f} s  {key}")


if __name__ == "__main__":
    import signal

    from worker import _alarm

    signal.signal(signal.SIGALRM, _alarm)
    for name in sys.argv[1:] or WORKLOADS:
        build(name)
