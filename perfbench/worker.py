"""In-process request loop: one fresh interpreter per workload run.

Reads a job as JSON on stdin and prints one JSON result line.  A request
is parse_config(argv) -> run_experiment -> report_json, timed around
exactly that call, under its own timeout.  Every report is checked
against the stored reference after the clock stops.

Both modes start with an untimed warm-up: the first request of every
stratum, which fills the program's caches (field tables per prime, the
Poisson bump integrals) and pays first-call costs.

Modes:
  timed   warm-up, then whole passes of the mix until both the time and
          the sample minimum are reached;
  traced  warm-up, one untraced and one traced pass over the experiments,
          then per-layer metrics and the span file.
"""

import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from polysieve import cli, reports
from polysieve.errors import InvariantViolation, PolysieveError

from checks import check_report
from mixes import request_key


class RequestTimeout(BaseException):
    """Raised by the alarm; BaseException so program code cannot swallow it."""


def _alarm(signum, frame):
    raise RequestTimeout()


def execute(argv, timeout_s):
    """Run one request; returns (outcome, report text or None, seconds)."""
    start = time.perf_counter()
    text = None
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            text = reports.report_json(cli.run_experiment(cli.parse_config(argv)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome = "report"
    except RequestTimeout:
        outcome = f"timed out after {timeout_s} s"
    except InvariantViolation:
        outcome = "invariant violated (exit 2)"
    except (ValueError, OverflowError, PolysieveError):
        outcome = "rejected"
    except Exception as exc:  # any other exception is a traceback on the CLI
        outcome = f"raised {type(exc).__name__}"
    return outcome, text, time.perf_counter() - start


class Runner:
    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failures = Counter()

    def run(self, req, tracer=None, request_id=None):
        """Execute and check one request; returns (ok, seconds)."""
        root = tracer.request_span(request_id) if tracer else None
        outcome, text, seconds = execute(req["argv"], req["timeout_s"])
        if tracer:
            tracer.close(root)
        self.attempted += 1
        if req["kind"] == "reject":
            reason = None if outcome == "rejected" else (
                "accepted (exit 0)" if outcome == "report" else outcome)
        elif outcome != "report":
            reason = outcome
        else:
            reason = check_report(json.loads(text),
                                  self.references.get(request_key(req["argv"])),
                                  req["argv"])
        if reason:
            self.failures[f"{req['kind']}: {reason} :: {request_key(req['argv'])}"] += 1
        return reason is None, seconds

    def experiments_failed(self):
        return sum(n for k, n in self.failures.items() if k.startswith("experiment"))


def warm_up(mix, runner):
    first = {}
    for req in mix:
        first.setdefault(req["stratum"], req)
    for req in first.values():
        runner.run(req)


def timed(job, runner):
    mix = job["mix"]
    warm_up(mix, runner)
    latencies, passes, by_stratum = [], 0, defaultdict(list)
    start = time.perf_counter()
    while True:
        for req in mix:
            ok, seconds = runner.run(req)
            if ok and req["kind"] == "experiment":
                latencies.append(seconds)
                by_stratum[req["stratum"]].append(seconds)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= job["max_seconds"] or (
                elapsed >= job["seconds"] and len(latencies) >= job["min_samples"]):
            break
    return {"latencies": latencies, "passes": passes, "loop_s": elapsed,
            "stratum_median_s": {k: statistics.median(v) for k, v in by_stratum.items()}}


def traced(job, runner):
    from tracing import Tracer

    mix = job["mix"]
    warm_up(mix, runner)
    experiments = [r for r in mix if r["kind"] == "experiment"]
    untraced_s = sum(runner.run(req)[1] for req in experiments)
    tracer = Tracer()
    tracer.install()
    traced_s = sum(runner.run(req, tracer, i)[1] for i, req in enumerate(experiments))
    layers, request_s = tracer.layer_metrics()
    layers["trace_overhead"] = traced_s / untraced_s
    spans_out = Path(job["spans_out"])
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps({"requests": [request_key(r["argv"]) for r in experiments],
                                     "spans": tracer.span_records()}))
    return {"layers": layers, "untraced_s": untraced_s, "traced_s": traced_s,
            "request_s": request_s, "spans": len(tracer.spans),
            "counter_bases": dict(tracer.counters)}


def main():
    job = json.loads(sys.stdin.read())
    signal.signal(signal.SIGALRM, _alarm)
    references = json.loads(Path(job["references"]).read_text())
    runner = Runner(references)
    out = (traced if job["mode"] == "traced" else timed)(job, runner)
    import numpy

    out.update({
        "attempted": runner.attempted,
        "failed": sum(runner.failures.values()),
        "experiments_failed": runner.experiments_failed(),
        "failures": dict(runner.failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    print(json.dumps(out))


if __name__ == "__main__":
    main()
