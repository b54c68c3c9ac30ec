"""polysieve benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload box-count --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; polysieve is imported from ./src.
--trace 0 measures the end-to-end metrics: cold interpreter set-up and
one cold CLI invocation through subprocess (medians of several runs),
then the seeded mix as a single-client closed loop in its own fresh
process.  --trace 1 runs the same mix once untraced and once with every
layer wrapped, and reports the per-layer metrics.  Every report is
checked.  The last stdout line is the JSON result; a fuller record goes
to .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from checks import check_report  # noqa: E402
from mixes import CLI_INVOCATIONS, WORKLOADS, build_mix, request_key, summary  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
COLD_ROUNDS = 3           # before and again after the in-process loop
MIN_SAMPLES = 110          # so that at least 10 latencies lie beyond p90
RUN_DEADLINE_S = 170
NPROC = len(os.sched_getaffinity(0))
SETUP_CODE = "from polysieve.cli import build_parser; build_parser()"
CLI_CODE = "import sys; from polysieve.cli import main; sys.exit(main())"


def child_env():
    threads = str(NPROC)  # BLAS threads capped at the cores this process may use
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
                "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads})
    return env


def environment():
    info = {"nproc": NPROC, "blas_threads": NPROC,
            "git_sha": "unavailable (not a git checkout)"}
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        info["git_sha"] = sha.stdout.strip() or info["git_sha"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polysieve").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()[:16]
    return info


def cold(args, timeout):
    """Wall time of one fresh interpreter, with its exit code and stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def measure_cold(workload, references, rounds):
    """Alternating cold set-up and CLI runs; each CLI report is checked."""
    argv = CLI_INVOCATIONS[workload]
    setup, cli, failures = [], [], []
    for _ in range(rounds):
        setup.append(cold([SETUP_CODE], 60)[0])
        seconds, code, stdout = cold([CLI_CODE, *argv], 60)
        cli.append(seconds)
        problem = (f"exit code {code}" if code != 0 else
                   check_report(json.loads(stdout), references.get(request_key(argv)), argv))
        if problem:
            failures.append(f"cli: {problem} :: {request_key(argv)}")
    return setup, cli, failures


def run_worker(job, deadline):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          env=child_env(), input=json.dumps(job), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    ref_path = HERE / "references" / f"{args.workload}.json"
    for needed in (ROOT / "src" / "polysieve" / "cli.py", ref_path):
        if not needed.is_file():
            sys.exit(f"error: {needed} not found; run from the root of a polysieve checkout")
    references = json.loads(ref_path.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                           else "end_to_end"]

    mix = build_mix(args.workload, args.seed)
    env = environment()
    print(f"mix {args.workload} seed={args.seed}: {json.dumps(summary(mix))}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = {"mix": mix, "references": str(ref_path), "seconds": args.seconds,
           "min_samples": MIN_SAMPLES, "max_seconds": min(6 * args.seconds, 100),
           "spans_out": str(OUT_DIR / f"spans-{tag}.json"),
           "mode": "traced" if args.trace else "timed"}

    if args.trace:
        res = run_worker(job, deadline)
        values = res["layers"]
        failures = res["failures"]
        attempted, failed = res["attempted"], res["failed"]
        correct = res["experiments_failed"] == 0
        notes = {"traced_s": res["traced_s"], "untraced_s": res["untraced_s"],
                 "traced_request_s": res["request_s"], "spans": res["spans"],
                 "counter_bases": res["counter_bases"]}
    else:
        setup, cli, cli_failures = measure_cold(args.workload, references, COLD_ROUNDS)
        res = run_worker(job, deadline)
        more = measure_cold(args.workload, references, COLD_ROUNDS)
        setup, cli, cli_failures = setup + more[0], cli + more[1], cli_failures + more[2]
        lat = res["latencies"]
        if len(lat) < 2:
            sys.exit("error: fewer than two completed experiments")
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        attempted = res["attempted"] + len(cli)
        failed = res["failed"] + len(cli_failures)
        failures = dict(res["failures"], **Counter(cli_failures))
        correct = res["experiments_failed"] == 0 and not cli_failures
        values = {
            "setup_s": statistics.median(setup),
            "cli_s": statistics.median(cli),
            "experiment_s_p50": statistics.median(lat),
            "experiment_s_p90": p90,
            "experiments_per_s": len(lat) / sum(lat),
            "peak_rss_mb": res["peak_rss_mb"],
            "error_rate": failed / attempted,
        }
        notes = {"samples": len(lat), "beyond_p90": sum(x > p90 for x in lat),
                 "passes": res["passes"], "loop_s": res["loop_s"],
                 "setup_runs_s": setup, "cli_runs_s": cli,
                 "stratum_median_s": res["stratum_median_s"],
                 "cli_invocation": request_key(CLI_INVOCATIONS[args.workload])}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    env.update(python=res["python"], numpy=res["numpy"])
    print(f"env: {json.dumps(env)}")
    print(f"notes: {json.dumps(notes)}")
    for reason, count in sorted(failures.items()):
        print(f"failed x{count}: {reason}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env, "mix": summary(mix),
         "notes": notes, "failures": failures, **result}, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
