"""Command-line front end.

Subcommands: klsum, tracesum, mixsum, sieve-check, sieve-detect,
classify-u, fibers, boxcount, bound-scan, poisson-check, crt-check.
Exit codes: 0 success, 1 input error, 2 invariant violation.
Reports are printed as JSON and optionally written with per-table CSVs.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boxes, sieve, varieties
from .errors import InvariantViolation, PolysieveError
from .fields import cached_field, is_prime, mult_char, primes_in
from .polynomials import MultiPoly, broadcast_grid, parse_multipoly, parse_unipoly
from .reports import ExperimentReport, emit_report, report_json
from .tracefn import TraceFunction, constant_trace, kloosterman


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise ValueError(message)


@dataclass
class RunConfig:
    subcommand: str
    options: dict
    seed: int
    budget: int
    out: str | None


def _trace_for(spec, p):
    """Build a trace table from a spec string: kl:<m>, chi:<r>:<j>, psi, one."""
    field = cached_field(p)
    if spec == "one":
        return constant_trace(field)
    if spec == "psi":
        return TraceFunction(p, field.psi_table.copy(), f"psi(p={p})", 1.0)
    parts = spec.split(":")
    if parts[0] == "kl" and len(parts) == 2:
        return kloosterman(int(parts[1]), field)
    if parts[0] == "chi" and len(parts) == 3:
        return mult_char(field, int(parts[1]), int(parts[2]))
    raise ValueError(f"unknown trace spec {spec!r}")


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _resolve_primes(policy, h, pmax):
    if policy == "auto":
        out = []
        for p in primes_in(h.degree + 1, pmax):
            try:
                data = sieve.build_prime_data(h, p)
            except ValueError:
                continue
            if not data.surjective:
                out.append(p)
        if not out:
            raise ValueError(f"no non-surjective primes for h up to {pmax}")
        return out
    if policy.startswith("list:"):
        ps = _int_list(policy[5:])
        if not ps:
            raise ValueError("empty prime list")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"--primes list entry {p} is not prime")
        return ps
    raise ValueError(f"unknown prime policy {policy!r} (use auto or list:...)")


# ---------------------------------------------------------------------------
# handlers

def _run_klsum(cfg):
    o = cfg.options
    p = o["p"]
    F = parse_multipoly(o["F"])
    t = kloosterman(o["m"], cached_field(p))
    if o.get("dump_table"):
        t.to_csv(o["dump_table"])
    total = boxes.complete_sum_g(F, t, [0] * F.n_vars, p, cfg.budget)
    m = F.n_vars
    main = p ** (m - 1) * complex(t.values.sum())
    results = {
        "p": p, "m": o["m"], "n_vars": m,
        "sum": total, "abs": abs(total),
        "ratio_half_power": abs(total) / p ** (m / 2),
        "main_term": main,
        "residual_ratio": abs(total - main) / p ** (m / 2),
        "trace_label": t.label,
    }
    return ExperimentReport("klsum", {"F": F.to_text(), **o}, results, seed=cfg.seed)


def _run_tracesum(cfg):
    o = cfg.options
    p = o["p"]
    F = parse_multipoly(o["F"])
    t = _trace_for(o["trace"], p)
    if o.get("dump_table"):
        t.to_csv(o["dump_table"])
    m = F.n_vars
    if o.get("G"):
        # sum of t(F(x)) over the zero set of G: group by the F-fiber
        G = parse_multipoly(o["G"], n_vars=m)
        pair = varieties.pair_fiber_histogram(F, G, p, cfg.budget)
        total = complex(pair[:, 0] @ t.values)
        main = p ** (m - 2) * complex(t.values.sum())
        scale = p ** ((m - 1) / 2)
        domain = f"V({G.to_text()})"
    else:
        total = boxes.complete_sum_g(F, t, [0] * m, p, cfg.budget)
        main = p ** (m - 1) * complex(t.values.sum())
        scale = p ** (m / 2)
        domain = "full affine space"
    results = {
        "p": p, "n_vars": m, "domain": domain,
        "sum": total, "abs": abs(total),
        "main_term": main,
        "residual": abs(total - main),
        "residual_ratio": abs(total - main) / scale,
        "trace_label": t.label, "sup_bound": t.sup_bound,
    }
    return ExperimentReport("tracesum", {"F": F.to_text(), **o}, results,
                            seed=cfg.seed)


def _run_mixsum(cfg):
    o = cfg.options
    p = o["p"]
    F = parse_multipoly(o["F"])
    t = _trace_for(o["trace"], p)
    semi = {}
    if o.get("u"):
        u = _int_list(o["u"])
        total = boxes.complete_sum_g(F, t, u, p, cfg.budget)
        cls = varieties.classify_u(F, u, p, k_max=o["kmax"], budget=cfg.budget)
        extra = {"u": u, "u_class": cls.kind}
        if cls.witness is not None:
            extra["witness"] = {"ext_degree": cls.witness.ext_degree,
                                "point": list(cls.witness.point)}
        semi = {"k_max": o["kmax"]}
    elif o.get("G"):
        G = parse_multipoly(o["G"], n_vars=F.n_vars)
        field = cached_field(p)
        grid = broadcast_grid([np.arange(p, dtype=np.int64)] * F.n_vars)
        fv = F.eval_mod(grid, p)
        gv = G.eval_mod(grid, p)
        total = complex((t.values[fv] * field.psi_table[gv]).sum())
        extra = {"G": G.to_text()}
    else:
        raise ValueError("mixsum needs --u or --G")
    m = F.n_vars
    results = {"p": p, "n_vars": m, "sum": total, "abs": abs(total),
               "ratio_half_power": abs(total) / p ** (m / 2),
               "trace_label": t.label, **extra}
    return ExperimentReport("mixsum", {"F": F.to_text(), **o}, results,
                            semi_decisions=semi, seed=cfg.seed)


def _run_sieve_check(cfg):
    o = cfg.options
    err = sieve.power_decomposition_check(o["d"], o["p"])
    if err > 1e-9:
        raise InvariantViolation(
            f"power decomposition error {err:.3e} exceeds 1e-9")
    return ExperimentReport("sieve-check", dict(o),
                            {"d": o["d"], "p": o["p"], "max_error": err,
                             "tolerance": 1e-9}, seed=cfg.seed)


def _run_sieve_detect(cfg):
    o = cfg.options
    h = parse_unipoly(o["h"])
    primes = _resolve_primes(o["primes"], h, o["pmax"])
    rows = []
    data_list = []
    for p in primes:
        data = sieve.build_prime_data(h, p)
        data_list.append(data)
        bound = data.p - (data.p - 1) / data.d
        rows.append({
            "p": p, "image_size": data.image_size,
            "exceptional": ";".join(str(x) for x in sorted(data.exceptional)),
            "bound_tight": data.bound_tight,
            "image_bound": bound,
            "bound_slack": bound - data.image_size,
        })
    results = {"h": h.to_text(), "primes": primes,
               "ledger": "image_size <= p-(p-1)/d holds for every prime"}
    tables = {"primes": rows}
    if o.get("n"):
        ns = _int_list(o["n"])
        det_rows = []
        for n in ns:
            det_rows.append({
                "n": n,
                **{f"D_{d.p}": sieve.detector(d, n) for d in data_list},
                "member": sieve.membership_filter(data_list, n),
            })
        tables["detectors"] = det_rows
    return ExperimentReport("sieve-detect", dict(o), results, tables=tables,
                            seed=cfg.seed)


def _run_classify_u(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    u = _int_list(o["u"])
    p = o["p"]
    cls = varieties.classify_u(F, u, p, k_max=o["kmax"], budget=cfg.budget)
    results = {"u": u, "p": p, "class": cls.kind}
    if cls.witness is not None:
        results["witness"] = {"ext_degree": cls.witness.ext_degree,
                              "point": list(cls.witness.point)}
    diag = F.as_diagonal()
    if diag is not None:
        coeffs, d = diag
        oracle = varieties.diagonal_dual_oracle(coeffs, d, u, p)
        results["diagonal_oracle"] = oracle.kind
        if oracle.kind != cls.kind:
            raise InvariantViolation(
                f"scan said {cls.kind} but the diagonal oracle said {oracle.kind}")
    return ExperimentReport("classify-u", {"F": F.to_text(), **o}, results,
                            semi_decisions={"k_max": o["kmax"]}, seed=cfg.seed)


def _run_fibers(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    p = o["p"]
    G = parse_multipoly(o["G"], n_vars=F.n_vars) if o.get("G") else None
    m = F.n_vars
    rows = []
    if G is None:
        hist = varieties.fiber_histogram(F, p, cfg.budget)
        targets = [o["a"] % p] if o.get("a") is not None else range(p)
        for a in targets:
            count = int(hist[a])
            dev = count - p ** (m - 1)
            rows.append({"p": p, "a": a, "b": "", "count": count,
                         "deviation": dev,
                         "normalized_deviation": dev / p ** ((m - 1) / 2)})
    else:
        hist = varieties.pair_fiber_histogram(F, G, p, cfg.budget)
        a_targets = [o["a"] % p] if o.get("a") is not None else range(p)
        b_targets = [o["b"] % p] if o.get("b") is not None else range(p)
        for a in a_targets:
            for b in b_targets:
                count = int(hist[a, b])
                dev = count - p ** (m - 2)
                rows.append({"p": p, "a": a, "b": b, "count": count,
                             "deviation": dev,
                             "normalized_deviation": dev / p ** ((m - 2) / 2)})
    results = {"p": p, "rows": len(rows),
               "max_abs_normalized_deviation":
                   max(abs(r["normalized_deviation"]) for r in rows)}
    return ExperimentReport("fibers", {"F": F.to_text(), **o}, results,
                            tables={"fibers": rows}, seed=cfg.seed)


def _run_boxcount(cfg):
    o = cfg.options
    f = parse_unipoly(o["f"])
    F = parse_multipoly(o["F"])
    problem = boxes.BoxProblem(f, F, o["B"])
    semi = {}
    if o["primes"] == "auto":
        selection = boxes.select_primes(problem, k_max=o["kmax"], budget=cfg.budget)
        primes = list(selection.primes)
        window = list(selection.window)
        if selection.semi_decided:
            semi["good_reduction_k_max"] = selection.k_max
    else:
        primes = _resolve_primes(o["primes"], f, 10**6)
        window = [min(primes), max(primes)] if primes else []
    data = [sieve.build_prime_data(f, p) for p in primes]
    hist = boxes.box_histogram(F, o["B"], cfg.budget)
    exact = boxes.exact_count(f, hist)
    filtered = boxes.sieve_filtered_count(f, hist, data)
    exc = sorted(boxes.exceptional_set(f, data, hist.v_max,
                                       threshold_mode=o["threshold"],
                                       budget=cfg.budget))
    results = {
        "B": o["B"], "n": problem.n, "heights": problem.heights,
        "exact_count": exact, "sieve_count": filtered.count,
        "rejection_ratio": filtered.rejection_ratio,
        "survivors": filtered.verified_exactly,
        "primes": primes, "window": window,
        "exceptional_set_size": len(exc),
        "threshold_mode": o["threshold"],
    }
    tables = {"exceptional": [{"k": k} for k in exc]}
    return ExperimentReport("boxcount", {"f": f.to_text(), "F": F.to_text(), **o},
                            results, tables=tables, semi_decisions=semi,
                            seed=cfg.seed)


def _run_bound_scan(cfg):
    o = cfg.options
    f = parse_unipoly(o["f"])
    F = parse_multipoly(o["F"])
    grid = _int_list(o["B_grid"])
    scan = boxes.bound_ratio_scan(f, F, grid, cfg.budget)
    return ExperimentReport("bound-scan", {"f": f.to_text(), "F": F.to_text(), **o},
                            {"spread": scan["spread"], "B_grid": grid},
                            tables={"ratios": scan["rows"]}, seed=cfg.seed)


def _run_poisson_check(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    p, q = o["p"], o["q"]
    t_p = _trace_for(o["trace"], p)
    t_q = _trace_for(o["trace"], q)
    rec = boxes.poisson_compare(F, p, q, t_p, t_q, o["B"], o["cutoff"],
                                budget=cfg.budget)
    results = dict(rec)
    diag = F.as_diagonal()
    if diag is not None:
        # tally the frequency classes appearing inside the truncation box
        coeffs, d = diag
        s = min(rec["u_cutoff"], 8)
        span = np.indices((2 * s + 1,) * F.n_vars).reshape(F.n_vars, -1).T - s
        for prime in (p, q):
            # u and lam * u share a class for every unit lam: scale each u so
            # its leading nonzero entry is 1 and classify each class once
            us = span % prime
            lead = us[np.arange(len(us)), np.argmax(us != 0, axis=1)]
            us = us * cached_field(prime).inv(np.maximum(lead, 1))[:, None] % prime
            _, first, counts = np.unique(us @ prime ** np.arange(F.n_vars),
                                         return_index=True, return_counts=True)
            tally = {"zero": 0, "good": 0, "bad": 0}
            for u, mult in zip(us[first].tolist(), counts.tolist()):
                tally[varieties.diagonal_dual_oracle(coeffs, d, tuple(u), prime).kind] += mult
            results[f"u_class_tally_mod_{prime}"] = tally
    else:
        results["u_class_tally"] = "skipped (non-diagonal form)"
    return ExperimentReport("poisson-check", {"F": F.to_text(), **o},
                            results, seed=cfg.seed)


def _run_crt_check(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"]) if o.get("F") else None
    rows = []
    if o.get("u"):
        if F is None:
            raise ValueError("explicit crt-check needs --F")
        u = _int_list(o["u"])
        p, q = o["p"], o["q"]
        t_p = _trace_for(o["trace"], p)
        t_q = _trace_for(o["trace"], q)
        rec = boxes.crt_factor_check(F, u, p, q, t_p, t_q, cfg.budget)
        rows.append({"p": p, "q": q, "u": ",".join(map(str, u)),
                     "error": rec["error"], "rel_error": rec["rel_error"]})
    else:
        rng = np.random.default_rng(cfg.seed)
        ps = primes_in(3, o["pmax"])
        for _ in range(o["draws"]):
            p, q = map(int, rng.choice(ps, size=2, replace=False))
            Fr = MultiPoly(2, {(2, 0): int(rng.integers(1, 5)),
                               (0, 2): int(rng.integers(1, 5)),
                               (1, 1): int(rng.integers(0, 4))})
            u = [int(x) for x in rng.integers(0, p * q, size=2)]
            t_p = mult_char(cached_field(p), 2, 1)
            t_q = mult_char(cached_field(q), 2, 1)
            rec = boxes.crt_factor_check(Fr, u, p, q, t_p, t_q, cfg.budget)
            rows.append({"p": p, "q": q, "u": ",".join(map(str, u)),
                         "F": Fr.to_text(),
                         "error": rec["error"], "rel_error": rec["rel_error"]})
    worst = max(r["rel_error"] for r in rows)
    if worst > 1e-6:
        raise InvariantViolation(f"CRT relative error {worst:.3e} exceeds 1e-6")
    return ExperimentReport("crt-check", dict(o),
                            {"draws": len(rows), "max_rel_error": worst},
                            tables={"draws": rows}, seed=cfg.seed)


_HANDLERS = {
    "klsum": _run_klsum,
    "tracesum": _run_tracesum,
    "mixsum": _run_mixsum,
    "sieve-check": _run_sieve_check,
    "sieve-detect": _run_sieve_detect,
    "classify-u": _run_classify_u,
    "fibers": _run_fibers,
    "boxcount": _run_boxcount,
    "bound-scan": _run_bound_scan,
    "poisson-check": _run_poisson_check,
    "crt-check": _run_crt_check,
}


def build_parser():
    parser = _Parser(prog="polysieve", description=__doc__)
    parser.add_argument("--out", help="write report JSON (+ CSV tables) here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=varieties.DEFAULT_BUDGET,
                        help="max polynomial evaluations per scan")
    # the shared flags are also accepted after the subcommand
    common = _Parser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("klsum", parents=[common])
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--dump-table", dest="dump_table",
                    help="write the trace table as CSV rows a, re, im")

    sp = sub.add_parser("tracesum", parents=[common])
    sp.add_argument("--trace", required=True, help="kl:<m> | chi:<r>:<j> | psi | one")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--G", help="restrict the sum to the zero set of this form")
    sp.add_argument("--dump-table", dest="dump_table",
                    help="write the trace table as CSV rows a, re, im")

    sp = sub.add_parser("mixsum", parents=[common])
    sp.add_argument("--trace", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--u", help="comma-separated frequency vector")
    sp.add_argument("--G", help="additive-twist polynomial")
    sp.add_argument("--kmax", type=int, default=2)

    sp = sub.add_parser("sieve-check", parents=[common])
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = sub.add_parser("sieve-detect", parents=[common])
    sp.add_argument("--h", required=True, help="polynomial in T")
    sp.add_argument("--primes", default="auto", help="auto | list:p1,p2,...")
    sp.add_argument("--pmax", type=int, default=100)
    sp.add_argument("--n", help="integers to evaluate the detector at")

    sp = sub.add_parser("classify-u", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=2)

    sp = sub.add_parser("fibers", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--G")
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)

    sp = sub.add_parser("boxcount", parents=[common])
    sp.add_argument("--f", required=True, help="polynomial in T")
    sp.add_argument("--F", required=True)
    sp.add_argument("--B", type=int, required=True)
    sp.add_argument("--primes", default="auto")
    sp.add_argument("--kmax", type=int, default=2)
    sp.add_argument("--threshold", choices=("lemma", "logp"), default="lemma")

    sp = sub.add_parser("bound-scan", parents=[common])
    sp.add_argument("--f", required=True)
    sp.add_argument("--F", required=True)
    sp.add_argument("--B-grid", dest="B_grid", required=True,
                    help="comma-separated box radii")

    sp = sub.add_parser("poisson-check", parents=[common])
    sp.add_argument("--F", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--B", type=int, default=10)
    sp.add_argument("--cutoff", type=int, default=8)
    sp.add_argument("--trace", default="chi:2:1")

    sp = sub.add_parser("crt-check", parents=[common])
    sp.add_argument("--F")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--u")
    sp.add_argument("--trace", default="chi:2:1")
    sp.add_argument("--draws", type=int, default=50)
    sp.add_argument("--pmax", type=int, default=31)
    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser shared by every parse_config call in this process.

    Reuse is safe because no argument appends to a list or has a mutable
    default: parse_args fills a fresh namespace on every call.
    """
    return build_parser()


def parse_config(argv):
    ns = vars(_parser().parse_args(argv))
    budget = ns.pop("budget")
    if budget <= 0:
        raise ValueError("budget must be positive")
    return RunConfig(subcommand=ns.pop("subcommand"), seed=ns.pop("seed"),
                     budget=budget, out=ns.pop("out"), options=ns)


def run_experiment(config):
    start = time.perf_counter()
    report = _HANDLERS[config.subcommand](config)
    report.timings["total_s"] = time.perf_counter() - start
    report.validate()
    return report


def main(argv=None):
    try:
        config = parse_config(argv if argv is not None else sys.argv[1:])
        report = run_experiment(config)
        text = report_json(report)
        print(text)
        if config.out:
            emit_report(report, config.out)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, PolysieveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; send the rest to devnull so the flush
        # at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
