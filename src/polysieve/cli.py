"""Command-line front end.

Subcommands: klsum, tracesum, mixsum, sieve-check, sieve-detect,
classify-u, fibers, boxcount, bound-scan, poisson-check, crt-check.
Exit codes: 0 success, 1 input error, 2 invariant violation.
Reports are printed as JSON and optionally written with per-table CSVs.
"""

import argparse
import itertools
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import boxes, sieve, varieties
from .errors import DEFAULT_BUDGET, InvariantViolation, PolysieveError, charge
from .fields import EXT_DEGREE_CAP, cached_field, is_prime, mult_char, primes_in
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


def _positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _ext_degree(text):  # --kmax: the walk builds F_{p^j} up to the field cap only
    if int(text) > EXT_DEGREE_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {EXT_DEGREE_CAP}, got {text}")
    return _positive_int(text)


def _cutoff(text):
    if text != "auto" and int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be auto or at least 0, got {text}")
    return None if text == "auto" else int(text)


def _witness(cls):  # a UClass's witness as a report block, where it has one
    w = cls.witness
    return {} if w is None else {"witness": {"ext_degree": w.ext_degree, "point": list(w.point)}}


def _resolve_primes(policy, h, pmax, budget):
    """SievePrimeData for each prime the policy picks, each built once.

    auto charges the p points of every prime in (deg h, pmax], then keeps
    those on which h is not onto F_p; list:p1,p2,... checks the entries are
    distinct primes and charges their p points before building any data, then
    refuses one on which h is onto F_p.
    """
    if policy == "auto":
        candidates = primes_in(h.degree + 1, pmax)
        charge(0, sum(candidates), budget, "prime data")
        out, _ = sieve.pick_primes(h, candidates)
        if not out:
            raise ValueError(f"no non-surjective primes for h up to {pmax}")
        return out
    if policy.startswith("list:"):
        ps = _int_list(policy[5:])
        if not ps:
            raise ValueError("empty prime list")
        if len(set(ps)) != len(ps):
            raise ValueError("--primes list entries must be distinct")
        spent = 0
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"--primes list entry {p} is not prime")
            spent = charge(spent, p, budget, "prime data")
        return [sieve.detecting_prime_data(h, p) for p in ps]
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
    return ExperimentReport("klsum", dict(o), results, seed=cfg.seed)


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
        pair = varieties.fiber_histogram(F, p, G, cfg.budget)
        total = complex((pair[:, 0] * t.values).sum())
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
    return ExperimentReport("tracesum", dict(o), results, seed=cfg.seed)


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
        extra = {"u": u, "u_class": cls.kind, **_witness(cls)}
        semi = {"k_max": o["kmax"]}
    elif o.get("G"):
        G = parse_multipoly(o["G"], n_vars=F.n_vars)
        total = varieties.mixed_sum(F, G, t.values, p, cfg.budget)
        extra = {"G": G.to_text()}
    else:
        raise ValueError("mixsum needs --u or --G")
    m = F.n_vars
    results = {"p": p, "n_vars": m, "sum": total, "abs": abs(total),
               "ratio_half_power": abs(total) / p ** (m / 2),
               "trace_label": t.label, **extra}
    return ExperimentReport("mixsum", dict(o), results,
                            semi_decisions=semi, seed=cfg.seed)


def _run_sieve_check(cfg):
    o = cfg.options
    charge(0, (o["d"] - 1) * o["p"], cfg.budget, "character tables")  # d - 1 tables of p values
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
    data_list = _resolve_primes(o["primes"], h, o["pmax"], cfg.budget)
    primes = [data.p for data in data_list]
    sizes = [data.image_size for data in data_list]
    bounds = [data.p - (data.p - 1) / data.d for data in data_list]
    results = {"h": h.to_text(), "primes": primes,
               "ledger": "image_size <= p-(p-1)/d holds for every prime"}
    tables = {"primes": {
        "p": primes, "image_size": sizes,
        "exceptional": [";".join(map(str, np.flatnonzero(data.exceptional)))
                        for data in data_list],
        "bound_tight": [data.bound_tight for data in data_list],
        "image_bound": bounds,
        "bound_slack": [b - size for b, size in zip(bounds, sizes)],
    }}
    if o.get("n"):
        ns = _int_list(o["n"])
        tables["detectors"] = {"n": ns, **{f"D_{d.p}": sieve.detector(d, ns).tolist()
                                           for d in data_list},
                               "member": sieve.membership_filter(data_list, ns).tolist()}
    return ExperimentReport("sieve-detect", dict(o), results, tables=tables,
                            seed=cfg.seed)


def _run_classify_u(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    u = _int_list(o["u"])
    p = o["p"]
    cls = varieties.classify_u(F, u, p, k_max=o["kmax"], budget=cfg.budget)
    results = {"u": u, "p": p, "class": cls.kind, **_witness(cls)}
    diag = F.as_diagonal()
    if diag is not None and not varieties._diagonal_applies(*diag, p):
        results["diagonal_oracle"] = "not applicable (bad reduction or d < 2)"
    elif diag is not None:
        coeffs, d = diag
        kind = str(varieties.diagonal_u_classes(coeffs, d, [[c % p for c in u]], p, cfg.budget)[0])
        results["diagonal_oracle"] = kind
        # a scan capped at k_max cannot see a witness past it: only then is the rule asked
        if kind != cls.kind and not (cls.kind == "good" and varieties.diagonal_witness_degree(
                coeffs, d, u, p) > o["kmax"]):
            raise InvariantViolation(f"scan said {cls.kind} but the diagonal oracle said {kind}")
    return ExperimentReport("classify-u", dict(o), results,
                            semi_decisions={"k_max": o["kmax"]}, seed=cfg.seed)


def _run_fibers(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    p = o["p"]
    G = parse_multipoly(o["G"], n_vars=F.n_vars) if o.get("G") else None
    if G is None and o.get("b") is not None:
        raise ValueError("fibers --b needs --G")
    r = 1 if G is None else 2
    hist = varieties.fiber_histogram(F, p, G, cfg.budget)
    targets = [[o[k] % p] if o.get(k) is not None else range(p) for k in "ab"[:r]]
    cells = list(itertools.product(*targets))
    counts = [int(hist[cell]) for cell in cells]
    devs = [count - p ** (F.n_vars - r) for count in counts]
    normalized = [dev / p ** ((F.n_vars - r) / 2) for dev in devs]
    table = {"p": [p] * len(cells), "a": [cell[0] for cell in cells],
             "b": [cell[1] if r == 2 else "" for cell in cells], "count": counts,
             "deviation": devs, "normalized_deviation": normalized}
    results = {"p": p, "rows": len(cells),
               "max_abs_normalized_deviation": max(map(abs, normalized))}
    return ExperimentReport("fibers", dict(o), results,
                            tables={"fibers": table}, seed=cfg.seed)


def _run_boxcount(cfg):
    o = cfg.options
    f = parse_unipoly(o["f"])
    F = parse_multipoly(o["F"])
    problem = boxes.BoxProblem(f, F, o["B"])
    semi = {}
    hist = boxes.box_histogram(F, o["B"], cfg.budget)  # refused before any prime data
    if o["primes"] == "auto":
        selection = boxes.select_primes(problem, k_max=o["kmax"], budget=cfg.budget)
        primes = list(selection.primes)
        data = list(selection.prime_data)
        window = list(selection.window)
        if selection.semi_decided:
            semi["good_reduction_k_max"] = selection.k_max
    else:
        data = _resolve_primes(o["primes"], f, 10**6, cfg.budget)
        primes = [d.p for d in data]
        window = [min(primes), max(primes)]
    exc = boxes.exceptional_set(f, data, hist.v_max, threshold_mode=o["threshold"],
                                budget=cfg.budget).tolist()  # its charge refuses before the walk
    filtered = boxes.sieve_filtered_count(f, hist, data, cfg.budget)
    results = {
        "B": o["B"], "n": problem.n, "heights": problem.heights,
        "exact_count": filtered.exact, "sieve_count": filtered.count,
        "rejection_ratio": filtered.rejection_ratio,
        "survivors": filtered.verified_exactly,
        "primes": primes, "window": window,
        "exceptional_set_size": len(exc),
        "threshold_mode": o["threshold"],
    }
    return ExperimentReport("boxcount", dict(o), results, tables={"exceptional": {"k": exc}},
                            semi_decisions=semi, seed=cfg.seed)


def _run_bound_scan(cfg):
    o = cfg.options
    f = parse_unipoly(o["f"])
    F = parse_multipoly(o["F"])
    grid = _int_list(o["B_grid"])
    scan = boxes.bound_ratio_scan(f, F, grid, cfg.budget)
    return ExperimentReport("bound-scan", dict(o),
                            {"spread": scan["spread"], "B_grid": grid},
                            tables={"ratios": scan["table"]}, seed=cfg.seed)


def _run_poisson_check(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"])
    p, q = o["p"], o["q"]
    t_p, t_q = _trace_for(o["trace"], p), _trace_for(o["trace"], q)
    rec = boxes.poisson_compare(F, p, q, t_p, t_q, o["B"], o["cutoff"], budget=cfg.budget)
    results = dict(rec)
    diag = F.as_diagonal()
    if diag is not None:
        # classify each distinct residue vector of u in [-s, s]^m once, weighted by its u
        coeffs, d = diag
        s, m = min(rec["u_cutoff"], 8), F.n_vars
        for prime in (p, q):
            if not varieties._diagonal_applies(coeffs, d, prime):
                results[f"u_class_tally_mod_{prime}"] = "skipped (bad reduction or d < 2)"
                continue
            res, counts = np.unique(np.arange(-s, s + 1) % prime, return_counts=True)
            bad = varieties.diagonal_dual_zeros(coeffs, d, broadcast_grid([res] * m), prime,
                                                cfg.budget)
            bad.flat[0] = False  # the first vector is u = 0
            for _ in range(m):  # contract the first axis against its counts
                bad = sum(c * b for c, b in zip(counts.tolist(), bad))
            zero, bad = int(counts[0]) ** m, int(bad)
            results[f"u_class_tally_mod_{prime}"] = {
                "zero": zero, "good": (2 * s + 1) ** m - zero - bad, "bad": bad}
    else:
        results["u_class_tally"] = "skipped (non-diagonal form)"
    return ExperimentReport("poisson-check", dict(o), results, seed=cfg.seed)


def _run_crt_check(cfg):
    o = cfg.options
    F = parse_multipoly(o["F"]) if o.get("F") else None
    table = {}

    def add(**cells):  # one draw, cell by cell onto the table's columns
        for key, cell in cells.items():
            table.setdefault(key, []).append(cell)

    if o.get("u"):
        if F is None or o["p"] is None or o["q"] is None:
            raise ValueError("explicit crt-check needs --F, --p and --q")
        u = _int_list(o["u"])
        p, q = o["p"], o["q"]
        t_p = _trace_for(o["trace"], p)
        t_q = _trace_for(o["trace"], q)
        rec = boxes.crt_factor_check(F, u, p, q, t_p, t_q, cfg.budget)
        add(p=p, q=q, u=",".join(map(str, u)), error=rec["error"], rel_error=rec["rel_error"])
    else:
        rng = np.random.default_rng(cfg.seed)
        ps = primes_in(3, o["pmax"])
        if len(ps) < 2:
            raise ValueError(f"fewer than two primes up to pmax = {o['pmax']}")
        for _ in range(o["draws"]):
            p, q = map(int, rng.choice(ps, size=2, replace=False))
            Fr = MultiPoly(2, {(2, 0): int(rng.integers(1, 5)),
                               (0, 2): int(rng.integers(1, 5)),
                               (1, 1): int(rng.integers(0, 4))})
            u = [int(x) for x in rng.integers(0, p * q, size=2)]
            t_p = mult_char(cached_field(p), 2, 1)
            t_q = mult_char(cached_field(q), 2, 1)
            rec = boxes.crt_factor_check(Fr, u, p, q, t_p, t_q, cfg.budget)
            add(p=p, q=q, u=",".join(map(str, u)), F=Fr.to_text(), error=rec["error"],
                rel_error=rec["rel_error"])
    worst = max(table["rel_error"])
    if worst > 1e-6:
        raise InvariantViolation(f"CRT relative error {worst:.3e} exceeds 1e-6")
    return ExperimentReport("crt-check", dict(o),
                            {"draws": len(table["p"]), "max_rel_error": worst},
                            tables={"draws": table}, seed=cfg.seed)


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
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
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
    twist = sp.add_mutually_exclusive_group()
    twist.add_argument("--u", help="comma-separated frequency vector")
    twist.add_argument("--G", help="additive-twist polynomial")
    sp.add_argument("--kmax", type=_ext_degree, default=2)

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
    sp.add_argument("--kmax", type=_ext_degree, default=2)

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
    sp.add_argument("--kmax", type=_ext_degree, default=2)
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
    sp.add_argument("--cutoff", type=_cutoff, default=8,
                    help="window radius, or auto: grow it until the tail bound is small")
    sp.add_argument("--trace", default="chi:2:1")

    sp = sub.add_parser("crt-check", parents=[common])
    sp.add_argument("--F")
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--u")
    sp.add_argument("--trace", default="chi:2:1")
    sp.add_argument("--draws", type=_positive_int, default=50)
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
            emit_report(report, config.out, text)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the rest to devnull so the flush
        # at interpreter exit does not raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OverflowError, PolysieveError, OSError) as exc:  # OSError: --out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
