"""Subcommand handlers, each from a RunConfig to an ExperimentReport, and _HANDLERS.

cli.run_experiment imports this module, and with it numpy and every
kernel layer, on its first request; cli.py itself imports none of them.
"""

import itertools

import numpy as np

from . import boxes, sieve, varieties
from .errors import _Q_CAP, InvariantViolation, charge
from .fields import _prime_sieve, cached_field, is_prime, mult_char
from .polynomials import SLAB_POINTS, MultiPoly, broadcast_grid, parse_multipoly, parse_unipoly
from .reports import ExperimentReport
from .tracefn import TraceFunction, constant_trace, kloosterman


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


def _witness(cls):  # a UClass's witness as a report block, where it has one
    w = cls.witness
    return {} if w is None else {"witness": {"ext_degree": w.ext_degree, "point": list(w.point)}}


def _charge_prime_search(pmax, budget):
    """Charge the pmax + 1 cells of a sieve up to pmax ("prime search") where they pass one
    slab: a smaller sieve costs less than a millisecond."""
    if pmax >= SLAB_POINTS:
        charge(0, pmax + 1, budget, "prime search")


def _resolve_primes(policy, h, pmax, budget):
    """SievePrimeData for each prime the policy picks, each built once.

    auto sieves the primes in (deg h, pmax] (_charge_prime_search), charges
    their p points from the sieve's array, then lists them and keeps those on
    which h is not onto F_p; list:p1,p2,...
    checks the entries are distinct primes and charges their p points before
    building any data, then refuses one on which h is onto F_p.
    """
    if policy == "auto":
        _charge_prime_search(pmax, budget)
        candidates = _prime_sieve(h.degree + 1, pmax)
        charge(0, int(candidates.sum()), budget, "prime data")
        out, _ = sieve.pick_primes(h, candidates.tolist())
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


def _run_klsum(cfg):
    o = cfg.options
    p = o["p"]
    F = parse_multipoly(o["F"])
    varieties._fiber_plan(F, p, budget=cfg.budget)  # refuse p before any table
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
    m = F.n_vars
    G = parse_multipoly(o["G"], n_vars=m) if o.get("G") else None
    varieties._fiber_plan(F, p, G, cfg.budget)  # refuse p before any table
    t = _trace_for(o["trace"], p)
    if o.get("dump_table"):
        t.to_csv(o["dump_table"])
    if G is not None:
        # sum of t(F(x)) over the zero set of G: group by the F-fiber
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

    def check(p, q, form, u, **cells):  # one draw, cell by cell onto the table's columns
        boxes._crt_plan(form, u, p, q, cfg.budget)  # refuse the modulus before any table
        rec = boxes.crt_factor_check(form, u, p, q, _trace_for(o["trace"], p),
                                     _trace_for(o["trace"], q), cfg.budget)
        cells = {"p": p, "q": q, "u": ",".join(map(str, u)), **cells,
                 "error": rec["error"], "rel_error": rec["rel_error"]}
        for key, cell in cells.items():
            table.setdefault(key, []).append(cell)

    if o.get("u"):
        if F is None or o["p"] is None or o["q"] is None:
            raise ValueError("explicit crt-check needs --F, --p and --q")
        check(o["p"], o["q"], F, _int_list(o["u"]))
    else:
        _charge_prime_search(o["pmax"], cfg.budget)
        if o["pmax"] > _Q_CAP:
            raise ValueError(f"--pmax {o['pmax']} exceeds the field table cap {_Q_CAP}")
        ps = _prime_sieve(3, o["pmax"])
        if len(ps) < 2:
            raise ValueError(f"fewer than two primes up to pmax = {o['pmax']}")
        rng = np.random.default_rng(cfg.seed)
        for _ in range(o["draws"]):
            p, q = map(int, rng.choice(ps, size=2, replace=False))
            Fr = MultiPoly(2, {(2, 0): int(rng.integers(1, 5)),
                               (0, 2): int(rng.integers(1, 5)),
                               (1, 1): int(rng.integers(0, 4))})
            check(p, q, Fr, [int(x) for x in rng.integers(0, p * q, size=2)], F=Fr.to_text())
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
