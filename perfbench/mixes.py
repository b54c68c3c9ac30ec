"""Seeded experiment mixes for the three benchmark workloads.

A mix is one pass of requests.  Each request is a polysieve argv list
plus the verdict it must earn:

- "experiment": must return a report equal to the stored reference;
- "reject": must be refused as bad input (exit code 1 on the CLI).

A workload is a list of strata.  A stratum fixes the subcommand, f,
the form family and the size, and draws a fixed number of requests
from its catalogue.  The seed picks, per request, a variable order of
the form (the box and F_p^m are symmetric under it, so the cost does
not change) and a prime from a narrow class.  So every seed gives the
same shape of mix (requests by subcommand and size) and about the same
cost, with different inputs.  Every catalogue entry has a stored
reference (see make_references.py).
"""

import itertools
import random
import re
from collections import Counter

EXPERIMENT_TIMEOUT_S = 20.0
REJECT_TIMEOUT_S = 0.5


def _argv(text):
    return text.split()


def _stratum(label, count, candidates, size):
    return {"label": label, "count": count, "size": size,
            "candidates": [_argv(c) for c in candidates]}


def _term_key(term):
    return sorted(re.findall(r"X(\d)", term))


def _normal(form):
    """Canonical text of a form: factors and terms sorted by variable."""
    terms = []
    for sign, body in re.findall(r"([+-]?)([^+-]+)", form):
        factors = body.split("*")
        coef = [f for f in factors if not f.startswith("X")]
        xs = sorted(f for f in factors if f.startswith("X"))
        terms.append((_term_key(body), sign or "+", "*".join(coef + xs)))
    terms.sort(key=lambda t: (t[1] == "-", t))  # a leading "-" would read as a flag
    text = "".join(sign + body for _, sign, body in terms)
    return text[1:] if text.startswith("+") else text


def _permute(text, perm):
    return re.sub(r"X(\d)", lambda m: f"X{perm[int(m.group(1))]}", text)


def _perms(form, u=None):
    """Distinct variable orders of a form (with its frequency vector u)."""
    n = 1 + max(int(i) for i in re.findall(r"X(\d)", form))
    out = []
    for perm in itertools.permutations(range(n)):
        item = _normal(_permute(form, perm))
        if u is not None:
            pu = [None] * n
            for i, c in enumerate(u.split(",")):
                pu[perm[i]] = c
            item = (item, ",".join(pu))
        if item not in out:
            out.append(item)
    return out


# -- box-count: diagonal forms, the paper's headline count --------------------

_HEADLINE = "boxcount --f T^2 --F X0^2+X1^2+X2^2 --B {B}"


def _boxcount(label, count, f, forms, B):
    return _stratum(f"boxcount {label} B={B} f={f}", count,
                    [f"boxcount --f {f} --F {F} --B {B}" for F in forms], f"B={B}")


def _bound_scan(label, count, f, form, grid):
    return _stratum(f"bound-scan {label} f={f}", count,
                    [f"bound-scan --f {f} --F {F} --B-grid {grid}" for F in _perms(form)],
                    f"B<={grid.split(',')[-1]}")


# Costs are laid out so that the median falls in the middle of the B=32
# group and p90 in the middle of the B=56 group: a percentile that sits on
# a plateau of alike requests moves with their speed, not with which
# neighbours a seed drew or with the noise of the plateau's edge.
BOX_COUNT = [
    _boxcount("m=4 d=2", 3, "T^2", _perms("X0^2+X1^2+2*X2^2+3*X3^2"), 8),
    _boxcount("m=3 d=3", 3, "T^2", _perms("X0^3+X1^3+2*X2^3"), 12),
    _boxcount("m=3 d=3", 2, "T^3", _perms("X0^3+2*X1^3-X2^3"), 12),
    _bound_scan("m=3 d=2", 2, "T^2", "X0^2+X1^2+2*X2^2", "10,20,30,40"),
    _bound_scan("m=4 d=2", 2, "T^2+T", "X0^2+X1^2+X2^2+2*X3^2", "4,8,12"),
    _bound_scan("m=3 d=3", 1, "T^3", "X0^3+X1^3+2*X2^3", "5,10,15,20"),
    _boxcount("m=3 d=2", 3, "T^2", _perms("X0^2+X1^2+2*X2^2"), 24),
    _boxcount("m=3 d=2", 4, "T^2+T", _perms("X0^2+2*X1^2+3*X2^2"), 24),
    _boxcount("m=3 d=2", 8, "T^2", _perms("X0^2+2*X1^2-X2^2"), 32),
    _boxcount("m=3 d=2", 8, "T^2+T", _perms("X0^2+X1^2+2*X2^2"), 32),
    _stratum("boxcount m=3 d=2 B=40 headline", 1, [_HEADLINE.format(B=40)], "B=40"),
    _boxcount("m=3 d=2", 4, "T^3", _perms("X0^2+2*X1^2+3*X2^2"), 40),
    _boxcount("m=4 d=2", 4, "T^2+T", _perms("X0^2+X1^2+X2^2-X3^2"), 14),
    _boxcount("m=3 d=3", 4, "T^2+T", _perms("X0^3+X1^3+X2^3"), 20),
    _boxcount("m=3 d=2", 9, "T^2+T", _perms("X0^2+X1^2+2*X2^2"), 56),
    _stratum("boxcount m=3 d=2 B=120 headline", 1, [_HEADLINE.format(B=120)], "B=120"),
]

# -- trace-sums: complete sums of trace functions over F_q --------------------

_P_100 = [101, 103]     # 3-variable grids cost p^3: keep the class narrow
_P_1000 = [1009, 1013, 1019, 1021]
_P_1500 = [1493, 1499, 1511]
_P_2000 = [1999, 2003, 2011, 2017]
_P_3000 = [2999, 3001, 3011]


def _sums(label, count, template, primes, forms, size, **extra):
    cands = [template.format(p=p, F=F, **extra)
             for p in primes for form in forms for F in _perms(form)]
    return _stratum(label, count, cands, size)


# The median falls in the middle of the Poisson checks (about 100 ms
# each) and p90 in the middle of the klsum q~2000 group.
TRACE_SUMS = [
    *[_sums(f"tracesum {t} q~1000", n, "tracesum --trace {t} --p {p} --F {F}", _P_1000,
            ["X0^2+2*X1^2"], "q~1000", t=t)
      for t, n in (("kl:2", 2), ("chi:2:1", 1), ("psi", 1), ("one", 1))],
    _sums("klsum m=3 q~1000", 2, "klsum --m 3 --p {p} --F {F}", _P_1000,
          ["X0^2+X1^2"], "q~1000"),
    _sums("fibers q~1000", 3, "fibers --F {F} --p {p} --a {a}", _P_1000, ["X0^2+X1^2"],
          "q~1000", a=1),
    _sums("fibers q~100 3 vars", 2, "fibers --F {F} --p {p} --a 2", _P_100,
          ["X0^2+X1^2-X2^2"], "q~100"),
    _sums("klsum m=2 q~100 3 vars", 2, "klsum --m 2 --p {p} --F {F}", _P_100,
          ["X0^2+X1^2+2*X2^2"], "q~100"),
    _sums("crt-check", 1, "crt-check --F {F} --p {p} --q 31 --u 3,5", [29],
          ["X0^2+2*X1^2"], "pq~900"),
    _sums("mixsum chi --u q~100 3 vars", 1, "mixsum --trace chi:2:1 --p {p} --F {F} --u 1,2,3",
          _P_100, ["X0^2+2*X1^2+3*X2^2"], "q~100"),
    _sums("mixsum kl:2 --u q~100 3 vars", 1, "mixsum --trace kl:2 --p {p} --F {F} --u 1,0,-1",
          _P_100, ["X0^2+X1^2-X2^2"], "q~100"),
    _sums("mixsum chi --G q~1000", 1, "mixsum --trace chi:2:1 --p {p} --F {F} --G X0*X1",
          _P_1000, ["X0^2+2*X1^2"], "q~1000"),
    _sums("mixsum kl:2 --G q~1000", 1, "mixsum --trace kl:2 --p {p} --F {F} --G X0+2*X1",
          _P_1000, ["X0^2+X1^2"], "q~1000"),
    _sums("tracesum psi --G q~100", 1, "tracesum --trace psi --p {p} --F {F} --G X0-X1",
          _P_100, ["X0^2+X1^2+2*X2^2"], "q~100"),
    _sums("tracesum kl:2 --G q~100", 1,
          "tracesum --trace kl:2 --p {p} --F {F} --G X0^2-X1*X2",
          _P_100, ["X0^2+X1^2+X2^2"], "q~100"),
    _sums("fibers --G q~100", 1, "fibers --F {F} --p {p} --G X0+X1 --a 1 --b 3", _P_100,
          ["X0^2+2*X1^2+3*X2^2"], "q~100"),
    _sums("poisson-check", 16, "poisson-check --F {F} --p 11 --q {p} --B 30 --cutoff 10",
          [13], ["X0^2+2*X1^2+X2^2"], "pq~140"),
    _sums("klsum m=2 q~1500", 12, "klsum --m 2 --p {p} --F {F}", _P_1500,
          ["X0^2+3*X1^2"], "q~1500"),
    _sums("klsum m=2 q~2000", 8, "klsum --m 2 --p {p} --F {F}", _P_2000,
          ["X0^2-3*X1^2"], "q~2000"),
    _sums("klsum m=2 q~3000", 2, "klsum --m 2 --p {p} --F {F}", _P_3000,
          ["X0^2+2*X1^2"], "q~3000"),
]

# -- ext-scan: good-reduction scans over F_{p^2} ------------------------------


def _classify(count, p, form, u):
    cands = [f"classify-u --F {F} --u={u} --p {p} --kmax 2"  # u may start with "-"
             for F, u in _perms(form, u)]
    return _stratum(f"classify-u m=4 p={p} {form}", count, cands, f"p={p}")


_CLASSIFY_PAIRS = [("X0^2+X1^2+X2^2+X3^2", "1,2,3,4"), ("X0*X1+X2*X3", "2,-1,1,3"),
                   ("X0^2+X1^2-X2^2-X3^2", "1,-2,0,1"), ("X0^3+X1^3+X2^3+X3^3", "1,2,3,4")]

EXT_SCAN = [
    # the variable order changes where the F_{p^2} scan stops early, so the
    # boxcount forms are fixed; the seed varies the classify-u inputs
    # the median falls inside the p=13 classify-u group, p90 inside the
    # B=16 f=T^2+T boxcount group
    _boxcount("non-diagonal", 5, "T^2", ["X0^2+X0*X1+X2^2"], 12),
    _boxcount("non-diagonal", 4, "T^2+T", ["X0*X1+X2^2"], 12),
    *[_classify(n, 11, form, u) for n, (form, u) in zip((4, 4, 3, 3), _CLASSIFY_PAIRS)],
    *[_classify(n, 13, form, u) for n, (form, u) in zip((5, 4, 4, 4), _CLASSIFY_PAIRS)],
    _boxcount("non-diagonal", 4, "T^2", ["X0^2+X1*X2"], 16),
    *[_classify(3, 17, form, u) for form, u in _CLASSIFY_PAIRS[:2]],
    _boxcount("non-diagonal", 8, "T^2+T", ["X0^2+X0*X1+2*X1^2-X2^2"], 16),
    _boxcount("non-diagonal", 2, "T^2", ["X0^2+X1^2+X1*X2+X2^2"], 20),
]

WORKLOADS = {"box-count": BOX_COUNT, "trace-sums": TRACE_SUMS, "ext-scan": EXT_SCAN}

# -- inputs that must be rejected ---------------------------------------------

# Two known defects are included on purpose and count as failures until fixed:
# a composite prime list makes boxcount loop forever in the mod-p resultant,
# and sieve-detect accepts 9 as a sieve prime.
_REJECT_STRATA = [
    _stratum("reject: composite --primes (boxcount)", None, [
        "boxcount --f T^2 --F X0^2+X1^2+X2^2 --B 10 --primes list:9,15"], "B=10"),
    _stratum("reject: composite --primes (sieve-detect)", None, [
        "sieve-detect --h T^2 --primes list:9"], "-"),
    _stratum("reject: non-homogeneous F", None, [
        "boxcount --f T^2 --F X0^2+X1^2+X2 --B 12",
        "boxcount --f T^3 --F X0^3+X1^2+X2^2 --B 12",
        "classify-u --F X0^2+X1+X2^2+X3^2 --u 1,2,3,4 --p 11"], "-"),
    _stratum("reject: unknown --trace", None, [
        "tracesum --trace kl2 --p 101 --F X0^2+X1^2",
        "tracesum --trace chi:2 --p 101 --F X0^2+X1^2",
        "mixsum --trace exp --p 101 --F X0^2+X1^2 --G X0*X1"], "-"),
    _stratum("reject: --p not prime", None, [
        "klsum --m 2 --p 1001 --F X0^2+X1^2",
        "fibers --F X0^2+X1^2 --p 221 --a 1",
        "tracesum --trace psi --p 3003 --F X0^2+X1^2"], "-"),
]

# One fixed CLI invocation per workload, timed cold in a fresh interpreter.
CLI_INVOCATIONS = {
    "box-count": _argv(_HEADLINE.format(B=80)),
    "trace-sums": _argv("klsum --m 2 --p 3001 --F X0^2+X1^2"),
    "ext-scan": _argv("boxcount --f T^2 --F X0^2+X0*X1+X2^2 --B 20"),
}


def request_key(argv):
    return " ".join(argv)


def _requests(strata, kind, timeout_s, rng):
    out = []
    for st in strata:
        cands = st["candidates"]
        if st["count"] is None:  # every candidate, every seed
            picks = cands
        elif st["count"] <= len(cands):
            picks = rng.sample(cands, st["count"])
        else:
            picks = [rng.choice(cands) for _ in range(st["count"])]
        out += [{"argv": list(argv), "kind": kind, "timeout_s": timeout_s,
                 "stratum": st["label"], "size": st["size"]} for argv in picks]
    return out


def build_mix(workload, seed):
    """One pass of requests for (workload, seed).

    The seed picks the requests; the order is fixed (round-robin over the
    strata), because the allocator's state after a large request changes
    the cost of the next ones, and a seeded order would add that to the
    run-to-run spread.
    """
    rng = random.Random(f"{workload}:{seed}")
    groups = ([_requests([st], "experiment", EXPERIMENT_TIMEOUT_S, rng)
               for st in WORKLOADS[workload]]
              + [_requests([st], "reject", REJECT_TIMEOUT_S, rng) for st in _REJECT_STRATA])
    return [req for batch in itertools.zip_longest(*groups) for req in batch if req]


def catalogue(workload):
    """Every experiment any seed can draw for the workload, plus its CLI run."""
    seen = {}
    for st in WORKLOADS[workload]:
        for argv in st["candidates"]:
            seen[request_key(argv)] = argv
    cli = CLI_INVOCATIONS[workload]
    seen.setdefault(request_key(cli), cli)
    return list(seen.values())


def summary(mix):
    """Requests by subcommand and by (subcommand, size)."""
    by_sub = Counter(r["argv"][0] for r in mix)
    by_size = Counter(f"{r['argv'][0]} {r['size']}" for r in mix)
    by_kind = Counter(r["kind"] for r in mix)
    return {"requests": len(mix), "by_kind": dict(sorted(by_kind.items())),
            "by_subcommand": dict(sorted(by_sub.items())),
            "by_size": dict(sorted(by_size.items()))}
