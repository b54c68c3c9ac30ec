"""Report checks: stored references plus a few independent values.

A report is compared outside its "timings" block.  Every leaf that is
not a float (integers, strings, booleans, u classes, table rows) must
match exactly; it is compared through a SHA-256 digest of the leaves
with their paths, so references of large tables stay small.  Float
leaves are stored one by one and must agree within FLOAT_RTOL relative
to the larger magnitude, or FLOAT_ATOL absolutely for values that are
rounding noise around zero.
"""

import hashlib
import json
import math

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-6


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}/{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def fingerprint(report):
    """{"exact": digest of non-float leaves, "floats": {path: value}}."""
    body = {k: v for k, v in report.items() if k != "timings"}
    exact = hashlib.sha256()
    floats = {}
    for path, value in _leaves(body):
        if isinstance(value, float):
            floats[path] = value
        else:
            exact.update(json.dumps([path, value]).encode())
    return {"exact": exact.hexdigest(), "floats": floats}


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(FLOAT_RTOL * max(abs(a), abs(b)), FLOAT_ATOL)


def _legendre_minus_one(p):
    return 1 if p % 4 == 1 else -1


def independent_values(argv):
    """Values known without polysieve for some requests: {results key: value}.

    Box counts of T^2 on X0^2+X1^2+X2^2 were counted by brute force outside
    the library; fibers of X0^2+X1^2 follow from the circle count
    N(a) = p - (-1|p) for a != 0 and N(0) = p + (p-1)(-1|p).
    """
    key = " ".join(argv)
    pins = {}
    known = {40: 6697, 80: 26497, 120: 59761}
    for B, count in known.items():
        if key == f"boxcount --f T^2 --F X0^2+X1^2+X2^2 --B {B}":
            pins["exact_count"] = count
            pins["sieve_count"] = count
    if argv[0] == "fibers" and "--F" in argv and "--G" not in argv and "--a" in argv:
        F = argv[argv.index("--F") + 1]
        p = int(argv[argv.index("--p") + 1])
        a = int(argv[argv.index("--a") + 1]) % p
        if F == "X0^2+X1^2":
            eps = _legendre_minus_one(p)
            pins["rows"] = 1
            pins["p"] = p
            count = p - eps if a else p + (p - 1) * eps
            pins["max_abs_normalized_deviation"] = abs(count - p) / p ** 0.5
    return pins


def check_report(report, reference, argv):
    """Return None when the report matches, else a one-line reason."""
    if reference is None:
        return "no stored reference for this request"
    got = fingerprint(report)
    if got["exact"] != reference["exact"]:
        return "integers/strings differ from the reference"
    if set(got["floats"]) != set(reference["floats"]):
        return "float fields differ from the reference"
    for path, want in reference["floats"].items():
        if not _close(got["floats"][path], want):
            return f"float {path} = {got['floats'][path]!r}, reference {want!r}"
    for key, want in independent_values(argv).items():
        value = report["results"][key]
        ok = _close(value, want) if isinstance(want, float) else value == want
        if not ok:
            return f"results.{key} = {value!r}, independent value {want!r}"
    return None
