"""Layer tracing from outside the program.

install() wraps the public functions and methods of every polysieve
layer module and rebinds each wrapped function in every polysieve
module namespace that holds it, so calls across modules are seen too.
Each call records a span (name, layer, start, end, parent span,
request id) in memory.  Work counters are derived from the arguments
and return values of a few functions; the hooks below name them.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "reports", "boxes", "sieve", "varieties", "tracefn",
          "polynomials", "fields")
# methods wrapped on top of the public ones: field builds
_EXTRA_METHODS = {"PrimeField": ("__init__",), "ExtField": ("__init__",)}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent, request]
        self.stack = []
        self.request = None
        self.counters = defaultdict(int)
        self.boxes_seen = set()
        self._cached_field = None
        self._cache_start = None

    # -- spans ----------------------------------------------------------------
    def open(self, name, layer):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()
        return self.spans[idx][3] - self.spans[idx][2]

    def request_span(self, request_id):
        self.request = request_id
        self.boxes_seen = set()
        return self.open("request", "request")

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = tracer.close(idx)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, out, duration)
            return out

        traced.__perfbench_original__ = fn
        return traced

    # -- installation -----------------------------------------------------------
    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "polysieve" or name.startswith("polysieve.")}
        replaced = {}
        for layer in LAYERS:
            mod = modules[f"polysieve.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not inspect.ismodule(obj):
                    setattr(mod, attr, replaced[id(obj)])
        fields = modules["polysieve.fields"]
        self._cached_field = fields.cached_field.__perfbench_original__
        self._cache_start = self._cached_field.cache_info()

    def _wrap_class(self, cls, layer):
        names = [n for n, v in vars(cls).items()
                 if not n.startswith("_") and inspect.isfunction(v)]
        names += [n for n in _EXTRA_METHODS.get(cls.__name__, ()) if n in vars(cls)]
        for attr in names:
            setattr(cls, attr, self._wrap(vars(cls)[attr],
                                          f"{layer}.{cls.__name__}.{attr}", layer))

    # -- results ----------------------------------------------------------------
    def cache_hit_ratio(self):
        now = self._cached_field.cache_info()
        hits = now.hits - self._cache_start.hits
        misses = now.misses - self._cache_start.misses
        self.counters["fields.cached_field_hits"] = hits
        self.counters["fields.cached_field_lookups"] = hits + misses
        return hits / (hits + misses) if hits + misses else 0.0

    def layer_metrics(self):
        """Per-layer calls, self time and self share, plus the work counters."""
        child_time = defaultdict(float)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        request_s = 0.0
        for idx, (name, layer, start, end, parent, _) in enumerate(self.spans):
            if layer == "request":
                request_s += end - start
                continue
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[idx]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.self_share"] = self_s[layer] / request_s if request_s else 0.0
        c = self.counters
        out["boxes.box_value_builds"] = c["boxes.box_value_builds"]
        out["boxes.box_points"] = c["boxes.box_points"]
        out["boxes.box_rebuild_ratio"] = _ratio(c["boxes.box_points"],
                                                c["boxes.distinct_box_points"])
        out["boxes.sieve_survivor_ratio"] = _ratio(c["boxes.sieve_survivors"],
                                                   c["boxes.sieve_points"])
        out["boxes.survivor_hit_ratio"] = _ratio(c["boxes.sieve_hits"],
                                                 c["boxes.sieve_survivors"])
        out["sieve.prime_data_builds"] = c["sieve.prime_data_builds"]
        out["fields.field_builds"] = c["fields.field_builds"]
        out["fields.field_build_s"] = c["fields.field_build_s"]
        out["fields.cached_field_hit_ratio"] = self.cache_hit_ratio()
        out["polynomials.points_evaluated"] = c["polynomials.points_evaluated"]
        out["varieties.scan_points"] = c["varieties.scan_points"]
        out["varieties.histogram_points"] = c["varieties.histogram_points"]
        out["tracefn.kernel_bytes"] = c["tracefn.kernel_bytes"]
        out["reports.json_bytes"] = c["reports.json_bytes"]
        return out, request_s

    def span_records(self):
        return [{"name": n, "layer": l, "start": s, "end": e, "parent": p,
                 "request": r} for n, l, s, e, p, r in self.spans]


def _ratio(num, den):
    return num / den if den else 0.0


# -- work counters, derived from arguments and return values -------------------

def _broadcast_size(point):
    return int(np.broadcast(*[np.asarray(x) for x in point]).size) if len(point) else 1


def _box_value_array(t, a, out, dt):
    m, B = a["F"].n_vars, a["B"]
    pts = (2 * B + 1) ** m
    t.counters["boxes.box_value_builds"] += 1
    t.counters["boxes.box_points"] += pts
    key = (a["F"], B)
    if key not in t.boxes_seen:
        t.boxes_seen.add(key)
        t.counters["boxes.distinct_box_points"] += pts


def _sieve_filtered_count(t, a, out, dt):
    t.counters["boxes.sieve_points"] += out.total_points
    t.counters["boxes.sieve_survivors"] += out.verified_exactly
    t.counters["boxes.sieve_hits"] += out.count


def _prime_data(t, a, out, dt):
    t.counters["sieve.prime_data_builds"] += 1


def _field_build(t, a, out, dt):
    t.counters["fields.field_builds"] += 1
    t.counters["fields.field_build_s"] += dt


def _points_multi(t, a, out, dt):
    t.counters["polynomials.points_evaluated"] += _broadcast_size(a["point"])


def _points_uni(t, a, out, dt):
    t.counters["polynomials.points_evaluated"] += int(np.size(a["x"]))


def _projective_points(q, dim):
    return sum(q ** k for k in range(dim + 1)) if dim >= 0 else 0


def _levels(k_max, witness):
    return witness.ext_degree if witness is not None else k_max


def _smoothness_scan(t, a, out, dt):
    m, p = a["F"].n_vars, a["p"]
    levels = _levels(a["k_max"], out.witness)
    t.counters["varieties.scan_points"] += sum(
        _projective_points(p ** j, m - 1) for j in range(1, levels + 1))


def _classify_u(t, a, out, dt):
    if out.kind == "zero":
        return
    m, p = a["F"].n_vars, a["p"]
    levels = _levels(a["k_max"], out.witness)
    t.counters["varieties.scan_points"] += sum(
        _projective_points(p ** j, m - 2) for j in range(1, levels + 1))


def _histogram(t, a, out, dt):
    t.counters["varieties.histogram_points"] += a["p"] ** a["F"].n_vars


def _kloosterman(t, a, out, dt):
    q = a["field"].q
    if q > 2:
        t.counters["tracefn.kernel_bytes"] += 16 * (q - 1) ** 2


def _transform(t, a, out, dt):
    t.counters["tracefn.kernel_bytes"] += 16 * a["field"].q ** 2


def _report_json(t, a, out, dt):
    t.counters["reports.json_bytes"] += len(out.encode())


_HOOKS = {
    "boxes.box_value_array": _box_value_array,
    "boxes.sieve_filtered_count": _sieve_filtered_count,
    "sieve.build_prime_data": _prime_data,
    "fields.PrimeField.__init__": _field_build,
    "fields.ExtField.__init__": _field_build,
    "polynomials.MultiPoly.eval": _points_multi,
    "polynomials.MultiPoly.eval_mod": _points_multi,
    "polynomials.MultiPoly.eval_field": _points_multi,
    "polynomials.UniPoly.eval": _points_uni,
    "varieties.smoothness_scan": _smoothness_scan,
    "varieties.classify_u": _classify_u,
    "varieties.fiber_histogram": _histogram,
    "varieties.pair_fiber_histogram": _histogram,
    "tracefn.kloosterman": _kloosterman,
    "tracefn.fourier_transform": _transform,
    "tracefn.te_transform": _transform,
    "reports.report_json": _report_json,
}
