"""In-memory span tracer installed from the benchmark side.

The tracer wraps the public functions of the ``cae`` modules and the
``scipy.integrate.quad``, ``scipy.integrate.solve_ivp`` and
``scipy.optimize.brentq`` entry points.  ``cae.cli`` and ``cae.turning``
import names directly (``from .special import apply_j``), so a function is
replaced in every ``cae`` module that binds it, not only where it is
defined.  Nothing in the program changes; ``uninstall`` restores every
binding.

A span is (name, start, end, parent index, op id, error flag, extra), its
start and end read from the process CPU clock, as the op times are.  The
self time of a span is its duration minus the time its child spans cover;
calls run on one thread, so children are disjoint and nested.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "series", "special", "turning", "validate", "canard",
          "gevrey", "resonance")
MODULES = tuple(f"cae.{m}" for m in LAYERS)

# Public functions with a span name of their own; every other public
# function of module m is traced under the name "m.<function>" too, but the
# per-layer metrics only aggregate these by name.
RENAMED = {
    "cae.validate.bounded_solution_quadrature": "validate.truth",
}

# The Union Jack right-hand side runs once per Runge-Kutta stage, about a
# million times per op; a span per call would add a microsecond to each and
# keep a million spans.  Its time counts in the scipy.ivp span that calls it.
UNWRAPPED = {"cae.canard.union_jack_rhs"}

# Serialization methods of the classes the CLI reads and writes; without
# them the JSON format code of the series and spec types would count as
# cli self time.
METHODS = {
    ("cae.series", "CombinedSeries"): ("to_json", "from_json"),
    ("cae.turning", "ODESpec"): ("to_json", "from_json"),
}

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)


class Tracer:
    """Spans kept in a list; ``op_id`` tags every span with the benchmark op
    that caused it."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = None
        self.recording = False  # on only while an op runs, not its check
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, post=None):
        spans, stack = self.spans, self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                    False, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if post is not None:
                span[EXTRA] = post(args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def _count_calls(self, f):
        """Wrap a brentq objective so its evaluations are counted on the
        enclosing brentq span."""
        span = self.spans[self._stack[-1]]
        span[EXTRA] = 0

        def counted(*a, **k):
            span[EXTRA] += 1
            return f(*a, **k)

        return counted

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of the cae modules wherever they are
        bound, and the three scipy entry points."""
        from scipy import integrate, optimize

        wrappers = {}  # id(original) -> wrapper
        for modname in MODULES:
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                qual = f"{modname}.{attr}"
                if qual in UNWRAPPED:
                    continue
                name = RENAMED.get(qual, qual[len("cae."):])
                post = _truth_key if name == "validate.truth" else None
                wrappers[id(obj)] = (obj, self._wrap(name, obj, post))
        for modname, mod in list(sys.modules.items()):
            if modname != "cae" and not modname.startswith("cae."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        for (modname, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            for meth in methods:
                raw = inspect.getattr_static(cls, meth)
                name = f"{modname[len('cae.'):]}.{cls_name}.{meth}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))

        self._patch(integrate, "quad",
                    self._wrap("scipy.quad", integrate.quad))
        self._patch(integrate, "solve_ivp",
                    self._wrap("scipy.ivp", integrate.solve_ivp, _ivp_nfev))
        raw_brentq = optimize.brentq

        def brentq(f, *args, **kwargs):
            if self.recording:
                f = self._count_calls(f)
            return raw_brentq(f, *args, **kwargs)

        self._patch(optimize, "brentq",
                    self._wrap("scipy.brentq", functools.wraps(raw_brentq)(brentq)))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "error": s[ERROR],
                    "extra": s[EXTRA],
                }) + "\n")


def _ivp_nfev(_args, _kwargs, result):
    return int(result.nfev)


def _truth_key(args, kwargs, _result):
    """(x, eps) of a bounded_solution_quadrature(F, g, eps, x, sigma) call."""
    eps = kwargs["eps"] if "eps" in kwargs else args[2]
    x = kwargs["x"] if "x" in kwargs else args[3]
    return (float(x), float(eps))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, n_ops: int) -> dict:
    """Per-layer metrics from the span list, counts and times per op."""
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def ancestor(i, names):
        """Name of the nearest ancestor of span i whose name is in names."""
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] in names:
                return spans[p][NAME]
            p = spans[p][PARENT]
        return None

    layer_self: dict = {}
    name_self: dict = {}
    layer_calls: dict = {}
    name_calls: dict = {}
    layer_errors: dict = {}
    nfev_under: dict = {}  # solve_ivp nfev by the cae function that caused it
    ivp_under: dict = {}  # solve_ivp calls, likewise
    quad_under_eval_u = 0
    truth_keys = set()
    brentq_evals = 0
    owners = {"canard.union_jack_c0": "canard", "canard.angular_canard_value": "canard",
              "special.apply_j": "special.apply_j",
              "validate.ode_solve": "validate.ode_solve"}
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = layer_of(name) if not name.startswith("scipy.") else name
        self_t = (s[END] - s[START]) - child_time[i]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t
        name_self[name] = name_self.get(name, 0.0) + self_t
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        name_calls[name] = name_calls.get(name, 0) + 1
        if s[ERROR]:
            parent = s[PARENT]
            p_layer = layer_of(spans[parent][NAME]) if parent >= 0 else None
            if p_layer != layer:
                layer_errors[layer] = layer_errors.get(layer, 0) + 1
        if name == "scipy.ivp" and s[EXTRA] is not None:
            key = owners.get(ancestor(i, owners))
            nfev_under[key] = nfev_under.get(key, 0) + s[EXTRA]
            ivp_under[key] = ivp_under.get(key, 0) + 1
        elif name == "scipy.quad":
            if ancestor(i, ("special.eval_u", "validate.truth")) == "special.eval_u":
                quad_under_eval_u += 1
        elif name == "validate.truth" and s[EXTRA] is not None:
            truth_keys.add((s[OP],) + s[EXTRA])
        elif name == "scipy.brentq" and s[EXTRA] is not None:
            brentq_evals += s[EXTRA]

    per = 1.0 / max(n_ops, 1)
    truth_calls = name_calls.get("validate.truth", 0)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) * per, "s/op")
        m[f"{layer}.errors"] = (layer_errors.get(layer, 0) * per, "count/op")
    for layer in ("cli", "series"):
        m[f"{layer}.calls"] = (layer_calls.get(layer, 0) * per, "count/op")
    for name in ("series.evaluate_partial_sum", "special.eval_u",
                 "special.apply_j"):
        m[f"{name}.self_s"] = (name_self.get(name, 0.0) * per, "s/op")
    for name in ("special.eval_u", "special.apply_j", "validate.truth",
                 "validate.ode_solve"):
        m[f"{name}.calls"] = (name_calls.get(name, 0) * per, "count/op")
    m["special.eval_u.quad_calls"] = (quad_under_eval_u * per, "count/op")
    m["special.apply_j.nfev"] = (nfev_under.get("special.apply_j", 0) * per, "count/op")
    m["validate.ode_solve.nfev"] = (nfev_under.get("validate.ode_solve", 0) * per, "count/op")
    m["validate.truth.distinct_ratio"] = (
        len(truth_keys) / truth_calls if truth_calls else 0.0, "ratio")
    m["canard.ivp_calls"] = (ivp_under.get("canard", 0) * per, "count/op")
    m["canard.nfev"] = (nfev_under.get("canard", 0) * per, "count/op")
    m["canard.brentq_evals"] = (brentq_evals * per, "count/op")
    for sc in ("scipy.quad", "scipy.ivp", "scipy.brentq"):
        m[f"{sc}.calls"] = (name_calls.get(sc, 0) * per, "count/op")
        m[f"{sc}.s"] = (name_self.get(sc, 0.0) * per, "s/op")
    m["scipy.ivp.nfev"] = (sum(nfev_under.values()) * per, "count/op")
    return m
