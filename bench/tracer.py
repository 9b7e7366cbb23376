"""Per-layer spans for one benchmark worker process, installed from outside.

The package is not instrumented; this module wraps its functions after
import.  A layer is one module of the package.  Each wrapped call opens
a span; a span's self time is its duration minus the time of the spans
it opened, and goes to the span's layer and bucket.  A bucket names a
group of entry points (BUCKETS); a call with no bucket of its own
inherits the bucket of an enclosing span of the same layer, else it
lands in the layer's "other" bucket.

What gets wrapped:

* every module-level function of a layer, at every binding other modules
  hold: ``from .x import f`` names are rebound, and ``from . import x``
  module bindings are replaced by a proxy whose functions are wrapped.
  The package namespace is rebound too.  Calls inside the defining module
  stay unwrapped (they are the same layer) unless listed in SELF_BINDINGS;
* public methods, static methods and class methods of the layer's
  classes, patched on the class, plus the QPoly arithmetic operators the
  series engine calls.

Counting hooks (install_counters) are separate and cheap: they count
``LPolynomial.check_rh`` calls and the terms requested from
``EstimatorSpec.exp_series``, and run in untraced rounds as well.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

LAYERS = (
    "cli", "verify", "families", "series", "primecounts", "universe",
    "ffield", "asymptotics", "constants", "qpoly",
)

BUCKETS = {
    "series.product_form": "exp_int",
    "series.squarefree_product_form": "exp_int",
    "series._exp_psi_over_n": "exp_int",
    "series.series_exp": "exp_frac",
    "series.psi_from_g": "psi",
    "primecounts.pi_q": "gen",
    "primecounts.pi_chi2": "gen",
    "primecounts.psi_chi2": "gen",
    "primecounts.pi_K": "gen",
    "primecounts.pi_arith": "arith",
    "primecounts.psi_arith": "arith",
    "primecounts.phi_m": "arith",
    "universe.get_universe": "build",
    "universe.Universe.extend_to": "build",
    "universe.Universe.count": "count",
    "universe.Universe.masks": "count",
    "asymptotics.EstimatorSpec.exp_series": "exp_series",
    "asymptotics.estimate_coefficient": "estimate",
}

# per-layer metric name -> (layer, bucket)
BUCKET_METRICS = {
    "series.exp_int_s": ("series", "exp_int"),
    "series.exp_frac_s": ("series", "exp_frac"),
    "series.psi_s": ("series", "psi"),
    "primecounts.gen_s": ("primecounts", "gen"),
    "primecounts.arith_s": ("primecounts", "arith"),
    "universe.build_s": ("universe", "build"),
    "universe.count_s": ("universe", "count"),
    "asymptotics.exp_series_s": ("asymptotics", "exp_series"),
    "asymptotics.estimate_self_s": ("asymptotics", "estimate"),
}

# functions also wrapped in their own module, because callers there
# (product_form -> psi_from_g -> ...) cross a bucket boundary
SELF_BINDINGS = {"series": ("psi_from_g", "_exp_psi_over_n", "series_exp")}

_OPERATORS = {
    "QPoly": ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__pow__", "__neg__", "__eq__",
              "__call__"),
}


def install_counters(package) -> dict:
    """Count RH checks and estimator series terms; returns the live counts."""
    counts = {"rh_checks": 0, "eval_terms": 0}
    lpoly = package.primecounts.LPolynomial
    spec = package.asymptotics.EstimatorSpec
    check_rh, exp_series = lpoly.check_rh, spec.exp_series

    @functools.wraps(check_rh)
    def counted_check_rh(self, *args, **kwargs):
        counts["rh_checks"] += 1
        return check_rh(self, *args, **kwargs)

    @functools.wraps(exp_series)
    def counted_exp_series(self, terms, *args, **kwargs):
        counts["eval_terms"] += terms
        return exp_series(self, terms, *args, **kwargs)

    lpoly.check_rh = counted_check_rh
    spec.exp_series = counted_exp_series
    return counts


class _Proxy(types.ModuleType):
    """A stand-in for a module binding: wrapped functions, all else delegated."""

    def __init__(self, module, wrapped: dict):
        super().__init__(module.__name__, module.__doc__)
        self.__dict__.update(wrapped)
        self.__dict__["_proxied"] = module

    def __getattr__(self, name):
        return getattr(self.__dict__["_proxied"], name)


class Tracer:
    """Self time, calls and errors per layer and bucket."""

    def __init__(self):
        self.self_time: dict[tuple[str, str], float] = {}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []
        self._wrappers: dict = {}

    def _wrap(self, fn, layer: str, bucket: str | None):
        cached = self._wrappers.get(fn)
        if cached is not None:
            return cached
        stack, totals = self._stack, self.self_time
        calls, errors = self.calls, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            b = bucket
            if b is None:
                b = stack[-1][1] if stack and stack[-1][0] == layer else "other"
            frame = [layer, b, 0.0]
            stack.append(frame)
            calls[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (layer, b)
                totals[key] = totals.get(key, 0.0) + elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed

        self._wrappers[fn] = span
        return span

    def entry(self, fn):
        """The wrapper of fn, for calling a layer from outside the package."""
        return self._wrappers.get(fn, fn)

    def install(self, package) -> None:
        modules = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        layer_of = {mod: name for name, mod in modules.items()}
        functions: dict = {}  # original -> wrapper
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    functions[obj] = self._wrap(obj, layer, BUCKETS.get(f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        proxies = {
            mod: _Proxy(mod, {
                name: functions[obj] for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj in functions
            })
            for mod in modules.values()
        }
        for mod in (package, *modules.values()):
            own = layer_of.get(mod)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in functions:
                    if obj.__module__ == mod.__name__ and name not in SELF_BINDINGS.get(own, ()):
                        continue
                    setattr(mod, name, functions[obj])
                elif (isinstance(obj, types.ModuleType) and obj in proxies
                      and own is not None and obj is not mod):
                    setattr(mod, name, proxies[obj])

    def _wrap_class(self, cls, layer: str) -> None:
        operators = _OPERATORS.get(cls.__name__, ())
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in operators:
                continue
            bucket = BUCKETS.get(f"{layer}.{cls.__name__}.{name}")
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, bucket)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, bucket)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, bucket))

    def metrics(self) -> dict[str, float]:
        """Self time, calls and errors per layer, and the bucket times."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for (lay, _), t in self.self_time.items() if lay == layer)
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        for metric, key in BUCKET_METRICS.items():
            out[metric] = self.self_time.get(key, 0.0)
        return out
