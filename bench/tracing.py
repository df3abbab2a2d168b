"""Layer spans and call counts for the traced benchmark run.

The library is instrumented from outside: install() replaces the public
functions and methods of nbhd.verify, nbhd.neighbour, nbhd.algebra,
nbhd.ideal and nbhd.poly with wrappers, rebinding every module-level name
that refers to a wrapped function (nbhd.algebra imports monomial_reduce from
nbhd.ideal, so both bindings are replaced).  No library file is touched.

A call that crosses into a different layer opens a span; a call within the
current layer passes straight through and is only counted, except that the
functions with their own metrics (FUNCTIONS, NEIGHBOUR_FUNCTIONS) always get
a timed frame, so that, for instance, reduce_full's share of a buchberger
span is its own.  A frame's self time is its duration minus the time of the
timed frames it opened; it is credited to its function and its layer.  The
wrappers' own bookkeeping is timed separately (wrapper_s) and excluded from
every self time, so harness self time + library self times + wrapper_s add
up to the traced wall time.  Spans are aggregated per function and per layer
as they close; only one record per op is kept.

The raw exponent-tuple helpers (poly.mono_* and MonomialOrder.key) are not
wrapped: they take a few hundred nanoseconds, run inside ideal's and poly's
inner loops, and a wrapper per call would swamp the self times they belong
to.  Coefficient
arithmetic (arith) is counted in a separate pass by count_arith() for the
same reason.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("verify", "neighbour", "algebra", "ideal", "poly")
HARNESS = "harness"

# dunder methods that do a layer's work; the rest (__eq__, __hash__,
# __len__, __str__, ...) are structural and stay with their caller
WORK_DUNDERS = {
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__neg__", "__pow__",
}
INLINE_HELPERS = {
    "mono_mul", "mono_divides", "mono_div", "mono_lcm", "mono_degree", "MonomialOrder.key",
}

# per-layer metric name -> tracer key of the wrapped function
FUNCTIONS = {
    "ideal.monomial_reduce": "ideal.monomial_reduce",
    "ideal.buchberger": "ideal.buchberger",
    "ideal.reduce_full": "ideal.reduce_full",
    "poly.leading": "poly.Polynomial.leading",
    "algebra.FpAlgebra": "algebra.FpAlgebra.__init__",
    "algebra.AlgebraMap": "algebra.AlgebraMap.__init__",
    "algebra.apply": "algebra.AlgebraMap.apply",
    "poly.substitute": "poly.Polynomial.substitute",
    "algebra.normal_form": "algebra.FpAlgebra.normal_form",
    "algebra.element_mul": "algebra.AlgebraElement.__mul__",
    "poly.mul": "poly.Polynomial.__mul__",
    "poly.add": "poly.Polynomial.__add__",
}
NEIGHBOUR_FUNCTIONS = (
    "is_neighbour", "is_neighbour_product_form", "is_square_zero_pair",
    "is_simplex", "in_dtilde", "affine_combination", "affine_combination_rows",
    "extend_matrix", "decompose_difference", "rewrite_kernel_element",
)
TIMED = {*FUNCTIONS.values(), *(f"neighbour.{name}" for name in NEIGHBOUR_FUNCTIONS)}


class Tracer:
    """Span aggregation for one traced round."""

    def __init__(self):
        self.layer = HARNESS
        self.active = False  # only calls made by an op are traced
        self.frames: list[list[float]] = []  # child seconds of each open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)
        self.signatures: set = set()
        self.wrapper_s = 0.0
        self.spans = 0
        self.ops: list[dict] = []
        self.last_spoly = None
        self.last_substitute_terms = 0

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, layer: str, key: str, observe=None):
        """A wrapper opening a span in layer when called from another layer."""
        tracer = self
        perf = time.perf_counter
        calls = self.calls

        timed = key in TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            outer = tracer.layer
            if outer == layer and not timed:
                if observe is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                t0 = perf()
                observe(tracer, args, kwargs, result)
                tracer._charge(perf() - t0)
                return result
            t_in = perf()
            frame = [0.0]
            tracer.frames.append(frame)
            tracer.layer = layer
            if outer != layer:
                tracer.spans += 1
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf()
                tracer.layer = outer
                tracer.frames.pop()
                own = (t1 - t0) - frame[0]
                tracer.self_s[key] += own
                tracer.layer_self[layer] += own
                if ok and observe is not None:
                    observe(tracer, args, kwargs, result)
                t_out = perf()
                tracer.frames[-1][0] += t_out - t_in
                tracer.wrapper_s += (t_out - t_in) - (t1 - t0)
            return result

        return wrapper

    def _charge(self, seconds: float) -> None:
        self.wrapper_s += seconds
        self.frames[-1][0] += seconds

    def run_op(self, name: str, thunk, layer: str | None):
        """Run one op as a harness span; layer wraps the thunk itself."""
        if layer is not None:
            thunk = self.wrap(thunk, layer, f"{layer}.op")
        before = dict(self.layer_self)
        frame = [0.0]
        self.frames.append(frame)
        self.active = True
        start = time.perf_counter()
        try:
            return thunk()
        finally:
            end = time.perf_counter()
            self.active = False
            self.frames.pop()
            self.layer_self[HARNESS] += (end - start) - frame[0]
            self.ops.append(
                {
                    "op": name,
                    "start": start,
                    "end": end,
                    "self_s": {
                        k: v - before.get(k, 0.0)
                        for k, v in self.layer_self.items()
                        if v != before.get(k, 0.0)
                    },
                }
            )

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public callables of every layer and rebind all references."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"nbhd.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrapped(obj, layer, replaced)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, replaced)
        modules = [m for n, m in list(sys.modules.items()) if n == "nbhd" or n.startswith("nbhd.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced and replaced[id(obj)] is not obj:
                    setattr(module, name, replaced[id(obj)])

    def _wrapped(self, fn, layer: str, replaced: dict):
        if fn.__qualname__ in INLINE_HELPERS:
            return fn
        if id(fn) not in replaced:
            key = f"{layer}.{fn.__qualname__}"
            replaced[id(fn)] = self.wrap(fn, layer, key, OBSERVERS.get(key))
        return replaced[id(fn)]

    def _wrap_class(self, cls, layer: str, replaced: dict) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WORK_DUNDERS:
                continue
            if inspect.isfunction(value):
                setattr(cls, attr, self._wrapped(value, layer, replaced))
            elif isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrapped(value.__func__, layer, replaced)))


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens.  They use only len() and
# attribute reads, which no wrapper intercepts, so they add no calls.


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _monomial_reduce(tr, args, kwargs, result):
    tr.extra["ideal.monomial_reduce.terms_in"] += len(_first(args, kwargs, "p"))
    tr.extra["ideal.monomial_reduce.terms_kept"] += len(result)


def _buchberger(tr, args, kwargs, result):
    tr.extra["ideal.buchberger.gens_in"] += len(_first(args, kwargs, "ideal"))
    tr.extra["ideal.buchberger.basis_out"] += len(result)


def _s_polynomial(tr, args, kwargs, result):
    tr.last_spoly = result


def _reduce_full(tr, args, kwargs, result):
    # buchberger reduces each S-polynomial right after forming it
    if tr.last_spoly is not None and _first(args, kwargs, "p") is tr.last_spoly:
        tr.last_spoly = None
        tr.extra["ideal.reduce_full.spair_reductions"] += 1
        tr.extra["ideal.reduce_full.spair_zero"] += len(result) == 0


def _fp_algebra(tr, args, kwargs, result):
    a = args[0]
    tr.signatures.add((a.ring, a.varset.names, frozenset(a.relations), a.strategy, a.order))


def _substitute(tr, args, kwargs, result):
    n = len(result)
    tr.last_substitute_terms = n
    tr.extra["poly.substitute.terms_out"] += n
    if n > tr.extra["poly.substitute.peak_terms"]:
        tr.extra["poly.substitute.peak_terms"] = n


def _apply(tr, args, kwargs, result):
    tr.extra["algebra.apply.terms_produced"] += tr.last_substitute_terms
    tr.extra["algebra.apply.terms_kept"] += len(result.rep)


def _poly_mul(tr, args, kwargs, result):
    if result is not NotImplemented:
        tr.extra["poly.mul.terms_out"] += len(result)


OBSERVERS = {
    "ideal.monomial_reduce": _monomial_reduce,
    "ideal.buchberger": _buchberger,
    "ideal.s_polynomial": _s_polynomial,
    "ideal.reduce_full": _reduce_full,
    "algebra.FpAlgebra.__init__": _fp_algebra,
    "poly.Polynomial.substitute": _substitute,
    "algebra.AlgebraMap.apply": _apply,
    "poly.Polynomial.__mul__": _poly_mul,
}


# ---------------------------------------------------------------------------
# the arith counting pass

ARITH_COUNTED = ("mul", "add", "invert")


def count_arith() -> dict[str, list[int]]:
    """Count RingSpec.mul/add/invert calls; returns the live counter cells."""
    from nbhd.arith import RingSpec

    cells = {}
    for name in ARITH_COUNTED:
        fn = getattr(RingSpec, name)
        cell = cells[name] = [0]

        def counted(*args, _fn=fn, _cell=cell):
            _cell[0] += 1
            return _fn(*args)

        setattr(RingSpec, name, counted)
    return cells
