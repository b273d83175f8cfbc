"""In-process span tracing of divekit's public functions.

The benchmark never edits the package: it rebinds the module attributes that
divekit's own modules call through (``bnb.solve_lp``, ``simplex.sla``,
``graphnet.scatter_messages``, ...) to wrappers that record one span per
call.  A span is (name, start, end, parent); spans are kept in memory and
reduced to per-name statistics (calls, inclusive busy time, self time and
duration percentiles) when a traced repetition ends.

A binding that moved or was renamed must not drop out of the trace
silently, so every site listed in ``SITES`` has to exist and still hold the
original function, and any further module global bound to a traced
function is patched as well.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

PKG = "divekit"

# span name -> (home module, attribute, binding sites that must exist)
SITES = {
    "simplex.solve_lp": ("simplex", "solve_lp", ("bnb", "diving", "l2dive", "harness")),
    "kernels.ratio_test": ("kernels", "ratio_test", ("simplex",)),
    "kernels.apply_etas": ("kernels", "apply_etas", ("simplex",)),
    "kernels.apply_etas_t": ("kernels", "apply_etas_t", ("simplex",)),
    "kernels.scatter_messages": ("kernels", "scatter_messages", ("graphnet",)),
    "kernels.row_activities": ("kernels", "row_activities", ("instances",)),
    "bnb.branch_and_bound": ("bnb", "branch_and_bound", ("harness",)),
    "bnb.round_solution": ("bnb", "round_solution", ("diving",)),
    "diving.dive": ("diving", "dive", ("harness",)),
    "diving.make_scorer": ("diving", "make_scorer", ("harness",)),
    "graphnet.extract_graph": ("graphnet", "extract_graph", ("harness", "l2dive")),
    "graphnet.make_batch": ("graphnet", "make_batch", ()),
    "graphnet.adam_step": ("graphnet", "adam_step", ()),
    "graphnet.train_model": ("graphnet", "train_model", ("harness",)),
    "harness.build_examples": ("harness", "build_examples", ()),
    "instances.read_instance": ("instances", "read_instance", ("harness",)),
    "instances.to_standard_form": ("instances", "to_standard_form",
                                   ("bnb", "diving", "l2dive", "harness")),
}
METHODS = {
    "graphnet.forward": ("graphnet", "GraphNet", "forward"),
    "graphnet.backward": ("graphnet", "GraphNet", "backward"),
    "graphnet.predict": ("graphnet", "GraphNet", "predict"),
}
# simplex reaches the LU routines through its module attribute ``sla``
LU_FUNCS = {"simplex.lu_factor": "lu_factor", "simplex.lu_solve": "lu_solve"}
# keyword parameters the solve_lp wrapper forwards by name
SOLVE_LP_PARAMS = ("lp", "warm", "iter_limit", "lower", "upper")


class TraceError(RuntimeError):
    """A traced binding is missing or no longer holds the expected function."""


def _mod(name):
    return importlib.import_module(f"{PKG}.{name}")


class Tracer:
    """Span recorder with a parent stack; one instance per traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, name, fn, *args, **kwargs):
        i = len(self.start)
        self.name_idx.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self._stack.pop()

    def arrays(self):
        return (np.asarray(self.name_idx, dtype=np.int32),
                np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start), np.asarray(self.end))

    def summary(self) -> dict:
        """Per span name: calls, busy_s (inclusive), self_s (exclusive of
        child spans) and the sorted durations for percentiles."""
        name_idx, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = name_idx == k
            out[name] = {
                "calls": int(sel.sum()),
                "busy_s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
                "min_self_s": float(self_t[sel].min()) if sel.any() else 0.0,
                "durations": np.sort(dur[sel]),
            }
        top = ~has_parent
        out["_top"] = sorted({self.names[i] for i in name_idx[top]})
        out["_children_of_top"] = float(child[top].sum())
        return out

    def save(self, path) -> None:
        name_idx, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name_idx,
                            parent=parent, start=start - t0, end=end - t0)


class Patcher:
    """Rebinds module attributes and restores every one of them on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def package_modules():
    """The package and every module in it, a new one included."""
    pkg = importlib.import_module(PKG)
    return [pkg] + [_mod(info.name) for info in pkgutil.iter_modules(pkg.__path__)]


def bindings_of(fn):
    """Every (module, attribute) in the package that holds ``fn``."""
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


def patch_function(patcher, span, wrapper_factory):
    """Replace every binding of the function behind ``span``; fail if a
    required site is missing or holds something else."""
    home, attr, sites = SITES[span]
    home_mod = _mod(home)
    orig = getattr(home_mod, attr, None)
    if orig is None:
        raise TraceError(f"{PKG}.{home}.{attr} no longer exists")
    for site in sites:
        bound = getattr(_mod(site), attr, None)
        if bound is not orig:
            raise TraceError(f"{PKG}.{site}.{attr} is missing or no longer "
                             f"{PKG}.{home}.{attr}; update perfbench/spans.py")
    wrapped = wrapper_factory(orig)
    for mod, name in bindings_of(orig):
        patcher.set(mod, name, wrapped)
    return orig


def _scorer_proxy(tracer, scorer):
    """Callable stand-in for a scorer that times each call; it has
    ``begin_dive``/``observe`` exactly when the scorer has them, because
    ``dive()`` branches on ``hasattr``."""
    ns = {"__call__": lambda self, ctx: tracer.call("diving.scorer", scorer, ctx),
          "__repr__": lambda self: repr(scorer)}
    owner = type(scorer).__module__.rsplit(".", 1)[-1]
    if hasattr(scorer, "begin_dive"):
        ns["begin_dive"] = lambda self, ctx: tracer.call(
            f"{owner}.begin_dive", scorer.begin_dive, ctx)
    if hasattr(scorer, "observe"):
        ns["observe"] = lambda self, *a: tracer.call(f"{owner}.observe", scorer.observe, *a)
    proxy = type(f"Traced{type(scorer).__name__}", (), ns)()
    for hook in ("begin_dive", "observe"):
        if hasattr(proxy, hook) != hasattr(scorer, hook):
            raise TraceError(f"scorer proxy changed the presence of {hook}")
    return proxy


def install(patcher, tracer, check_lp=None):
    """Wrap every traced function.  ``check_lp(sol, lp, lower, upper)`` runs
    after each solve, inside its own ``bench.check`` span."""
    simplex = _mod("simplex")
    params = tuple(inspect.signature(simplex.solve_lp).parameters)
    if params[: len(SOLVE_LP_PARAMS)] != SOLVE_LP_PARAMS:
        raise TraceError(f"solve_lp signature changed: {params}")
    counters = tracer.counters

    def plain(span):
        def factory(orig):
            def wrapper(*a, **kw):
                return tracer.call(span, orig, *a, **kw)
            wrapper.__wrapped__ = orig
            return wrapper
        return factory

    def solve_lp_factory(orig):
        def solve_lp(lp, warm=None, iter_limit=None, lower=None, upper=None, **kw):
            try:
                sol = tracer.call("simplex.solve_lp", orig, lp, warm=warm,
                                  iter_limit=iter_limit, lower=lower, upper=upper, **kw)
            except simplex.SimplexError:
                counters["simplex.solve_lp.errors"] += 1
                raise
            counters["simplex.solve_lp.iterations"] += sol.iterations
            counters["simplex.solve_lp.warm_calls"] += warm is not None
            if check_lp is not None:
                tracer.call("bench.check", check_lp, sol, lp, lower, upper)
            return sol
        return solve_lp

    def bnb_factory(orig):
        def branch_and_bound(*a, **kw):
            res = tracer.call("bnb.branch_and_bound", orig, *a, **kw)
            counters["bnb.nodes"] += res.nodes
            counters["bnb.ticks"] += res.ticks
            counters["bnb.node_errors"] += res.node_errors
            return res
        return branch_and_bound

    def round_factory(orig):
        def round_solution(*a, **kw):
            res = tracer.call("bnb.round_solution", orig, *a, **kw)
            counters["bnb.round_solution.hits"] += res is not None
            return res
        return round_solution

    def dive_factory(orig):
        def dive(*a, **kw):
            res = tracer.call("diving.dive", orig, *a, **kw)
            counters["diving.dive.lp_iterations"] += res.lp_iterations
            counters["diving.dive.depth"] += res.depth_reached
            counters["diving.dive.solved"] += len(res.solutions) > 0
            return res
        return dive

    def scorer_factory(orig):
        def make_scorer(*a, **kw):
            return _scorer_proxy(tracer, orig(*a, **kw))
        return make_scorer

    def train_factory(orig):
        def train_model(*a, **kw):
            res = tracer.call("graphnet.train_model", orig, *a, **kw)
            counters["graphnet.epochs"] += len(res.history) - 1
            return res
        return train_model

    special = {
        "simplex.solve_lp": solve_lp_factory,
        "bnb.branch_and_bound": bnb_factory,
        "bnb.round_solution": round_factory,
        "diving.dive": dive_factory,
        "diving.make_scorer": scorer_factory,
        "graphnet.train_model": train_factory,
    }
    for span in SITES:
        patch_function(patcher, span, special.get(span) or plain(span))

    for span, (home, cls_name, meth) in METHODS.items():
        cls = getattr(_mod(home), cls_name)
        orig = getattr(cls, meth, None)
        if orig is None:
            raise TraceError(f"{PKG}.{home}.{cls_name}.{meth} no longer exists")
        patcher.set(cls, meth, _method_wrapper(tracer, span, orig))

    sla = getattr(simplex, "sla", None)
    if sla is None or any(not hasattr(sla, f) for f in LU_FUNCS.values()):
        raise TraceError(f"{PKG}.simplex.sla no longer provides {sorted(LU_FUNCS.values())}")
    proxy = SimpleNamespace(**{
        f: plain(span)(getattr(sla, f)) for span, f in LU_FUNCS.items()
    })
    patcher.set(simplex, "sla", proxy)


def _method_wrapper(tracer, span, orig):
    def method(self, *a, **kw):
        return tracer.call(span, orig, self, *a, **kw)
    method.__wrapped__ = orig
    return method
