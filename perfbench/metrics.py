"""Metric names, units and how each per-layer metric is computed.

End-to-end metrics come from untraced repetitions.  Per-layer metrics come
from a traced repetition and are named ``<module>.<function>.<stat>``;
each comment names the end-to-end metric and workload it should move.
A metric of a layer that a workload never calls reads 0, and so does a
percentile with fewer than ten samples beyond it.
"""

from __future__ import annotations

END_TO_END = (
    # (name, unit, better, bound)
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# layers timed as calls/busy_s, plus p50/p90 where calls are plentiful
TIMED = {
    # wall_s on collect-indep, dive-cover and bnb-auction
    "simplex.solve_lp": True,
    # refactorizations and ftran/btran: wall_s on collect-indep (large m)
    "simplex.lu_factor": True,
    "simplex.lu_solve": True,
    # eta and ratio-test kernels: wall_s on bnb-auction
    "kernels.ratio_test": True,
    "kernels.apply_etas": True,
    "kernels.apply_etas_t": True,
    # message scatter: wall_s on train-cover, nothing elsewhere
    "kernels.scatter_messages": True,
    "kernels.row_activities": False,
    # B&B: wall_s on bnb-auction and collect-indep
    "bnb.branch_and_bound": False,
    "bnb.round_solution": True,
    # dives: wall_s on dive-cover, pd_integral_mean on bnb-auction
    "diving.dive": True,
    "diving.scorer": True,
    # prediction: ~0.4% of dive-cover; once per B&B dive on bnb-auction
    "l2dive.begin_dive": False,
    "graphnet.extract_graph": False,
    "graphnet.predict": False,
    # training: wall_s on train-cover
    "graphnet.forward": True,
    "graphnet.backward": True,
    "graphnet.make_batch": True,
    "graphnet.adam_step": True,
    "graphnet.train_model": False,
    "harness.build_examples": False,
    # instance I/O and standard form
    "instances.read_instance": False,
    "instances.to_standard_form": False,
}

DERIVED = (
    # (name, unit, better)
    ("simplex.solve_lp.iterations", "count", "lower"),
    ("simplex.solve_lp.warm_calls", "count", "higher"),
    ("simplex.solve_lp.errors", "count", "lower"),
    ("simplex.solve_lp.share", "fraction", "lower"),
    ("simplex.iters_per_solve", "count", "lower"),
    ("simplex.ms_per_iter", "ms", "lower"),
    ("bnb.branch_and_bound.self_s", "s", "lower"),
    ("bnb.nodes", "count", "lower"),
    ("bnb.ticks", "count", "lower"),
    ("bnb.node_errors", "count", "lower"),
    ("bnb.ms_per_node", "ms", "lower"),
    ("bnb.iters_per_node", "count", "lower"),
    ("bnb.round_solution.hit_frac", "fraction", "higher"),
    ("diving.dive.self_s", "s", "lower"),
    ("diving.dive.lp_iterations", "count", "lower"),
    ("diving.dive.depth_mean", "count", "lower"),
    ("diving.dive.solved_frac", "fraction", "higher"),
    ("graphnet.epoch_s", "s", "lower"),
    ("graphnet.share", "fraction", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.eval_bnb.unique_run_frac", "fraction", "higher"),
    ("error_frac", "fraction", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("bench.check.busy_s", "s", "lower"),
    # result quality: deterministic at a fixed BLAS thread count
    ("primal_gap_mean", "objective", "lower"),
    ("primal_gap_l2dive", "objective", "lower"),
    ("dive_solved_frac", "fraction", "higher"),
    ("bnb_gap_mean", "fraction", "lower"),
    ("pd_integral_mean", "ticks", "lower"),
    ("train_loss_best", "nats", "lower"),
)


def per_layer_specs():
    specs = []
    for layer, pct in TIMED.items():
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.busy_s", "s", "lower"))
        if pct:
            specs.append((f"{layer}.p50_ms", "ms", "lower"))
            specs.append((f"{layer}.p90_ms", "ms", "lower"))
    return specs + list(DERIVED)


PER_LAYER = tuple(per_layer_specs())
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile_ms(durations, q):
    """The q-quantile in ms, or 0 when fewer than ten samples lie beyond."""
    n = len(durations)
    if n == 0 or n * (1.0 - q) < 10:
        return 0.0
    return float(durations[min(int(q * n), n - 1)]) * 1e3


def per_layer(summary: dict, counters: dict, extra: dict) -> dict:
    """All per-layer values from a traced repetition's span summary, its
    counters, and ``extra`` (quality, error and trace-overhead figures)."""

    def s(layer, key):
        return summary.get(layer, {}).get(key, 0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    c = counters
    out = {}
    for layer, pct in TIMED.items():
        out[f"{layer}.calls"] = s(layer, "calls")
        out[f"{layer}.busy_s"] = s(layer, "busy_s")
        if pct:
            d = summary.get(layer, {}).get("durations", [])
            out[f"{layer}.p50_ms"] = percentile_ms(d, 0.5)
            out[f"{layer}.p90_ms"] = percentile_ms(d, 0.9)
    wall = extra["trace.wall_s"]
    solves = s("simplex.solve_lp", "calls")
    iters = c.get("simplex.solve_lp.iterations", 0)
    nodes = c.get("bnb.nodes", 0)
    dives = s("diving.dive", "calls")
    out.update({
        "simplex.solve_lp.iterations": iters,
        "simplex.solve_lp.warm_calls": c.get("simplex.solve_lp.warm_calls", 0),
        "simplex.solve_lp.errors": c.get("simplex.solve_lp.errors", 0),
        "simplex.solve_lp.share": ratio(s("simplex.solve_lp", "busy_s"), wall),
        "simplex.iters_per_solve": ratio(iters, solves),
        "simplex.ms_per_iter": ratio(s("simplex.solve_lp", "busy_s"), iters, 1e3),
        "bnb.branch_and_bound.self_s": s("bnb.branch_and_bound", "self_s"),
        "bnb.nodes": nodes,
        "bnb.ticks": c.get("bnb.ticks", 0),
        "bnb.node_errors": c.get("bnb.node_errors", 0),
        "bnb.ms_per_node": ratio(s("bnb.branch_and_bound", "busy_s"), nodes, 1e3),
        "bnb.iters_per_node": ratio(c.get("bnb.ticks", 0), nodes),
        "bnb.round_solution.hit_frac": ratio(c.get("bnb.round_solution.hits", 0),
                                             s("bnb.round_solution", "calls")),
        "diving.dive.self_s": s("diving.dive", "self_s"),
        "diving.dive.lp_iterations": c.get("diving.dive.lp_iterations", 0),
        "diving.dive.depth_mean": ratio(c.get("diving.dive.depth", 0), dives),
        "diving.dive.solved_frac": ratio(c.get("diving.dive.solved", 0), dives),
        "graphnet.epoch_s": ratio(s("graphnet.train_model", "busy_s"),
                                  c.get("graphnet.epochs", 0)),
        "graphnet.share": ratio(s("graphnet.train_model", "busy_s"), wall),
        "trace.spans": sum(v["calls"] for k, v in summary.items() if not k.startswith("_")),
        "bench.check.busy_s": s("bench.check", "busy_s"),
    })
    out.update(extra)
    missing = [name for name, *_ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, *_ in PER_LAYER}
