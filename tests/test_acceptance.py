"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output).  The ordering experiment and its reruns write their
tables under the pytest tmp factory.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import os
import time

import numpy as np
import pytest

from divekit.bnb import OPTIMAL_PROVEN, SolveConfig, branch_and_bound, enumerate_optima
from divekit.diving import dive, make_scorer
from divekit.graphnet import (
    GraphNet,
    TrainingConfig,
    batch_loss_and_grads,
    extract_graph,
    load_model,
    make_batch,
    target_distribution,
)
from divekit.harness import (
    CollectConfig,
    DiveEvalConfig,
    collect_corpus,
    eval_dives,
    generate_batch,
    load_corpus,
    lp_oracle_suite,
    primal_dual_gap,
    primal_dual_integral,
    primal_gap,
    tighten_set_suite,
    read_csv_rows,
    train_from_corpus,
    write_csv,
)
from divekit.instances import (
    GeneratorConfig,
    generate,
    make_instance,
    read_instance,
    to_standard_form,
)
from divekit.oracles import brute_force_milp
from divekit.simplex import solve_lp
from conftest import reference_feasible

JOBS = max(1, min(8, os.cpu_count() or 1))


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# criterion 1: LP oracle equivalence + duality invariants
# ---------------------------------------------------------------------------

def test_criterion_01_lp_oracle_equivalence():
    t0 = time.time()
    rep = lp_oracle_suite(count=200, seed=10)
    elapsed = time.time() - t0
    ok = rep["ok"] and elapsed < 60.0
    assert report(
        1, ok,
        f"{rep['count']} LPs vs basic-solution enumeration; "
        f"max scaled duality gap {rep['max_scaled_gap']:.2e} (<=1e-8), "
        f"max slackness violation {rep['max_cs_violation']:.2e} (<=1e-8), "
        f"{elapsed:.1f}s (<60s); failures: {rep['failures'][:3]}",
    )


# ---------------------------------------------------------------------------
# criterion 2: tighten-set optimality reproduction
# ---------------------------------------------------------------------------

def test_criterion_02_tighten_set_optimality():
    t0 = time.time()
    rep = tighten_set_suite(count=100, seed=11)
    elapsed = time.time() - t0
    ok = rep["ok"] and rep["count"] >= 100 and elapsed < 120.0
    assert report(
        2, ok,
        f"{rep['count']} (instance, point) pairs; "
        f"{rep['count'] - len(rep['failures'])} matched c'x within 1e-6 (need 100%), "
        f"{elapsed:.1f}s (<120s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: branch-and-bound oracle equivalence (shared with criterion 10)
# ---------------------------------------------------------------------------

def criterion3_instances():
    specs = []
    for k in range(40):
        specs.append(GeneratorConfig("set-cover", seed=700 + k, rows=8, cols=14,
                                     density=0.25, max_cost=20))
    for k in range(25):
        specs.append(GeneratorConfig("comb-auction", seed=740 + k, items=10, bids=15))
    for k in range(20):
        specs.append(GeneratorConfig("indep-set", seed=770 + k, nodes=15, affinity=2))
    for k in range(15):
        specs.append(GeneratorConfig("facility-location", seed=790 + k,
                                     customers=4, facilities=3))
    return specs


def run_criterion3(out_path):
    rows = []
    failures = []
    for cfg in criterion3_instances():
        inst = generate(cfg)
        assert inst.divable.sum() <= 15
        z_ref, x_ref, _ = brute_force_milp(inst)
        res = branch_and_bound(inst, SolveConfig(node_limit=500_000))
        ok = res.status == OPTIMAL_PROVEN and abs(res.objective - z_ref) <= 1e-6
        if not ok:
            failures.append((inst.name, res.status, res.objective, z_ref))
        rows.append((inst.name, cfg.family, res.status, res.objective, z_ref,
                     res.nodes, res.ticks))
    write_csv(out_path, {"command": "acceptance-bnb-oracle", "seed": 700},
              ("instance", "family", "status", "objective", "brute_force",
               "nodes", "ticks"), rows)
    return failures


@pytest.fixture(scope="session")
def criterion3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("crit3") / "bnb_oracle.csv"
    t0 = time.time()
    failures = run_criterion3(out)
    return out, failures, time.time() - t0


def test_criterion_03_bnb_oracle_equivalence(criterion3_run):
    out, failures, elapsed = criterion3_run
    ok = not failures and elapsed < 300.0
    assert report(
        3, ok,
        f"100 instances (<=15 divable binaries) solved to proven optimality; "
        f"mismatches: {failures[:3]}; {elapsed:.1f}s (<300s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: enumeration correctness on symmetric instances
# ---------------------------------------------------------------------------

def test_criterion_04_enumeration_exact():
    bad = []
    checked = 0
    for k in range(15):
        cfgs = [
            GeneratorConfig("set-cover", seed=820 + k, rows=6, cols=10,
                            density=0.3, max_cost=4),
            GeneratorConfig("indep-set", seed=850 + k, nodes=11, affinity=2),
        ]
        for cfg in cfgs:
            inst = generate(cfg)
            assert inst.divable.sum() <= 12
            _, _, keys = brute_force_milp(inst)
            res = enumerate_optima(inst, SolveConfig(pool_capacity=100_000,
                                                     node_limit=500_000))
            got = sorted(tuple(int(v) for v in a) for a in res.assignments)
            checked += 1
            if not res.complete or got != sorted(keys):
                bad.append((inst.name, len(got), len(keys)))
    ok = checked == 30 and not bad
    assert report(4, ok, f"{checked} symmetric instances; optimal-assignment sets "
                         f"match brute force exactly; mismatches: {bad[:3]}")


# ---------------------------------------------------------------------------
# criterion 5: gradient check against central finite differences
# ---------------------------------------------------------------------------

def _min_kink_distance(model, batch):
    """Smallest |preactivation| of any rectifier; a finite-difference step
    must not push one across zero, or the check compares different linear
    pieces of the piecewise-linear network."""
    p = model.params
    _, cache = model.forward(batch, train=True)
    dists = []
    for inp, w, b in (("v0", "emb_v_w1", "emb_v_b1"), ("v1", "emb_v_w2", "emb_v_b2"),
                      ("c0", "emb_c_w1", "emb_c_b1"), ("c1", "emb_c_w2", "emb_c_b2")):
        pre = cache[inp] @ p[w] + p[b]
        if pre.size:
            dists.append(float(np.min(np.abs(pre))))
    for res_key, agg_key, w, b in (("c2", "agg_c", "conv_vc_w", "conv_vc_b"),
                                   ("v2", "agg_v", "conv_cv_w", "conv_cv_b")):
        pre = cache[res_key] + cache[agg_key] @ p[w] + p[b]
        if pre.size:
            dists.append(float(np.min(np.abs(pre))))
    pre = cache["v3"] @ p["out_w1"] + p["out_b1"]
    dists.append(float(np.min(np.abs(pre))))
    return min(dists)


def _fd_case(seed):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        inst = generate(GeneratorConfig("set-cover", seed=900 + seed, rows=5,
                                        cols=8, density=0.35, max_cost=6))
    elif kind == 1:
        inst = generate(GeneratorConfig("comb-auction", seed=900 + seed,
                                        items=6, bids=8))
    else:
        # includes a general-integer variable so the bitwise heads get used
        inst = make_instance(
            f"intdom{seed}", c=[1.0, -1.0, 0.5],
            rows=[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 1, 1.0), (1, 2, -1.0)],
            senses=[0, 0], b=[6.0, 2.0], lb=[0, 0, 0], ub=[5, 5, 1],
            integer=[0, 1, 2],
        )
    lp = to_standard_form(inst)
    root = solve_lp(lp)
    assert root.status == "optimal"
    graph = extract_graph(inst, root)
    batch = make_batch([graph])
    res = branch_and_bound(inst, SolveConfig(pool_capacity=3))
    target = target_distribution(res.pool.solutions(), inst,
                                 temperature=1.0 + rng.random(), n_bits=3)
    for retry in range(60):
        model = GraphNet(hidden=10, n_bits=3, seed=seed + 1000 * retry)
        if _min_kink_distance(model, batch) > 2e-3:
            break
    else:
        raise RuntimeError("no kink-free random parameter draw found")
    return model, batch, [target]


def test_criterion_05_gradient_check():
    h = 1e-4
    worst = 0.0
    t0 = time.time()
    for seed in range(20):
        model, batch, targets = _fd_case(seed)
        _, grads = batch_loss_and_grads(model, batch, targets)
        for name in sorted(model.params):
            flat = model.params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = batch_loss_and_grads(model, batch, targets)[0]
                flat[i] = orig - h
                lm = batch_loss_and_grads(model, batch, targets)[0]
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, err)
    ok = worst <= 1e-4
    assert report(5, ok, f"20 (params, graph) pairs, every coordinate; "
                         f"worst relative error {worst:.2e} (<=1e-4), "
                         f"{time.time() - t0:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: metric fixtures, exact to 1e-12
# ---------------------------------------------------------------------------

def test_criterion_06_metric_fixtures():
    checks = [
        abs(primal_dual_gap(5.0, 5.0) - 0.0) <= 1e-12,
        abs(primal_dual_gap(2.0, 1.0) - 0.5) <= 1e-12,
        primal_dual_gap(1.0, -1.0) == 1.0,
        abs(primal_dual_integral([(2.0, 2.0, 1.0)], 4.0) - 3.0) <= 1e-12,
        abs(primal_dual_integral([(0.0, 7.0, 7.0)], 10.0) - 0.0) <= 1e-12,
        abs(primal_dual_integral([], 10.0) - 10.0) <= 1e-12,
        primal_gap(5.0, 5.0) == 0.0,
        abs(primal_gap(8.0, 5.0) - 3.0) <= 1e-12,
    ]
    assert report(6, all(checks), f"{sum(checks)}/8 hand-computed fixtures exact")


# ---------------------------------------------------------------------------
# criterion 8 pipeline (session fixture, shared with 7, 9, 10)
# ---------------------------------------------------------------------------

TRAIN_SEED = 81000
TEST_SEED = 82000
PIPELINE_PARAMS = {}  # spec desk-scale defaults: 100x200, density 0.05

EVAL_DIVERS = ("l2dive", "fractional", "coefficient", "linesearch",
               "vectorlength", "pseudocost", "lower", "upper", "random")


def run_pipeline(root):
    generate_batch("set-cover", 200, TRAIN_SEED, root / "train_inst",
                   params=PIPELINE_PARAMS)
    generate_batch("set-cover", 100, TEST_SEED, root / "test_inst",
                   params=PIPELINE_PARAMS)
    ccfg = CollectConfig(node_limit=1200, pool_capacity=10, jobs=JOBS)
    collect_corpus(root / "train_inst", root / "train_corpus", ccfg)
    collect_corpus(root / "test_inst", root / "test_corpus", ccfg)
    train_report = train_from_corpus(
        root / "train_corpus", root / "model.npz",
        TrainingConfig(epochs=100, batch_size=16, lr=1e-3, seed=0),
        val_fraction=0.2, hidden=64, jobs=JOBS,
    )
    dcfg = DiveEvalConfig(divers=EVAL_DIVERS, d_max=100, seed=0, jobs=JOBS,
                          model_path=str(root / "model.npz"))
    dive_report = eval_dives(root / "test_corpus", dcfg, root / "dive_out")
    return train_report, dive_report


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    t0 = time.time()
    train_report, dive_report = run_pipeline(root)
    return {"root": root, "train": train_report, "dive": dive_report,
            "elapsed": time.time() - t0}


# ---------------------------------------------------------------------------
# criterion 7: dive soundness and shared budgets
# ---------------------------------------------------------------------------

def test_criterion_07_dive_soundness(pipeline):
    d_max = 100
    n_dives = 0
    unsound = 0
    depth_violations = 0
    baselines = ("fractional", "coefficient", "linesearch", "vectorlength",
                 "pseudocost", "lower", "upper", "random")
    mk = [
        lambda s: GeneratorConfig("set-cover", seed=1100 + s, rows=40, cols=50,
                                  density=0.12, max_cost=5),
        lambda s: GeneratorConfig("comb-auction", seed=1100 + s, items=15, bids=30),
        lambda s: GeneratorConfig("indep-set", seed=1100 + s, nodes=25, affinity=3),
        lambda s: GeneratorConfig("facility-location", seed=1100 + s,
                                  customers=5, facilities=4),
    ]
    for s in range(24):
        inst = generate(mk[s % 4](s))
        for name in baselines:
            res = dive(inst, make_scorer(name, seed=s), d_max=d_max)
            n_dives += 1
            depth_violations += res.depth_reached > d_max
            unsound += sum(0 if reference_feasible(inst, x) else 1
                           for x in res.solutions)
    # the learned diver joins on the trained corpus's family
    model = load_model(pipeline["root"] / "model.npz")
    entries = load_corpus(pipeline["root"] / "test_corpus")[:8]
    for e in entries:
        inst = read_instance(e["instance_path"])
        res = dive(inst, make_scorer("l2dive", model=model), d_max=d_max)
        n_dives += 1
        depth_violations += res.depth_reached > d_max
        unsound += sum(0 if reference_feasible(inst, x) else 1
                       for x in res.solutions)
    ok = n_dives >= 200 and unsound == 0 and depth_violations == 0
    assert report(7, ok, f"{n_dives} dives across all divers at d_max={d_max}: "
                         f"{unsound} unsound solutions, {depth_violations} depth "
                         f"violations (independent checker)")


# ---------------------------------------------------------------------------
# criterion 8: scaled ordering experiment
# ---------------------------------------------------------------------------

def test_criterion_08_ordering(pipeline):
    summary = {row[0]: row for row in pipeline["dive"]["summary_rows"]}
    means = {name: summary[name][4] for name in summary}
    fails = {name: summary[name][3] for name in summary}
    trivial = ("lower", "upper", "random")
    hard_ok = all(means["l2dive"] <= means[t] for t in trivial)
    heuristics = ("fractional", "coefficient", "linesearch", "vectorlength", "pseudocost")
    best_heur = min(means[h] for h in heuristics)
    soft_ok = means["l2dive"] <= 1.1 * best_heur
    detail = (
        f"mean primal gap l2dive={means['l2dive']:.2f} vs trivial "
        f"lower={means['lower']:.2f} upper={means['upper']:.2f} "
        f"random={means['random']:.2f}; failures per diver "
        f"{ {k: fails[k] for k in sorted(fails)} }; "
        f"best heuristic {best_heur:.2f}; pipeline {pipeline['elapsed']:.0f}s"
    )
    if not soft_ok:
        print(f"[NOTE] criterion 8 soft assertion not met (reported, non-fatal): "
              f"l2dive {means['l2dive']:.2f} > 1.1 x best heuristic {best_heur:.2f}")
    assert report(8, hard_ok, detail)


# ---------------------------------------------------------------------------
# criterion 9: training sanity
# ---------------------------------------------------------------------------

def test_criterion_09_training_sanity(pipeline):
    header, rows = read_csv_rows(pipeline["train"]["history"])
    first = float(rows[0][1])
    best = pipeline["train"]["best_val"]
    losses = [float(r[1]) for r in rows] + [
        float(r[2]) for r in rows if r[2] != "nan"
    ]
    nonneg = all(v >= -1e-9 for v in losses)
    decreased = best <= 0.5 * first
    ok = nonneg and decreased
    assert report(9, ok, f"loss {first:.2f} -> best {best:.2f} "
                         f"({100 * (1 - best / first):.0f}% decrease, need >=50%); "
                         f"all losses nonnegative: {nonneg}")


# ---------------------------------------------------------------------------
# criterion 10: determinism (byte-identical reruns of criteria 3 and 8)
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(pipeline, criterion3_run, tmp_path_factory):
    out3_first, _, _ = criterion3_run
    redo3 = tmp_path_factory.mktemp("crit10") / "bnb_oracle.csv"
    run_criterion3(redo3)
    same3 = out3_first.read_bytes() == redo3.read_bytes()

    root2 = tmp_path_factory.mktemp("pipeline2")
    run_pipeline(root2)
    root1 = pipeline["root"]
    comparisons = []
    for rel in ("dive_out/dives_per_instance.csv", "dive_out/dives_summary.csv",
                "model.npz.history.csv"):
        comparisons.append((rel, (root1 / rel).read_bytes() == (root2 / rel).read_bytes()))
    same8 = all(ok for _, ok in comparisons)
    ok = same3 and same8
    assert report(
        10, ok,
        f"criterion-3 CSV byte-identical: {same3}; criterion-8 reruns "
        f"{[(rel, res) for rel, res in comparisons]}",
    )
