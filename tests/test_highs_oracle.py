"""Differential tests against HiGHS (scipy's ``linprog``/``milp``) at the
instance sizes the pipeline uses.

Root LPs of every family at default generator size, one facility-location
variant whose demand rows are equalities, warm resolves (the dual simplex
path) after one branching bound change, after several tightenings at once
and after a tightening that leaves no feasible point, all of these again
under Bland's rule, and proven branch-and-bound optima on small instances,
the equality variant among them.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from divekit import simplex
from divekit.bnb import OPTIMAL_PROVEN, SolveConfig, branch_and_bound
from divekit.instances import (
    FAMILIES,
    INF_BOUND,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    GeneratorConfig,
    generate,
    to_standard_form,
)
from divekit.simplex import (
    DUAL_GAP_TOL,
    check_complementary_slackness,
    dual_objective,
    solve_lp,
)

LP_REL_TOL = 1e-7  # objective vs HiGHS, relative to 1 + |z|
MILP_REL_TOL = 1e-9  # proven optimum vs milp run with a zero gap
HIGHS_STATUS = {0: simplex.OPTIMAL, 2: simplex.INFEASIBLE}


def close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(b))


def highs_lp(lp, lower, upper):
    bounds = [(lo if lo > -INF_BOUND else None, hi if hi < INF_BOUND else None)
              for lo, hi in zip(lower, upper)]
    res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=bounds, method="highs")
    return HIGHS_STATUS.get(res.status, res.message), res.fun


def demand_rows_equal(inst):
    eq = np.array([name.startswith("demand_") for name in inst.row_names])
    assert eq.any()
    return dataclasses.replace(inst, senses=np.where(eq, SENSE_EQ, inst.senses))


# (family, seed, demand rows as equalities)
ROOTS = [(fam, seed, False) for fam in FAMILIES for seed in (0, 1)]
ROOTS.append(("facility-location", 0, True))


@pytest.fixture(scope="module", params=ROOTS,
                ids=lambda p: f"{p[0]}-{p[1]}" + ("-eq" if p[2] else ""))
def root(request):
    fam, seed, equalities = request.param
    inst = generate(GeneratorConfig(fam, seed=seed))
    if equalities:
        inst = demand_rows_equal(inst)
    lp = to_standard_form(inst)
    return inst, lp, solve_lp(lp)


def test_root_lp_matches_highs(root):
    _, lp, sol = root
    status, z_ref = highs_lp(lp, lp.lb, lp.ub)
    assert status == sol.status == simplex.OPTIMAL
    assert close(sol.objective, z_ref, LP_REL_TOL)
    assert close(dual_objective(sol.duals, lp), sol.objective, DUAL_GAP_TOL)
    assert check_complementary_slackness(sol.x, sol.duals, lp)["holds"]


@pytest.mark.parametrize("side", ["down", "up"])
def test_warm_resolve_matches_highs(root, side):
    """One branching bound on the most fractional integer variable that can
    move that way; on an integral root the change cuts off its value."""
    inst, lp, sol = root
    x = sol.x[: inst.n]
    frac = np.abs(x - np.round(x))
    room = x > inst.lb + 1e-6 if side == "down" else x < inst.ub - 1e-6
    j = int(np.argmax(np.where(inst.integer & room, frac, -1.0)))
    assert inst.integer[j] and room[j]
    lower, upper = lp.lb.copy(), lp.ub.copy()
    if side == "down":
        upper[j] = np.ceil(x[j] - 1e-6) - 1.0
    else:
        lower[j] = np.floor(x[j] + 1e-6) + 1.0
    warm = solve_lp(lp, warm=sol.basis, lower=lower, upper=upper)
    status, z_ref = highs_lp(lp, lower, upper)
    assert warm.status == status
    if status == simplex.OPTIMAL:
        assert close(warm.objective, z_ref, LP_REL_TOL)


@pytest.mark.parametrize("k", [4, 12])
def test_multi_variable_tightening_matches_highs(root, k):
    """The ``k`` most fractional integer variables tightened at once, each
    toward its nearest integer, as a learned dive's tighten set moves them."""
    inst, lp, sol = root
    x = sol.x[: inst.n]
    frac = np.abs(x - np.round(x))
    order = np.argsort(-np.where(inst.integer, frac, -1.0), kind="stable")[:k]
    lower, upper = lp.lb.copy(), lp.ub.copy()
    for j in order:
        target = float(np.clip(np.round(x[j]), inst.lb[j], inst.ub[j]))
        if target >= x[j]:
            lower[j] = target
        if target <= x[j]:
            upper[j] = target
    warm = solve_lp(lp, warm=sol.basis, lower=lower, upper=upper)
    status, z_ref = highs_lp(lp, lower, upper)
    assert warm.status == status
    if status == simplex.OPTIMAL:
        assert close(warm.objective, z_ref, LP_REL_TOL)
        assert close(dual_objective(warm.duals, lp, lower, upper), warm.objective,
                     DUAL_GAP_TOL)
        assert check_complementary_slackness(warm.x, warm.duals, lp,
                                             lower=lower, upper=upper)["holds"]


def infeasible_row_tightening(inst, lp):
    """Bounds that pin every variable of one row at the end that works
    against it, so the row cannot hold: the first row whose variables all
    have finite bounds and whose best activity misses its right-hand side."""
    A = inst.A.tocsr()
    for i in range(inst.m):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        if not np.all(np.isfinite(inst.lb[cols]) & np.isfinite(inst.ub[cols])):
            continue
        lower, upper = lp.lb.copy(), lp.ub.copy()
        # the end each variable is pinned at: the one that lowers the row
        # activity for a GE row, the one that raises it for an LE row
        lowers = (vals > 0) == (inst.senses[i] != SENSE_LE)
        pinned = np.where(lowers, inst.lb[cols], inst.ub[cols])
        lower[cols] = upper[cols] = pinned
        act = float(vals @ pinned)
        if (inst.senses[i] != SENSE_LE and act < inst.b[i] - 0.5) or \
                (inst.senses[i] != SENSE_GE and act > inst.b[i] + 0.5):
            return lower, upper
    raise AssertionError("no row can be made infeasible by its bounds")


def test_infeasible_tightening_matches_highs(root):
    inst, lp, sol = root
    lower, upper = infeasible_row_tightening(inst, lp)
    warm = solve_lp(lp, warm=sol.basis, lower=lower, upper=upper)
    status, _ = highs_lp(lp, lower, upper)
    assert warm.status == status == simplex.INFEASIBLE
    assert warm.x is None and warm.duals is None


def test_blands_rule_matches_highs(root, monkeypatch):
    """With Bland's rule from the first stalled pivot on, the root and every
    warm resolve above still meet HiGHS and their certificates."""
    monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
    bland = []
    real = simplex._Solver.solution

    def solution(self, status):
        bland.append(self.bland)
        return real(self, status)

    monkeypatch.setattr(simplex._Solver, "solution", solution)
    inst, lp, _ = root
    root = (inst, lp, solve_lp(lp))
    test_root_lp_matches_highs(root)
    for side in ("down", "up"):
        test_warm_resolve_matches_highs(root, side)
    for k in (4, 12):
        test_multi_variable_tightening_matches_highs(root, k)
    test_infeasible_tightening_matches_highs(root)
    # the rule ran in the cold root's primal loop and in the dual phase that
    # proves the last tightening infeasible
    assert len(bland) == 6 and bland[0] and bland[-1]


SMALL = {
    "set-cover": dict(rows=15, cols=30, density=0.15),
    "comb-auction": dict(items=10, bids=20),
    "facility-location": dict(customers=4, facilities=3),
    "indep-set": dict(nodes=20, affinity=2),
}


def highs_milp(inst):
    lo = np.where(inst.senses == SENSE_LE, -np.inf, inst.b)
    hi = np.where(inst.senses == SENSE_GE, np.inf, inst.b)
    res = milp(inst.c, integrality=inst.integer.astype(np.int64),
               bounds=Bounds(inst.lb, inst.ub), constraints=LinearConstraint(inst.A, lo, hi),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return res.fun


# (family, seed, demand rows as equalities)
BNB_CASES = [(fam, seed, False) for seed in (0, 1) for fam in FAMILIES]
BNB_CASES.append(("facility-location", 0, True))


@pytest.mark.parametrize("fam,seed,equalities", BNB_CASES,
                         ids=[f"{s}-{f}" + ("-eq" if e else "") for f, s, e in BNB_CASES])
def test_bnb_optimum_matches_milp(fam, seed, equalities):
    inst = generate(GeneratorConfig(fam, seed=seed, **SMALL[fam]))
    if equalities:
        inst = demand_rows_equal(inst)
    res = branch_and_bound(inst, SolveConfig())
    assert res.status == OPTIMAL_PROVEN
    assert close(res.objective, highs_milp(inst), MILP_REL_TOL)
