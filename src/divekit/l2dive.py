"""Duality-guided learned diver.

At test time the generative model predicts a candidate assignment once per
dive.  Each iteration computes, from the freshest LP duals, the set of
variables whose bound-slackness products are violated against the predicted
assignment; those variables are tightened first (their indicator dominates
the score), ties broken by model confidence.  Tightening a variable of the
violation set exactly reproduces the bound updates that make a feasible
point LP-optimal, which is what ``verify_tightening_optimality`` checks directly.

Sign conventions: with ``y_lb >= 0`` and ``y_ub <= 0``, a violated
slackness product is *positive* on both the lower side ((x - lb) y_lb > 0)
and the upper side ((x - ub) y_ub > 0, two nonpositive factors), so both
sets test for a positive product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diving import ScoreDecision
from .graphnet import GraphNet, extract_graph
from .instances import INT_TOL, MilpInstance, fractionality, to_standard_form
from . import simplex
from .simplex import DualValues, bound_slackness, solve_lp

SLACK_TOL = 1e-7
#: how close the re-solved optimum must come to the point's objective
OBJ_TOL = 1e-6


class MissingDuals(RuntimeError):
    """The last LP solve was not optimal, so no duals are available."""


@dataclass
class TightenSet:
    lower: np.ndarray  # raise the lower bound of these to the target value
    upper: np.ndarray  # cap the upper bound of these at the target value

    @property
    def union(self) -> np.ndarray:
        return np.union1d(self.lower, self.upper)


def slackness_violations(x, duals: DualValues, lb, ub, tol=SLACK_TOL):
    """Masks of columns whose lower/upper bound-slackness products are
    violated by the point ``x`` against the duals."""
    lo_term, hi_term = bound_slackness(x, duals, lb, ub)
    return lo_term > tol, hi_term > tol


def compute_tighten_set(xhat, duals: DualValues, lb, ub, cands,
                        tol=SLACK_TOL) -> TightenSet:
    """Violation sets restricted to the candidate variables.

    ``xhat`` holds the predicted value per entry of ``cands``; columns
    outside the candidate set are ignored.
    """
    if duals is None:
        raise MissingDuals("tighten set needs duals from an optimal LP solve")
    cands = np.asarray(cands, dtype=np.int64)
    xhat = np.asarray(xhat, dtype=np.float64)
    duals_c = DualValues(y_b=duals.y_b, y_lb=duals.y_lb[cands], y_ub=duals.y_ub[cands])
    lo_mask, hi_mask = slackness_violations(
        xhat, duals_c, np.asarray(lb)[cands], np.asarray(ub)[cands], tol
    )
    return TightenSet(lower=cands[lo_mask], upper=cands[hi_mask])


class L2DiveScorer:
    """Score = model confidence in the predicted value, plus 1 when the
    variable currently violates slackness against the prediction.

    The prediction (the model's mode) is computed once at dive start and
    never changes within the dive; the violation set is recomputed from the
    duals of the most recent resolve.  Selection considers the moves that
    actually constrain the diving LP: violation-set members and fractional
    candidates (a candidate already integral at its predicted value is a
    no-op and would only burn diving depth).  Direction: a prediction above
    the LP value raises the lower bound to it, below caps the upper bound,
    equal fixes both.
    """

    def __init__(self, model: GraphNet):
        self.model = model
        self._values = None
        self._probs = None
        self._pos = None  # per variable: its index in the prediction, or -1

    def begin_dive(self, ctx):
        graph = extract_graph(ctx.inst, ctx.root)
        self._values, self._probs = self.model.predict(graph)
        self._pos = np.full(ctx.inst.n, -1, dtype=np.int64)
        self._pos[graph.candidates] = np.arange(graph.candidates.size)

    def __call__(self, ctx):
        if ctx.sol.duals is None:
            raise MissingDuals("l2dive scoring needs duals of the current LP")
        cands = ctx.cands
        pos = self._pos[cands]
        known = pos >= 0
        if not known.any():
            return None
        cands = cands[known]
        pos = pos[known]
        xhat = np.clip(self._values[pos], ctx.lo[cands], ctx.hi[cands])
        tset = compute_tighten_set(xhat, ctx.sol.duals, ctx.lo, ctx.hi, cands)
        in_j = np.isin(cands, tset.union)
        frac = fractionality(ctx.sol.x[cands]) > INT_TOL
        # only moves that change the diving LP: slackness violations and
        # fractional candidates; a variable already at its predicted value
        # would burn depth without constraining anything
        effective = in_j | frac
        if not effective.any():
            return None
        score = np.where(effective, self._probs[pos] + in_j, -np.inf)
        k = int(np.argmax(score))
        j = int(cands[k])
        target = float(np.round(xhat[k]))
        current = float(ctx.sol.x[j])
        if abs(target - current) <= INT_TOL:
            return ScoreDecision(j, new_lower=target, new_upper=target)
        if target > current:
            return ScoreDecision(j, new_lower=target, new_upper=None)
        return ScoreDecision(j, new_lower=None, new_upper=target)


def verify_tightening_optimality(inst: MilpInstance, x_tilde) -> dict:
    """Check that tightening exactly the slackness-violation set of a
    feasible point makes that point LP-optimal.

    Solves the relaxation, extends ``x_tilde`` with its logical values,
    computes the violation sets over *all* columns (logicals included),
    tightens those bounds, re-solves, and reports whether the point stays
    feasible and the re-solved optimum matches its objective.
    """
    lp = to_standard_form(inst)
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    root = solve_lp(lp)
    if root.status != simplex.OPTIMAL:
        raise RuntimeError(f"root LP not optimal: {root.status}")
    x_full = lp.full_point(x_tilde)
    lo_mask, hi_mask = slackness_violations(x_full, root.duals, lp.lb, lp.ub)
    lo2 = lp.lb.copy()
    hi2 = lp.ub.copy()
    lo2[lo_mask] = x_full[lo_mask]
    hi2[hi_mask] = x_full[hi_mask]
    feasible = bool(
        np.all(lo2 <= x_full + 1e-9) and np.all(x_full <= hi2 + 1e-9)
    )
    tightened = solve_lp(lp, warm=root.basis, lower=lo2, upper=hi2)
    target = float(inst.c @ x_tilde)
    match = (
        tightened.status == simplex.OPTIMAL
        and abs(tightened.objective - target) <= OBJ_TOL
    )
    return {
        "n_lower": int(lo_mask.sum()),
        "n_upper": int(hi_mask.sum()),
        "feasible_in_tightened": feasible,
        "tightened_status": tightened.status,
        "tightened_objective": float(tightened.objective),
        "target_objective": target,
        "objective_match": bool(match),
        "holds": bool(feasible and match),
    }
