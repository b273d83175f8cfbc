"""Generic diving engine with pluggable variable scorers.

A dive repeatedly picks one candidate variable, tightens one of its bounds
to an integral target, re-solves the LP (warm-started), and tries to round
the new LP point into a feasible solution.  It stops on LP infeasibility,
the depth limit, an LP iteration limit, an integral LP, an objective
cutoff, or a numerical LP failure, which ends only this dive.  Every
recorded solution is re-checked against the original instance, so bound
tightenings never leak unsound solutions.

Scorers only decide *which* variable and *which* bound; the engine owns the
loop.  Stateful scorers (pseudocost, the learned diver) get ``begin_dive``
and ``observe`` callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bnb import compute_locks, round_solution
from .instances import INT_TOL, MilpInstance, StandardLp, to_standard_form
from . import simplex
from .simplex import LpSolution, SimplexError, solve_lp

TERM_INFEASIBLE = "infeasible"
TERM_DEPTH = "depth_limit"
TERM_ITER = "iter_limit"
TERM_INTEGRAL = "integral"
TERM_CUTOFF = "cutoff"
TERM_LP_ERROR = "lp_error"

DEFAULT_DEPTH = 100


class DiveError(RuntimeError):
    """A scorer violated its contract (no decision on a divable candidate set)."""


@dataclass
class ScoreDecision:
    """Tighten ``var``: raise its lower bound to ``new_lower`` and/or cap its
    upper bound at ``new_upper`` (both set = fix)."""

    var: int
    new_lower: float | None
    new_upper: float | None
    score: float = 0.0


@dataclass
class DiveContext:
    inst: MilpInstance
    lp: StandardLp
    lo: np.ndarray  # full column bounds, including slacks
    hi: np.ndarray
    sol: LpSolution
    root: LpSolution
    cands: np.ndarray
    depth: int
    d_max: int
    lp_iter_limit: int | None
    cutoff: float | None
    locks: tuple
    degrees: np.ndarray


@dataclass
class DiveResult:
    solutions: list = field(default_factory=list)
    best_z: float = np.inf
    depth_reached: int = 0
    termination: str = TERM_DEPTH
    lp_iterations: int = 0


def _fractional(values, tol=INT_TOL):
    return np.abs(values - np.floor(values + 0.5)) > tol


def _integral_on(x, idx, tol=INT_TOL):
    if idx.size == 0:
        return True
    xi = x[idx]
    return float(np.max(np.abs(xi - np.round(xi)))) <= tol


def dive(
    inst: MilpInstance,
    scorer,
    d_max: int = DEFAULT_DEPTH,
    lp_iter_limit: int | None = None,
    cutoff: float | None = None,
    lp: StandardLp | None = None,
    root_sol: LpSolution | None = None,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> DiveResult:
    """Run one dive from the (root or node) LP optimum under ``scorer``, within
    copies of the full-column bounds ``lower``/``upper`` (default: ``lp``'s)."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    n = inst.n
    if lp is None:
        lp = to_standard_form(inst)
    lo = (lp.lb if lower is None else lower).copy()
    hi = (lp.ub if upper is None else upper).copy()
    iters = 0
    if root_sol is None:
        try:
            root_sol = solve_lp(lp, lower=lo, upper=hi)
        except SimplexError:
            return DiveResult(termination=TERM_LP_ERROR)
        iters += root_sol.iterations
    if root_sol.status != simplex.OPTIMAL:
        return DiveResult(termination=TERM_INFEASIBLE, lp_iterations=iters)

    locks = compute_locks(inst)
    degrees = np.diff(inst.A.tocsc().indptr).astype(np.int64)
    cands = np.flatnonzero(inst.divable & (lo[:n] + INT_TOL < hi[:n]))
    int_idx = inst.integer_index
    ctx = DiveContext(
        inst=inst, lp=lp, lo=lo, hi=hi, sol=root_sol, root=root_sol,
        cands=cands, depth=0, d_max=d_max, lp_iter_limit=lp_iter_limit,
        cutoff=cutoff, locks=locks, degrees=degrees,
    )
    if hasattr(scorer, "begin_dive"):
        scorer.begin_dive(ctx)

    result = DiveResult()
    seen: set[bytes] = set()
    div_idx = inst.divable_index

    def record(x):
        x = np.asarray(x, dtype=np.float64).copy()
        xi = x[int_idx]
        x[int_idx] = np.round(xi)
        if not inst.is_feasible(x):
            return
        key = x[div_idx].astype(np.int64).tobytes()
        if key in seen:
            return
        seen.add(key)
        result.solutions.append(x)
        result.best_z = min(result.best_z, float(inst.c @ x))

    def try_round(x):
        y = round_solution(x, inst, locks)
        if y is not None:
            record(y)

    x = root_sol.x[:n]
    if _integral_on(x, int_idx):
        record(x)
        result.termination = TERM_INTEGRAL
        result.lp_iterations = iters
        return result
    try_round(x)

    d = 1
    result.termination = TERM_DEPTH
    while d <= d_max:
        if ctx.cands.size == 0:
            result.termination = TERM_INTEGRAL
            break
        decision = scorer(ctx)
        if decision is None:
            if np.any(_fractional(ctx.sol.x[ctx.cands])):
                raise DiveError(
                    f"scorer {scorer!r} returned no decision on a fractional candidate set"
                )
            result.termination = TERM_INTEGRAL
            break
        j = int(decision.var)
        if j not in ctx.cands:
            raise DiveError(f"scorer picked non-candidate variable {j}")
        old_x = float(ctx.sol.x[j])
        old_z = float(ctx.sol.objective)
        target = None
        if decision.new_lower is not None:
            target = decision.new_lower
            lo[j] = min(max(decision.new_lower, lo[j]), hi[j])
        if decision.new_upper is not None:
            target = decision.new_upper if target is None else target
            hi[j] = max(min(decision.new_upper, hi[j]), lo[j])
        result.depth_reached = d
        try:
            sol = solve_lp(lp, warm=ctx.sol.basis, lower=lo, upper=hi,
                           iter_limit=lp_iter_limit)
        except SimplexError:
            result.termination = TERM_LP_ERROR
            break
        iters += sol.iterations
        if sol.status == simplex.INFEASIBLE:
            result.termination = TERM_INFEASIBLE
            break
        if sol.status != simplex.OPTIMAL:
            result.termination = TERM_ITER
            break
        if hasattr(scorer, "observe"):
            moved = max(abs(float(target) - old_x), 1e-6) if target is not None else 1e-6
            scorer.observe(j, target is not None and float(target) > old_x,
                           moved, max(sol.objective - old_z, 0.0))
        ctx.sol = sol
        ctx.depth = d
        if cutoff is not None and sol.objective > cutoff + 1e-9:
            result.termination = TERM_CUTOFF
            break
        x = sol.x[:n]
        try_round(x)
        if _integral_on(x, int_idx):
            record(x)
            result.termination = TERM_INTEGRAL
            break
        d += 1
        ctx.cands = ctx.cands[lo[ctx.cands] + INT_TOL < hi[ctx.cands]]

    result.lp_iterations = iters
    return result


# ---------------------------------------------------------------------------
# baseline scorers
# ---------------------------------------------------------------------------

def _frac_candidates(ctx):
    x = ctx.sol.x
    c = ctx.cands
    vals = x[c]
    rounded = np.floor(vals + 0.5)
    frac = np.abs(vals - rounded)
    mask = frac > INT_TOL
    return c[mask], vals[mask], rounded[mask], frac[mask]


def _step_decision(j, value, rounded, frac, score):
    # tighten toward the round-half-up nearest integer
    if rounded > value:
        return ScoreDecision(var=int(j), new_lower=float(np.ceil(value)),
                             new_upper=None, score=score)
    return ScoreDecision(var=int(j), new_lower=None,
                         new_upper=float(np.floor(value)), score=score)


class FractionalScorer:
    """Lowest fractionality |x - round(x)|, bound toward the nearest integer."""

    def __call__(self, ctx):
        cands, vals, rounded, frac = _frac_candidates(ctx)
        if cands.size == 0:
            return None
        k = int(np.argmin(frac))
        return _step_decision(cands[k], vals[k], rounded[k], frac[k], -float(frac[k]))


class CoefficientScorer:
    """Minimal positive up/down lock count, direction of the smaller count;
    ties fall back to fractional diving."""

    def __call__(self, ctx):
        cands, vals, rounded, frac = _frac_candidates(ctx)
        if cands.size == 0:
            return None
        up, down = ctx.locks
        lockmin = np.minimum(up[cands], down[cands]).astype(np.float64)
        k = int(np.lexsort((frac, lockmin))[0])
        j = cands[k]
        if up[j] < down[j]:
            return ScoreDecision(int(j), float(np.ceil(vals[k])), None, -float(lockmin[k]))
        if down[j] < up[j]:
            return ScoreDecision(int(j), None, float(np.floor(vals[k])), -float(lockmin[k]))
        return _step_decision(j, vals[k], rounded[k], frac[k], -float(lockmin[k]))


class LinesearchScorer:
    """First floor/ceiling hyperplane hit by the ray from the dive-root LP
    point through the current one; falls back to fractional diving when the
    ray is degenerate."""

    def __init__(self):
        self._fallback = FractionalScorer()

    def __call__(self, ctx):
        cands, vals, rounded, frac = _frac_candidates(ctx)
        if cands.size == 0:
            return None
        root = ctx.root.x[cands]
        delta = vals - root
        t = np.full(cands.size, np.inf)
        up_move = delta > 1e-9
        dn_move = delta < -1e-9
        t[up_move] = (np.ceil(vals[up_move]) - root[up_move]) / delta[up_move]
        t[dn_move] = (np.floor(vals[dn_move]) - root[dn_move]) / delta[dn_move]
        if not np.isfinite(t).any():
            return self._fallback(ctx)
        k = int(np.argmin(t))
        j = cands[k]
        if up_move[k]:
            return ScoreDecision(int(j), float(np.ceil(vals[k])), None, -float(t[k]))
        return ScoreDecision(int(j), None, float(np.floor(vals[k])), -float(t[k]))


class VectorlengthScorer:
    """Smallest objective-delta-per-covered-row ratio over both directions."""

    EPS = 1e-9

    def __call__(self, ctx):
        cands, vals, rounded, frac = _frac_candidates(ctx)
        if cands.size == 0:
            return None
        c = ctx.inst.c[cands]
        deg = np.maximum(ctx.degrees[cands], 1).astype(np.float64)
        up_delta = c * (np.ceil(vals) - vals)
        dn_delta = c * (np.floor(vals) - vals)
        r_up = (np.maximum(up_delta, 0.0) + self.EPS) / deg
        r_dn = (np.maximum(dn_delta, 0.0) + self.EPS) / deg
        best_dir_dn = r_dn <= r_up
        best = np.where(best_dir_dn, r_dn, r_up)
        k = int(np.argmin(best))
        j = cands[k]
        if best_dir_dn[k]:
            return ScoreDecision(int(j), None, float(np.floor(vals[k])), -float(best[k]))
        return ScoreDecision(int(j), float(np.ceil(vals[k])), None, -float(best[k]))


class PseudocostScorer:
    """Running average of observed LP degradation per unit moved, kept per
    variable and direction across the dives of this scorer instance; the
    cold-start estimate is |c_j|."""

    def __init__(self):
        self.stats = {}  # (var, up?) -> [sum, count]

    def estimate(self, ctx, j, up):
        rec = self.stats.get((int(j), bool(up)))
        if rec is None or rec[1] == 0:
            return abs(float(ctx.inst.c[j]))
        return rec[0] / rec[1]

    def observe(self, j, up, moved, degradation):
        rec = self.stats.setdefault((int(j), bool(up)), [0.0, 0])
        rec[0] += degradation / moved
        rec[1] += 1

    def __call__(self, ctx):
        cands, vals, rounded, frac = _frac_candidates(ctx)
        if cands.size == 0:
            return None
        cost_up = np.array([self.estimate(ctx, j, True) for j in cands]) * (np.ceil(vals) - vals)
        cost_dn = np.array([self.estimate(ctx, j, False) for j in cands]) * (vals - np.floor(vals))
        go_dn = cost_dn <= cost_up
        best = np.where(go_dn, cost_dn, cost_up)
        k = int(np.argmin(best))
        j = cands[k]
        if go_dn[k]:
            return ScoreDecision(int(j), None, float(np.floor(vals[k])), -float(best[k]))
        return ScoreDecision(int(j), float(np.ceil(vals[k])), None, -float(best[k]))


class _FixScorer:
    """Fix the lowest-index unfixed candidate to one of its bounds."""

    def _fix(self, ctx, j, at_lower):
        j = int(j)
        if at_lower:
            v = float(ctx.lo[j])
        else:
            v = float(ctx.hi[j])
        if not np.isfinite(v):
            return None
        return ScoreDecision(var=j, new_lower=v, new_upper=v)


class LowerScorer(_FixScorer):
    def __call__(self, ctx):
        for j in ctx.cands:
            dec = self._fix(ctx, j, at_lower=True)
            if dec is not None:
                return dec
        return None


class UpperScorer(_FixScorer):
    def __call__(self, ctx):
        for j in ctx.cands:
            dec = self._fix(ctx, j, at_lower=False)
            if dec is not None:
                return dec
        return None


class RandomScorer(_FixScorer):
    """Fix the lowest-index candidate at its lower or upper bound with equal
    probability (seeded, reproducible)."""

    def __init__(self, seed=0):
        self.rng = np.random.default_rng(seed)

    def __call__(self, ctx):
        for j in ctx.cands:
            at_lower = bool(self.rng.random() < 0.5)
            dec = self._fix(ctx, j, at_lower=at_lower)
            if dec is None:
                dec = self._fix(ctx, j, at_lower=not at_lower)
            if dec is not None:
                return dec
        return None


def _l2dive(**kw):
    from .l2dive import l2dive_scorer  # l2dive imports this module

    return l2dive_scorer(**kw)


SCORERS = {
    "fractional": lambda **kw: FractionalScorer(),
    "coefficient": lambda **kw: CoefficientScorer(),
    "linesearch": lambda **kw: LinesearchScorer(),
    "vectorlength": lambda **kw: VectorlengthScorer(),
    "pseudocost": lambda **kw: PseudocostScorer(),
    "lower": lambda **kw: LowerScorer(),
    "upper": lambda **kw: UpperScorer(),
    "random": lambda seed=0, **kw: RandomScorer(seed=seed),
    "l2dive": _l2dive,
}

#: divers whose dives depend on the ``seed`` passed to ``make_scorer``
#: (``l2dive`` predicts the mode unless asked to sample)
SEEDED_SCORERS = frozenset({"random"})


def make_scorer(name: str, **kwargs):
    """Instantiate a registered scorer by name (see ``SCORERS``); extra
    keyword arguments are passed to the factory."""
    try:
        factory = SCORERS[name]
    except KeyError:
        raise KeyError(f"unknown diver {name!r}; registered: {sorted(SCORERS)}") from None
    return factory(**kwargs)

