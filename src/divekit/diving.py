"""Generic diving engine with pluggable variable scorers.

A dive repeatedly picks one candidate variable, tightens one of its bounds
to an integral target, re-solves the LP (warm-started), and tries to round
the new LP point into a feasible solution.  It stops when the LP turns
infeasible, at the depth limit, when a resolve hits the LP iteration limit,
when the LP point is integral on the integer variables or no candidate is
left, and on a numerical LP failure, which ends only this dive.  The dive's
first LP (the root or node optimum it starts from) and every resolve go
through one loop, and solutions enter only through ``round_solution``,
which checks each against the original instance, so bound tightenings
never leak unsound solutions; ``solution_key`` drops repeats.

Scorers only decide *which* variable and *which* bound; the engine owns the
loop and the resolve, and refuses a decision on a non-candidate or one that
bounds nothing.  A scorer sees a ``DiveContext``: the instance (whose locks
and column degrees ``MilpInstance.column_counts`` computes once), the
current bounds, the current and the dive-root LP solutions, and the
candidates.  Stateful scorers (pseudocost, the learned diver) get
``begin_dive`` and ``observe`` callbacks.

The five rounding divers (fractional, coefficient, linesearch, vectorlength,
pseudocost) share one rule, ``_RoundingScorer``: keep the candidates whose
``fractionality`` exceeds ``INT_TOL``, let the diver rank them to one
candidate and a direction, and either raise its lower bound to ``ceil(v)``
or cap its upper bound at ``floor(v)``.  Each diver holds only its ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bnb import round_solution
from .instances import INT_TOL, MilpInstance, StandardLp, fractionality, to_standard_form
from . import simplex
from .simplex import LpSolution, SimplexError, solve_lp

TERM_INFEASIBLE = "infeasible"
TERM_DEPTH = "depth_limit"
TERM_ITER = "iter_limit"
TERM_INTEGRAL = "integral"
TERM_LP_ERROR = "lp_error"

DEFAULT_DEPTH = 100


class DiveError(RuntimeError):
    """A scorer violated its contract: no decision on a fractional candidate
    set, or a decision on a non-candidate or one that bounds nothing."""


@dataclass
class ScoreDecision:
    """Tighten ``var``: raise its lower bound to ``new_lower`` and/or cap its
    upper bound at ``new_upper`` (both set = fix, at least one set)."""

    var: int
    new_lower: float | None
    new_upper: float | None


@dataclass
class DiveContext:
    inst: MilpInstance
    lo: np.ndarray  # full column bounds, including logicals
    hi: np.ndarray
    sol: LpSolution  # the current LP solution
    root: LpSolution  # the LP solution the dive started from
    cands: np.ndarray  # divable variables whose bounds are not yet equal


@dataclass
class DiveResult:
    solutions: list = field(default_factory=list)
    best_z: float = np.inf
    depth_reached: int = 0
    termination: str = TERM_DEPTH
    lp_iterations: int = 0


def dive(
    inst: MilpInstance,
    scorer,
    d_max: int = DEFAULT_DEPTH,
    lp_iter_limit: int | None = None,
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

    ctx = DiveContext(inst=inst, lo=lo, hi=hi, sol=root_sol, root=root_sol,
                      cands=inst.candidates(lo, hi))
    if hasattr(scorer, "begin_dive"):
        scorer.begin_dive(ctx)

    result = DiveResult()
    found: dict[bytes, np.ndarray] = {}  # solution_key -> solution, in order found
    d = 0
    while True:
        x = ctx.sol.x[:n]
        y = round_solution(x, inst)
        if y is not None:
            found.setdefault(inst.solution_key(y), y)
        if inst.is_integral(x):
            result.termination = TERM_INTEGRAL
            break
        if d == d_max:
            break
        decision = scorer(ctx) if ctx.cands.size else None
        if decision is None:
            if np.any(fractionality(ctx.sol.x[ctx.cands]) > INT_TOL):
                raise DiveError(
                    f"scorer {scorer!r} returned no decision on a fractional candidate set"
                )
            result.termination = TERM_INTEGRAL
            break
        j = int(decision.var)
        if j not in ctx.cands:
            raise DiveError(f"scorer picked non-candidate variable {j}")
        if decision.new_lower is None and decision.new_upper is None:
            raise DiveError(f"scorer decision on variable {j} bounds nothing")
        old_x = float(ctx.sol.x[j])
        old_z = float(ctx.sol.objective)
        target = float(decision.new_upper if decision.new_lower is None else decision.new_lower)
        if decision.new_lower is not None:
            lo[j] = min(max(decision.new_lower, lo[j]), hi[j])
        if decision.new_upper is not None:
            hi[j] = max(min(decision.new_upper, hi[j]), lo[j])
        d += 1
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
            scorer.observe(j, target > old_x, max(abs(target - old_x), 1e-6),
                           max(sol.objective - old_z, 0.0))
        ctx.sol = sol
        ctx.cands = inst.candidates(lo, hi)

    result.solutions = list(found.values())
    result.best_z = min((float(inst.c @ y) for y in result.solutions), default=np.inf)
    result.lp_iterations = iters
    return result


# ---------------------------------------------------------------------------
# baseline scorers
# ---------------------------------------------------------------------------

class _RoundingScorer:
    """The rounding rule of the generic divers: among the candidates that
    are fractional in the current LP point, ``pick(ctx, cands, vals, frac)``
    chooses a position ``k`` and a direction ``up`` (True to raise the lower
    bound to ``ceil(v)``, False to cap the upper bound at ``floor(v)``,
    None toward the round-half-up nearest integer); without a fractional
    candidate there is no decision.  The default pick is the least
    fractional candidate (the first on a tie), toward the nearest integer."""

    def __call__(self, ctx):
        vals = ctx.sol.x[ctx.cands]
        frac = fractionality(vals)
        keep = frac > INT_TOL
        if not keep.any():
            return None
        cands, vals, frac = ctx.cands[keep], vals[keep], frac[keep]
        k, up = self.pick(ctx, cands, vals, frac)
        v = vals[k]
        if up is None:
            up = np.floor(v + 0.5) > v
        if up:
            return ScoreDecision(int(cands[k]), float(np.ceil(v)), None)
        return ScoreDecision(int(cands[k]), None, float(np.floor(v)))

    def pick(self, ctx, cands, vals, frac):
        return int(np.argmin(frac)), None


class FractionalScorer(_RoundingScorer):
    """Lowest fractionality |x - round(x)|, bound toward the nearest integer."""


class CoefficientScorer(_RoundingScorer):
    """Minimal positive up/down lock count, direction of the smaller count;
    ties fall back to fractional diving."""

    def pick(self, ctx, cands, vals, frac):
        up, down, _ = ctx.inst.column_counts()
        lockmin = np.minimum(up[cands], down[cands])
        k = int(np.lexsort((frac, lockmin))[0])
        j = cands[k]
        return k, (up[j] < down[j] if up[j] != down[j] else None)


class LinesearchScorer(_RoundingScorer):
    """First floor/ceiling hyperplane hit by the ray from the dive-root LP
    point through the current one; falls back to fractional diving when the
    ray is degenerate."""

    def pick(self, ctx, cands, vals, frac):
        root = ctx.root.x[cands]
        delta = vals - root
        t = np.full(cands.size, np.inf)
        up_move = delta > 1e-9
        dn_move = delta < -1e-9
        t[up_move] = (np.ceil(vals[up_move]) - root[up_move]) / delta[up_move]
        t[dn_move] = (np.floor(vals[dn_move]) - root[dn_move]) / delta[dn_move]
        if not np.isfinite(t).any():
            return super().pick(ctx, cands, vals, frac)
        k = int(np.argmin(t))
        return k, bool(up_move[k])


class VectorlengthScorer(_RoundingScorer):
    """Smallest objective-delta-per-covered-row ratio over both directions."""

    EPS = 1e-9

    def pick(self, ctx, cands, vals, frac):
        c = ctx.inst.c[cands]
        deg = np.maximum(ctx.inst.column_counts()[2][cands], 1).astype(np.float64)
        r_up = (np.maximum(c * (np.ceil(vals) - vals), 0.0) + self.EPS) / deg
        r_dn = (np.maximum(c * (np.floor(vals) - vals), 0.0) + self.EPS) / deg
        best_dir_dn = r_dn <= r_up
        k = int(np.argmin(np.where(best_dir_dn, r_dn, r_up)))
        return k, not best_dir_dn[k]


class PseudocostScorer(_RoundingScorer):
    """Running average of observed LP degradation per unit moved, kept per
    variable and direction across the dives of this scorer instance; the
    cold-start estimate is |c_j|."""

    def __init__(self):
        # per variable and direction (column 1 is up): the summed degradation
        # per unit moved and the number of observations, sized at the first
        # pick
        self.sums = self.counts = None

    def estimate(self, ctx, j):
        """Mean observed degradation per unit moved of the variables ``j``,
        down (column 0) and up (column 1); |c_j| where none was observed."""
        count = self.counts[j]
        return np.where(count > 0, self.sums[j] / np.maximum(count, 1),
                        np.abs(ctx.inst.c[j])[:, None])

    def observe(self, j, up, moved, degradation):
        self.sums[j, int(up)] += degradation / moved
        self.counts[j, int(up)] += 1

    def pick(self, ctx, cands, vals, frac):
        if self.sums is None:
            self.sums = np.zeros((ctx.inst.c.size, 2))
            self.counts = np.zeros((ctx.inst.c.size, 2), dtype=np.int64)
        est = self.estimate(ctx, cands)
        cost_dn = est[:, 0] * (vals - np.floor(vals))
        cost_up = est[:, 1] * (np.ceil(vals) - vals)
        k = int(np.argmin(np.minimum(cost_dn, cost_up)))
        return k, cost_dn[k] > cost_up[k]


class FixAtBoundScorer:
    """Fix the first candidate whose chosen bound is finite at that bound:
    the lower one, the upper one, or (``random``) one of the two with equal
    probability.  When no candidate has a finite chosen bound, ``lower`` and
    ``upper`` fix at the other bound instead.  ``random`` draws one seeded
    coin per candidate, in order, up to the first candidate with any finite
    bound, and falls back to that candidate's other bound when the coin
    picks an infinite one.  Only when every candidate is free is there no
    decision."""

    def __init__(self, bound, seed=0):
        self.bound = bound
        self.rng = np.random.default_rng(seed) if bound == "random" else None

    def __call__(self, ctx):
        lo, hi = ctx.lo[ctx.cands], ctx.hi[ctx.cands]
        if self.rng is None:
            values, other = (lo, hi) if self.bound == "lower" else (hi, lo)
            if not np.isfinite(values).any():
                values = other
        else:
            bounded = np.isfinite(lo) | np.isfinite(hi)
            draws = int(np.argmax(bounded)) + 1 if bounded.any() else bounded.size
            at_lower = self.rng.random(draws) < 0.5
            chosen = np.where(at_lower, lo[:draws], hi[:draws])
            values = np.where(np.isfinite(chosen), chosen,
                              np.where(at_lower, hi[:draws], lo[:draws]))
        finite = np.isfinite(values)
        if not finite.any():
            return None
        k = int(np.argmax(finite))
        v = float(values[k])
        return ScoreDecision(var=int(ctx.cands[k]), new_lower=v, new_upper=v)


def _l2dive(model=None, **_kw):
    from .l2dive import L2DiveScorer  # l2dive imports this module

    return L2DiveScorer(model)


SCORERS = {
    "fractional": lambda **kw: FractionalScorer(),
    "coefficient": lambda **kw: CoefficientScorer(),
    "linesearch": lambda **kw: LinesearchScorer(),
    "vectorlength": lambda **kw: VectorlengthScorer(),
    "pseudocost": lambda **kw: PseudocostScorer(),
    "lower": lambda **kw: FixAtBoundScorer("lower"),
    "upper": lambda **kw: FixAtBoundScorer("upper"),
    "random": lambda seed=0, **kw: FixAtBoundScorer("random", seed),
    "l2dive": _l2dive,
}

#: every diver that needs no trained model, in registry order
HEURISTIC_DIVERS = tuple(name for name in SCORERS if name != "l2dive")

#: divers whose dives depend on the ``seed`` passed to ``make_scorer``
#: (``l2dive`` predicts the mode, so it reads none)
SEEDED_SCORERS = frozenset({"random"})


def check_diver_names(names):
    """Refuse an unknown diver name before any work."""
    for name in names:
        if name not in SCORERS:
            raise ValueError(f"unknown diver {name!r}; registered: {sorted(SCORERS)}")


def check_model(names, model):
    """Refuse the learned diver without a model (or a checkpoint path) before
    any work."""
    if "l2dive" in names and not model:
        raise ValueError("the l2dive diver needs a trained model (--model PATH)")


def make_scorer(name: str, **kwargs):
    """Instantiate a registered scorer by name (see ``SCORERS``); extra
    keyword arguments are passed to the factory."""
    check_diver_names([name])
    check_model([name], kwargs.get("model"))
    return SCORERS[name](**kwargs)
