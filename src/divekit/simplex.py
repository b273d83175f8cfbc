"""Bounded-variable primal simplex with dual values.

Solves ``min c'x s.t. Ax = b, lb <= x <= ub`` (a :class:`StandardLp`) and
returns the primal point, the basis triplet and the dual triple
``(y_b, y_lb, y_ub)`` of

    max  y_b'b + y_lb'lb + y_ub'ub
    s.t. A'y_b + y_lb + y_ub = c,   y_lb >= 0,   y_ub <= 0.

Implementation notes:

- dense LU of the basis (scipy) with product-form eta updates, refactorized
  every ``refactor_every`` pivots and once more before declaring optimality;
- phase 1 minimizes the total bound violation of basic variables using
  shifted blocking bounds, so a warm basis that became primal-infeasible
  after a bound tightening is repaired in place, without artificials;
- cold starts take slack columns as the initial basis and add internal
  artificial columns only for equality rows (fixed to zero in phase 2);
- Dantzig pricing with a switch to Bland's rule after a stall; all ties are
  broken by the lowest variable index, so pivot sequences are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .instances import INF_BOUND, StandardLp
from .kernels import apply_etas, apply_etas_t, ratio_test

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
DUAL_GAP_TOL = 1e-8
REFACTOR_EVERY = 50
BLAND_AFTER = 1000

_AT_LOWER, _BASIC, _AT_UPPER, _FREE = 1, 0, 2, 3


class SimplexError(RuntimeError):
    pass


class SingularBasis(SimplexError):
    pass


class NumericalBreakdown(SimplexError):
    pass


@dataclass
class Basis:
    """Triplet partition of the columns: at lower bound, basic (ordered by
    row), at upper bound.  Free nonbasic columns (both bounds infinite) are
    listed in ``at_lower`` and sit at value zero."""

    at_lower: np.ndarray
    basic: np.ndarray
    at_upper: np.ndarray


@dataclass
class DualValues:
    y_b: np.ndarray
    y_lb: np.ndarray
    y_ub: np.ndarray


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    objective: float
    duals: DualValues | None
    basis: Basis | None
    iterations: int
    ray: np.ndarray | None = None
    infeasibility: float = 0.0


def _is_free(lo, hi):
    return lo <= -INF_BOUND and hi >= INF_BOUND


class _Solver:
    def __init__(self, lp: StandardLp, lower, upper, feas_tol, opt_tol):
        self.lp = lp
        self.m = lp.nrows
        self.n_real = lp.ncols
        self.feas_tol = feas_tol
        self.opt_tol = opt_tol
        struct = lp.dense()
        self.art_rows = self._eq_rows()
        self.n_art = self.art_rows.size
        self.N = self.n_real + self.n_art
        self.A = struct  # m x n_real
        self.AT = struct.T
        lo = lp.lb if lower is None else lower
        hi = lp.ub if upper is None else upper
        self.lb = np.concatenate([np.asarray(lo, dtype=np.float64), np.zeros(self.n_art)])
        self.ub = np.concatenate([np.asarray(hi, dtype=np.float64), np.zeros(self.n_art)])
        self.bound_crossing = float(np.max(self.lb - self.ub, initial=0.0))
        np.minimum(self.lb, self.ub, out=self.lb)
        self.c = np.concatenate([lp.c, np.zeros(self.n_art)])
        self.b = lp.b
        self.stat = np.empty(self.N, dtype=np.int8)
        self.basic = np.empty(self.m, dtype=np.int64)
        self.xval = np.zeros(self.N)
        self.lu = None
        self.eta_rows = np.zeros(REFACTOR_EVERY, dtype=np.int64)
        self.etas = np.zeros((REFACTOR_EVERY, max(self.m, 1)))
        self.n_eta = 0
        self.iterations = 0
        self.bland = False
        self._stall = 0
        self._last_obj = np.inf
        self.ray = None

    def _eq_rows(self):
        # rows without a slack column are equalities
        has_slack = np.zeros(self.m, dtype=bool)
        sr = self.lp.slack_row[self.lp.slack_start:]
        if sr.size:
            has_slack[sr] = True
        return np.flatnonzero(~has_slack).astype(np.int64)

    # -- column access -----------------------------------------------------

    def col(self, j):
        if j < self.n_real:
            return self.A[:, j]
        z = np.zeros(self.m)
        z[self.art_rows[j - self.n_real]] = 1.0
        return z

    # -- factorization -----------------------------------------------------

    def refactorize(self):
        if self.m == 0:
            self.lu = None
            self.n_eta = 0
            return
        B = np.empty((self.m, self.m))
        for k, j in enumerate(self.basic):
            B[:, k] = self.col(j)
        lu, piv = sla.lu_factor(B, check_finite=False)
        diag = np.abs(np.diag(lu))
        if diag.min() < 1e-12 * max(1.0, diag.max()):
            raise SingularBasis("singular basis matrix")
        self.lu = (lu, piv)
        self.n_eta = 0
        # recompute basic values against the fresh factors
        x_other = self.xval.copy()
        x_other[self.basic] = 0.0
        rhs = self.b - self.A @ x_other[: self.n_real]
        art = x_other[self.n_real:]
        if self.n_art:
            rhs = rhs - np.bincount(self.art_rows, weights=art, minlength=self.m)
        self.xval[self.basic] = self.ftran(rhs)

    def ftran(self, v):
        z = sla.lu_solve(self.lu, v, check_finite=False)
        if self.n_eta:
            apply_etas(z, self.eta_rows, self.etas, self.n_eta)
        return z

    def btran(self, w):
        z = np.asarray(w, dtype=np.float64).copy()
        if self.n_eta:
            apply_etas_t(z, self.eta_rows, self.etas, self.n_eta)
        return sla.lu_solve(self.lu, z, trans=1, check_finite=False)

    # -- setup ---------------------------------------------------------------

    def cold_start(self):
        for j in range(self.N):
            lo, hi = self.lb[j], self.ub[j]
            if _is_free(lo, hi):
                self.stat[j] = _FREE
                self.xval[j] = 0.0
            elif lo > -INF_BOUND:
                self.stat[j] = _AT_LOWER
                self.xval[j] = lo
            else:
                self.stat[j] = _AT_UPPER
                self.xval[j] = hi
        # slack of each inequality row, artificial of each equality row
        slack_of = {int(self.lp.slack_row[j]): j
                    for j in range(self.lp.slack_start, self.n_real)}
        art_of = {int(r): self.n_real + k for k, r in enumerate(self.art_rows)}
        for i in range(self.m):
            self.basic[i] = slack_of.get(i, art_of.get(i, -1))
        if np.any(self.basic < 0):
            raise SimplexError("row without slack or artificial column")
        self.stat[self.basic] = _BASIC
        self.refactorize()

    def warm_start(self, basis: Basis):
        if basis.basic.shape[0] != self.m:
            raise SimplexError("warm basis has the wrong size")
        self.stat[:] = _AT_LOWER
        for j in basis.at_lower:
            if _is_free(self.lb[j], self.ub[j]):
                self.stat[j] = _FREE
            elif self.lb[j] <= -INF_BOUND:
                # stale status from a different bound set: fall back sanely
                self.stat[j] = _AT_UPPER
            else:
                self.stat[j] = _AT_LOWER
        self.stat[basis.at_upper] = _AT_UPPER
        self.basic[:] = basis.basic
        self.stat[self.basic] = _BASIC
        nb = self.stat != _BASIC
        self.xval[nb & (self.stat == _AT_LOWER)] = self.lb[nb & (self.stat == _AT_LOWER)]
        self.xval[nb & (self.stat == _AT_UPPER)] = self.ub[nb & (self.stat == _AT_UPPER)]
        self.xval[self.stat == _FREE] = 0.0
        self.refactorize()

    # -- pricing -------------------------------------------------------------

    def price(self, c_eff):
        """Row duals and reduced costs for the effective cost vector."""
        if self.m == 0:
            return np.zeros(0), c_eff.copy()
        y = self.btran(c_eff[self.basic])
        d = np.empty(self.N)
        d[: self.n_real] = c_eff[: self.n_real] - self.AT @ y
        if self.n_art:
            d[self.n_real:] = c_eff[self.n_real:] - y[self.art_rows]
        return y, d

    def _entering(self, d, etol):
        movable = self.ub - self.lb > 0
        elig = np.zeros(self.N, dtype=bool)
        elig |= (self.stat == _AT_LOWER) & (d < -etol) & movable
        elig |= (self.stat == _AT_UPPER) & (d > etol) & movable
        elig |= (self.stat == _FREE) & (np.abs(d) > etol)
        if not elig.any():
            return -1
        if self.bland:
            return int(np.argmax(elig))
        scores = np.where(elig, np.abs(d), -1.0)
        return int(np.argmax(scores))

    # -- pivoting ------------------------------------------------------------

    def _step(self, q, s, w, lo_eff, up_eff):
        xb = self.xval[self.basic]
        rate = -s * w
        t_block, pos, _hit_up = ratio_test(rate, xb, lo_eff, up_eff, self.basic, PIVOT_TOL)
        if self.lb[q] > -INF_BOUND and self.ub[q] < INF_BOUND:
            t_flip = self.ub[q] - self.lb[q]
        else:
            t_flip = np.inf
        t = min(t_block, t_flip)
        if not np.isfinite(t):
            return None  # unbounded direction
        if t > 0:
            self.xval[self.basic] = xb + t * rate
            self.xval[q] += s * t
        if t_flip <= t_block:
            self.stat[q] = _AT_UPPER if self.stat[q] == _AT_LOWER else _AT_LOWER
            self.xval[q] = self.ub[q] if self.stat[q] == _AT_UPPER else self.lb[q]
        else:
            leave = int(self.basic[pos])
            v = up_eff[pos] if _hit_up else lo_eff[pos]
            if abs(v - self.lb[leave]) <= abs(v - self.ub[leave]):
                self.stat[leave] = _AT_LOWER
                self.xval[leave] = self.lb[leave]
            else:
                self.stat[leave] = _AT_UPPER
                self.xval[leave] = self.ub[leave]
            self.basic[pos] = q
            self.stat[q] = _BASIC
            if abs(w[pos]) < PIVOT_TOL:
                raise NumericalBreakdown("tiny pivot element")
            self.eta_rows[self.n_eta] = pos
            self.etas[self.n_eta, :] = w
            self.n_eta += 1
            if self.n_eta >= REFACTOR_EVERY:
                self.refactorize()
        self.iterations += 1
        return t

    def _note_progress(self, obj):
        if obj < self._last_obj - 1e-12 * (1.0 + abs(obj)):
            self._stall = 0
        else:
            self._stall += 1
            if self._stall > BLAND_AFTER:
                self.bland = True
        self._last_obj = obj

    # -- phases ----------------------------------------------------------------

    def violations(self):
        xb = self.xval[self.basic]
        below = xb < self.lb[self.basic] - self.feas_tol
        above = xb > self.ub[self.basic] + self.feas_tol
        total = float(
            np.sum(self.lb[self.basic][below] - xb[below])
            + np.sum(xb[above] - self.ub[self.basic][above])
        )
        return below, above, total

    def phase1(self, iter_limit):
        self._last_obj = np.inf
        self._stall = 0
        while True:
            below, above, total = self.violations()
            if total <= self.feas_tol:
                return OPTIMAL
            if self.iterations >= iter_limit:
                return ITERATION_LIMIT
            c1 = np.zeros(self.N)
            c1[self.basic[below]] = -1.0
            c1[self.basic[above]] = 1.0
            self._note_progress(total)
            _, d = self.price(c1)
            q = self._entering(d, self.opt_tol)
            if q < 0:
                return INFEASIBLE
            s = 1.0 if (self.stat[q] == _AT_LOWER or (self.stat[q] == _FREE and d[q] < 0)) else -1.0
            w = self.ftran(self.col(q))
            lo_eff = self.lb[self.basic].copy()
            up_eff = self.ub[self.basic].copy()
            lo_eff[below] = -np.inf
            up_eff[below] = self.lb[self.basic[below]]
            lo_eff[above] = self.ub[self.basic[above]]
            up_eff[above] = np.inf
            if self._step(q, s, w, lo_eff, up_eff) is None:
                raise NumericalBreakdown("unbounded phase-1 direction")

    def phase2(self, iter_limit):
        self._last_obj = np.inf
        self._stall = 0
        while True:
            if self.iterations >= iter_limit:
                return ITERATION_LIMIT
            self._note_progress(float(self.c @ self.xval))
            _, d = self.price(self.c)
            q = self._entering(d, self.opt_tol)
            if q < 0:
                if self.n_eta:
                    # confirm optimality against fresh factors
                    self.refactorize()
                    _, d = self.price(self.c)
                    q = self._entering(d, self.opt_tol)
                    if q < 0:
                        return OPTIMAL
                else:
                    return OPTIMAL
            s = 1.0 if (self.stat[q] == _AT_LOWER or (self.stat[q] == _FREE and d[q] < 0)) else -1.0
            w = self.ftran(self.col(q))
            lo_eff = self.lb[self.basic]
            up_eff = self.ub[self.basic]
            if self._step(q, s, w, lo_eff, up_eff) is None:
                ray = np.zeros(self.N)
                ray[q] = s
                ray[self.basic] += -s * w
                self.ray = ray[: self.n_real]
                return UNBOUNDED

    # -- extraction --------------------------------------------------------------

    def make_basis(self) -> Basis:
        nb = np.flatnonzero(self.stat != _BASIC)
        return Basis(
            at_lower=nb[(self.stat[nb] == _AT_LOWER) | (self.stat[nb] == _FREE)].copy(),
            basic=self.basic.copy(),
            at_upper=nb[self.stat[nb] == _AT_UPPER].copy(),
        )

    def extract_duals(self) -> DualValues:
        if self.m == 0:
            y = np.zeros(0)
            d = self.c.copy()
        else:
            y, d = self.price(self.c)
        y_lb = np.zeros(self.n_real)
        y_ub = np.zeros(self.n_real)
        for j in range(self.n_real):
            if self.stat[j] in (_BASIC, _FREE):
                continue
            dj = d[j]
            lo, hi = self.lb[j], self.ub[j]
            if lo > -INF_BOUND and hi < INF_BOUND and hi - lo <= 0:
                # fixed column: split the reduced cost exactly
                y_lb[j] = max(dj, 0.0)
                y_ub[j] = min(dj, 0.0)
            elif self.stat[j] == _AT_LOWER:
                y_lb[j] = max(dj, 0.0)
            else:
                y_ub[j] = min(dj, 0.0)
        return DualValues(y_b=y, y_lb=y_lb, y_ub=y_ub)

    def solution(self, status) -> LpSolution:
        x = self.xval[: self.n_real].copy()
        obj = float(self.lp.c @ x)
        duals = self.extract_duals() if status == OPTIMAL else None
        _, _, infeas = self.violations() if self.m else (None, None, 0.0)
        return LpSolution(
            status=status,
            x=x,
            objective=obj,
            duals=duals,
            basis=self.make_basis(),
            iterations=self.iterations,
            ray=self.ray,
            infeasibility=infeas,
        )


def solve_lp(
    lp: StandardLp,
    warm: Basis | None = None,
    iter_limit: int | None = None,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    feas_tol: float = FEAS_TOL,
    opt_tol: float = OPT_TOL,
) -> LpSolution:
    """Solve the LP, optionally warm-started and with bound overrides.

    ``lower``/``upper`` replace the bounds of ``lp`` without mutating it
    (used by diving and branch and bound).
    Raises :class:`SingularBasis` or :class:`NumericalBreakdown` on
    unrecoverable numerical failures.
    """
    solver = _Solver(lp, lower, upper, feas_tol, opt_tol)
    if solver.bound_crossing > feas_tol:
        return LpSolution(
            status=INFEASIBLE, x=None, objective=np.inf, duals=None,
            basis=warm, iterations=0, infeasibility=solver.bound_crossing,
        )
    budget = iter_limit if iter_limit is not None else max(20000, 200 * (solver.m + 10))
    try:
        if warm is not None:
            solver.warm_start(warm)
        else:
            solver.cold_start()
    except SingularBasis:
        if warm is None:
            raise
        solver = _Solver(lp, lower, upper, feas_tol, opt_tol)
        solver.cold_start()
    status = solver.phase1(budget) if solver.m else OPTIMAL
    if status == OPTIMAL:
        if solver.m == 0:
            status = _solve_unconstrained(solver)
        else:
            status = solver.phase2(budget)
    elif status == INFEASIBLE:
        sol = solver.solution(INFEASIBLE)
        sol.x = None
        return sol
    if status == ITERATION_LIMIT and iter_limit is None:
        raise NumericalBreakdown(f"no convergence within {budget} iterations")
    return solver.solution(status)


def _solve_unconstrained(solver) -> str:
    """Row-free LP: every variable goes to its cost-preferred bound."""
    c = solver.c[: solver.n_real]
    lo = solver.lb[: solver.n_real]
    hi = solver.ub[: solver.n_real]
    x = np.where(c >= 0, lo, hi)
    x[(c > 0) & (lo <= -INF_BOUND)] = np.nan
    x[(c < 0) & (hi >= INF_BOUND)] = np.nan
    x[(c == 0) & (lo <= -INF_BOUND)] = np.where(
        hi[(c == 0) & (lo <= -INF_BOUND)] < INF_BOUND,
        hi[(c == 0) & (lo <= -INF_BOUND)], 0.0,
    )
    if np.any(np.isnan(x)):
        j = int(np.argmax(np.isnan(x)))
        ray = np.zeros(solver.n_real)
        ray[j] = -1.0 if c[j] > 0 else 1.0
        solver.ray = ray
        return UNBOUNDED
    solver.xval[: solver.n_real] = x
    solver.stat[: solver.n_real] = np.where(
        np.isclose(x, lo) & (lo > -INF_BOUND), _AT_LOWER,
        np.where(np.isclose(x, hi) & (hi < INF_BOUND), _AT_UPPER, _FREE),
    )
    return OPTIMAL


def dual_objective(duals: DualValues, lp: StandardLp,
                   lower=None, upper=None) -> float:
    """Dual objective value; infinite-bound terms carry a zero dual."""
    lo = lp.lb if lower is None else lower
    hi = lp.ub if upper is None else upper
    lo_t = np.where(lo > -INF_BOUND, lo, 0.0) * duals.y_lb
    hi_t = np.where(hi < INF_BOUND, hi, 0.0) * duals.y_ub
    return float(duals.y_b @ lp.b + lo_t.sum() + hi_t.sum())


def check_complementary_slackness(x, duals: DualValues, lp: StandardLp,
                                  tol: float = 1e-8,
                                  lower=None, upper=None) -> dict:
    """Largest violation of the bound-slackness products.

    Terms at infinite bounds contribute zero because the corresponding dual
    is zero by construction.
    """
    lo = lp.lb if lower is None else lower
    hi = lp.ub if upper is None else upper
    x = np.asarray(x, dtype=np.float64)
    lo_term = np.zeros_like(x)
    hi_term = np.zeros_like(x)
    fin_lo = lo > -INF_BOUND
    fin_hi = hi < INF_BOUND
    lo_term[fin_lo] = (x[fin_lo] - lo[fin_lo]) * duals.y_lb[fin_lo]
    hi_term[fin_hi] = (x[fin_hi] - hi[fin_hi]) * duals.y_ub[fin_hi]
    worst = float(max(np.max(np.abs(lo_term), initial=0.0),
                      np.max(np.abs(hi_term), initial=0.0)))
    return {"holds": worst <= tol, "max_violation": worst}
