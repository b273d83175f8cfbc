"""Bounded-variable simplex with dual values.

Solves ``min c'x s.t. Ax = b, lb <= x <= ub`` (a :class:`StandardLp`) and
returns the primal point, the basis triplet and the dual triple
``(y_b, y_lb, y_ub)`` of

    max  y_b'b + y_lb'lb + y_ub'ub
    s.t. A'y_b + y_lb + y_ub = c,   y_lb >= 0,   y_ub <= 0.

Implementation notes:

- the solver works on the columns of the :class:`StandardLp` as given:
  every row has a logical column (a slack, a surplus, or for an equality
  row a column fixed at zero).  One start places the columns: the logical
  columns form the basis of a cold start, a warm start takes the given
  basis and its columns at their upper bound.  The LP's dense matrix
  serves the basis kernel and the entering columns, its CSR transpose
  pricing and the dual pivot row; both are built once per LP;
- the basis is factored through its kernel: a basic logical column is a
  signed unit column that covers its row, so only the structural basic
  columns on the uncovered rows form a matrix to invert (Suhl & Suhl 1990;
  Bixby 1992).  That k x k kernel is factored by dense LU (scipy) and held
  as its inverse; k is 0 at a cold start and near m on dense families.
  Each pivot adds one eta to a compact product-form file (``kernels``): the
  etas since the last factorization act as one low-rank correction through
  a small lower-triangular inverse, so ftran and btran cost two matrix
  products each, whatever the number of etas.  The kernel is refactored
  every ``REFACTOR_EVERY`` pivots and once more before declaring
  optimality;
- a returned basis carries the kernel inverse it was factored with, for the
  LP it was factored on, whenever the eta file is empty (always so at
  ``OPTIMAL``): a warm start on that same LP object then reuses the inverse
  instead of factoring the kernel again;
- a warm basis that is dual feasible (the optimal basis of the same LP before
  a bound tightening) is re-solved by a bounded dual simplex: the basic
  variable farthest outside its bounds leaves, the dual ratio test picks the
  entering column, and the reduced costs are updated from the pivot row.
  An infeasibility verdict is confirmed on fresh factors;
- one primal loop then cleans up, and solves cold starts and warm bases
  that are not dual feasible: phase 1 minimizes the total bound violation
  of basic variables using shifted blocking bounds until the point is
  feasible, then phase 2 the cost;
- a singular basis or a numerical breakdown anywhere in a warm solve is
  retried once from the cold start;
- an LP without rows takes the same path: its basis is empty (a 0x0
  kernel) and every iteration is a bound flip;
- Dantzig pricing (the largest violation in the dual phase) with a switch
  to Bland's rule after a stall; all ties are broken by the lowest index,
  so pivot sequences are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import LinAlgWarning

from .instances import StandardLp
from .kernels import apply_etas, apply_etas_t, eta_file, push_eta, ratio_test

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
    """The basic columns (ordered by row) and the nonbasic columns at their
    upper bound, from which a warm start places every column (every other
    one the way a cold start does).  A basis returned by a solve may also
    carry ``kinv``, the inverse of its kernel, factored on the LP object
    ``lp``: a warm start on that same object reuses it instead of factoring
    again.  A hand-built basis, or one started on another LP, is factored
    as usual."""

    basic: np.ndarray
    at_upper: np.ndarray
    kinv: np.ndarray | None = field(default=None, repr=False, compare=False)
    lp: StandardLp | None = field(default=None, repr=False, compare=False)


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


class _Solver:
    def __init__(self, lp: StandardLp, lower, upper):
        self.lp = lp
        self.m = lp.nrows
        self.N = lp.ncols
        self.A = lp.dense()
        self.At = lp.transpose()
        self.lb = np.array(lp.lb if lower is None else lower, dtype=np.float64)
        self.ub = np.array(lp.ub if upper is None else upper, dtype=np.float64)
        self.bound_crossing = float(np.max(self.lb - self.ub, initial=0.0))
        np.minimum(self.lb, self.ub, out=self.lb)
        self.c = lp.c
        self.b = lp.b
        self.stat = np.empty(self.N, dtype=np.int8)
        self.basic = np.empty(self.m, dtype=np.int64)
        self.xval = np.zeros(self.N)
        # the kernel factors: see refactorize
        self.pos_S = self.pos_L = self.rows_U = self.rows_L = None
        self.sign_L = self.C = self.Kinv = None
        # the eta file: see kernels
        self.eta_rows, self.etas, self.eta_linv = eta_file(REFACTOR_EVERY, self.m)
        self.n_eta = 0
        self.iterations = 0
        self.bland = False
        self._stall = 0
        self._last_obj = np.inf
        self.ray = None
        self.priced = None  # (y, d) of the last pricing that declared optimality

    # -- factorization -----------------------------------------------------

    def refactorize(self, kinv=None):
        """Factor the basis through its kernel.

        A basic logical column covers its row, so ``B z = v`` splits into the
        kernel system ``K z_S = v_U`` (the uncovered rows of the structural
        basic columns) and ``sign * z_L = v_L - C z_S`` on the covered rows,
        where ``C`` holds the covered rows of the structural basic columns.
        ``kinv``, the inverse of this basis's kernel on this LP, spares the
        LU factorization.
        """
        basic, n0 = self.basic, self.lp.slack_start
        logical = basic >= n0
        self.pos_L = np.flatnonzero(logical)
        self.pos_S = np.flatnonzero(~logical)
        self.rows_L = basic[self.pos_L] - n0
        uncovered = np.ones(self.m, dtype=bool)
        uncovered[self.rows_L] = False
        self.rows_U = np.flatnonzero(uncovered)
        if self.rows_U.size != self.pos_S.size:
            raise SingularBasis("a logical column is basic twice")
        self.sign_L = self.lp.logical_sign[self.rows_L]
        B_S = self.A[:, basic[self.pos_S]]
        self.C = B_S[self.rows_L]
        if kinv is None:
            # a singular kernel raises SingularBasis below instead of warning here
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu, piv = sla.lu_factor(B_S[self.rows_U], check_finite=False)
            diag = np.abs(np.diag(lu))
            if diag.min(initial=np.inf) < 1e-12 * max(1.0, diag.max(initial=0.0)):
                raise SingularBasis("singular basis matrix")
            kinv = sla.lu_solve((lu, piv), np.eye(self.pos_S.size), check_finite=False)
        self.Kinv = kinv
        self.n_eta = 0
        # recompute basic values against the fresh factors
        x_other = self.xval.copy()
        x_other[self.basic] = 0.0
        self.xval[self.basic] = self.ftran(self.b - self.lp.A @ x_other)

    def ftran(self, v):
        """Solve ``B z = v``."""
        z = np.empty(self.m)
        z_S = self.Kinv @ v[self.rows_U]
        z[self.pos_S] = z_S
        z[self.pos_L] = (v[self.rows_L] - self.C @ z_S) / self.sign_L
        if self.n_eta:
            apply_etas(z, self.eta_rows, self.etas, self.eta_linv, self.n_eta)
        return z

    def btran(self, z):
        """Solve ``B'y = z``; overwrites ``z``."""
        if self.n_eta:
            apply_etas_t(z, self.eta_rows, self.etas, self.eta_linv, self.n_eta)
        y = np.empty(self.m)
        y_L = z[self.pos_L] / self.sign_L
        y[self.rows_L] = y_L
        y[self.rows_U] = (z[self.pos_S] - y_L @ self.C) @ self.Kinv
        return y

    # -- setup ---------------------------------------------------------------

    def start(self, basis: Basis | None = None):
        """Every nonbasic column at its lower bound, at its upper bound when
        the lower one is infinite or ``basis`` lists it there, or free at zero
        when both are infinite; the basic columns are those of ``basis``, or
        the logical columns without one.  The kernel inverse that ``basis``
        carries for this LP is reused."""
        if basis is not None and basis.basic.shape[0] != self.m:
            raise SimplexError("warm basis has the wrong size")
        self.bland = False
        # every column is placed first, so a status in ``basis`` that is
        # stale for the current bounds falls back to a finite bound
        has_lo = np.isfinite(self.lb)
        free = ~has_lo & ~np.isfinite(self.ub)
        self.stat[:] = np.where(has_lo, _AT_LOWER, np.where(free, _FREE, _AT_UPPER))
        self.xval[:] = np.where(has_lo, self.lb, np.where(free, 0.0, self.ub))
        if basis is None:
            self.basic[:] = np.arange(self.lp.slack_start, self.N)  # the logical columns
        else:
            self.stat[basis.at_upper] = _AT_UPPER
            self.xval[basis.at_upper] = self.ub[basis.at_upper]
            self.basic[:] = basis.basic
        self.stat[self.basic] = _BASIC
        self.refactorize(basis.kinv if basis is not None and basis.lp is self.lp else None)

    # -- pricing -------------------------------------------------------------

    def price(self, c_eff):
        """Row duals and reduced costs for the effective cost vector."""
        y = self.btran(c_eff[self.basic])
        return y, c_eff - self.At @ y

    def _movable_against(self, v, tol):
        """The nonbasic columns that can move against the sign of ``v``: up
        from the lower bound where ``v < -tol``, down from the upper bound
        where ``v > tol``, either way when free and ``|v| > tol``."""
        movable = self.ub - self.lb > 0
        elig = (self.stat == _AT_LOWER) & (v < -tol) & movable
        elig |= (self.stat == _AT_UPPER) & (v > tol) & movable
        elig |= (self.stat == _FREE) & (np.abs(v) > tol)
        return elig

    def _entering(self, d, etol):
        elig = self._movable_against(d, etol)
        if not elig.any():
            return -1
        if self.bland:
            return int(np.argmax(elig))
        scores = np.where(elig, np.abs(d), -1.0)
        return int(np.argmax(scores))

    # -- pivoting ------------------------------------------------------------

    def _set_nonbasic(self, j, at_upper):
        """Column ``j`` goes to its upper bound when ``at_upper``, else to its
        lower bound."""
        self.stat[j] = _AT_UPPER if at_upper else _AT_LOWER
        self.xval[j] = self.ub[j] if at_upper else self.lb[j]

    def _replace(self, pos, q, w):
        """Column ``q`` (``w`` = its ftran) becomes the basic variable of row
        position ``pos``; one eta, or a refactorization when the file is full.
        Counts the iteration."""
        self.basic[pos] = q
        self.stat[q] = _BASIC
        push_eta(self.eta_rows, self.etas, self.eta_linv, self.n_eta, pos, w)
        self.n_eta += 1
        self.iterations += 1
        if self.n_eta >= REFACTOR_EVERY:
            self.refactorize()

    def _note_progress(self, obj):
        if obj < self._last_obj - 1e-12 * (1.0 + abs(obj)):
            self._stall = 0
        else:
            self._stall += 1
            if self._stall > BLAND_AFTER:
                self.bland = True
        self._last_obj = obj

    # -- dual phase --------------------------------------------------------------

    def _dual_ratio_test(self, d, alpha):
        """Entering column for a leaving variable that must rise, given its
        pivot row ``alpha`` (negated when it must fall): the smallest
        ``|d_j / alpha_j|`` over the columns whose move raises it, ties to the
        lowest index, or -1 when none can."""
        idx = np.flatnonzero(self._movable_against(alpha, PIVOT_TOL))
        if idx.size == 0:
            return -1
        # |d_j| with the sign dual feasibility gives it, clamped at 0
        dj = np.where(self.stat[idx] == _AT_UPPER, -d[idx], d[idx])
        dj = np.where(self.stat[idx] == _FREE, np.abs(dj), np.maximum(dj, 0.0))
        return int(idx[np.argmin(dj / np.abs(alpha[idx]))])

    def dual_phase(self, iter_limit):
        """Bounded dual simplex from a dual feasible basis until the point is
        primal feasible: the basic variable farthest outside its bounds leaves
        at that bound, and the reduced costs are updated from its pivot row.

        Returns OPTIMAL once the point is primal feasible, and also, without
        a pivot, when the basis is not dual feasible: either way the primal
        loop finishes the solve.
        """
        _, d = self.price(self.c)
        if self._entering(d, OPT_TOL) >= 0:
            return OPTIMAL
        self._last_obj, self._stall = np.inf, 0
        while True:
            xb = self.xval[self.basic]
            lo, up = self.lb[self.basic], self.ub[self.basic]
            viol = np.maximum(lo - xb, xb - up)
            rows = np.flatnonzero(viol > FEAS_TOL)
            if rows.size == 0:
                return OPTIMAL
            if self.iterations >= iter_limit:
                return ITERATION_LIMIT
            # the dual objective equals c'x here and never falls
            self._note_progress(-float(self.c @ self.xval))
            if self.bland:
                r = int(rows[np.argmin(self.basic[rows])])
            else:
                r = int(np.argmax(viol))
            rises = xb[r] < lo[r]
            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            alpha = self.At @ self.btran(e_r)
            q = self._dual_ratio_test(d, alpha if rises else -alpha)
            if q < 0:
                if not self.n_eta:
                    return INFEASIBLE
                # confirm infeasibility against fresh factors
                self.refactorize()
                _, d = self.price(self.c)
                continue
            w = self.ftran(self.A[:, q])
            if abs(w[r]) < PIVOT_TOL:
                raise NumericalBreakdown("tiny pivot element")
            theta = (xb[r] - (lo[r] if rises else up[r])) / w[r]
            self.xval[self.basic] = xb - theta * w
            self.xval[q] += theta
            self._set_nonbasic(int(self.basic[r]), not rises)
            d -= (d[q] / alpha[q]) * alpha
            self._replace(r, q, w)
            if not self.n_eta:
                _, d = self.price(self.c)

    # -- primal loop -----------------------------------------------------------

    def violations(self):
        xb = self.xval[self.basic]
        below = xb < self.lb[self.basic] - FEAS_TOL
        above = xb > self.ub[self.basic] + FEAS_TOL
        total = float(
            np.sum(self.lb[self.basic][below] - xb[below])
            + np.sum(xb[above] - self.ub[self.basic][above])
        )
        return below, above, total

    def primal(self, iter_limit):
        """Bounded primal simplex.  Phase 1 minimizes the total bound
        violation of the basic variables, which block at shifted bounds,
        until the point is feasible; phase 2 then minimizes the cost and
        never returns to phase 1."""
        self._last_obj, self._stall = np.inf, 0
        phase1 = True
        while True:
            if phase1:
                below, above, total = self.violations()
                if total <= FEAS_TOL:
                    phase1 = False
                    self._last_obj, self._stall = np.inf, 0
            if self.iterations >= iter_limit:
                return ITERATION_LIMIT
            if phase1:
                cost = np.zeros(self.N)
                cost[self.basic[below]] = -1.0
                cost[self.basic[above]] = 1.0
                self._note_progress(total)
            else:
                cost = self.c
                self._note_progress(float(self.c @ self.xval))
            y, d = self.price(cost)
            q = self._entering(d, OPT_TOL)
            if q < 0 and not phase1 and self.n_eta:
                # confirm optimality against fresh factors
                self.refactorize()
                y, d = self.price(cost)
                q = self._entering(d, OPT_TOL)
            if q < 0:
                if phase1:
                    return INFEASIBLE
                self.priced = y, d
                return OPTIMAL
            s = 1.0 if (self.stat[q] == _AT_LOWER or (self.stat[q] == _FREE and d[q] < 0)) else -1.0
            w = self.ftran(self.A[:, q])
            lo_eff, up_eff = self.lb[self.basic], self.ub[self.basic]
            if phase1:  # a violated bound blocks from the other side
                lo_eff[below], up_eff[below] = -np.inf, self.lb[self.basic[below]]
                lo_eff[above], up_eff[above] = self.ub[self.basic[above]], np.inf
            xb = self.xval[self.basic]
            rate = -s * w
            t_block, pos, hit_up = ratio_test(rate, xb, lo_eff, up_eff, self.basic, PIVOT_TOL)
            t_flip = self.ub[q] - self.lb[q]  # inf when a bound is infinite
            t = min(t_block, t_flip)
            if not np.isfinite(t):
                if phase1:
                    raise NumericalBreakdown("unbounded phase-1 direction")
                self.ray = np.zeros(self.N)
                self.ray[q] = s
                self.ray[self.basic] += rate
                return UNBOUNDED
            if t > 0:
                self.xval[self.basic] = xb + t * rate
                self.xval[q] += s * t
            if t_flip <= t_block:
                self._set_nonbasic(q, self.stat[q] == _AT_LOWER)
                self.iterations += 1
            else:
                leave = int(self.basic[pos])
                v = up_eff[pos] if hit_up else lo_eff[pos]  # it leaves at the bound nearer v
                self._set_nonbasic(leave, abs(v - self.lb[leave]) > abs(v - self.ub[leave]))
                self._replace(pos, q, w)

    # -- extraction --------------------------------------------------------------

    def make_basis(self) -> Basis:
        basis = Basis(basic=self.basic.copy(), at_upper=np.flatnonzero(self.stat == _AT_UPPER))
        if not self.n_eta:  # the kernel inverse factors exactly this basis
            self.Kinv.setflags(write=False)  # shared from here on
            basis.kinv, basis.lp = self.Kinv, self.lp
        return basis

    def extract_duals(self, y, d) -> DualValues:
        """The dual triple from the row duals ``y`` and reduced costs ``d``
        that ``price(self.c)`` gives at an optimal basis."""
        lo, hi = self.lb, self.ub
        at_lower = self.stat == _AT_LOWER
        at_upper = self.stat == _AT_UPPER
        # a fixed column splits its reduced cost between both bound duals
        fixed = hi - lo <= 0
        # np.where keeps a reduced cost of -0.0 as it is, like max(d, 0.0)
        y_lb = np.where(at_lower | (at_upper & fixed), np.where(d < 0.0, 0.0, d), 0.0)
        y_ub = np.where(at_upper | (at_lower & fixed), np.where(d > 0.0, 0.0, d), 0.0)
        return DualValues(y_b=y, y_lb=y_lb, y_ub=y_ub)

    def solution(self, status) -> LpSolution:
        # an infeasible LP has no objective value, whatever its last iterate
        obj = np.inf if status == INFEASIBLE else float(self.c @ self.xval)
        duals = self.extract_duals(*self.priced) if status == OPTIMAL else None
        _, _, infeas = self.violations()
        return LpSolution(
            status=status,
            x=None if status == INFEASIBLE else self.xval.copy(),
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
) -> LpSolution:
    """Solve the LP, optionally warm-started and with bound overrides.

    ``lower``/``upper`` replace the bounds of ``lp`` without mutating it
    (used by diving and branch and bound).  A warm solve that meets a
    singular basis or a numerical breakdown is retried once from the cold
    start.  Raises :class:`SingularBasis` or :class:`NumericalBreakdown` on
    unrecoverable numerical failures.
    """
    solver = _Solver(lp, lower, upper)
    if solver.bound_crossing > FEAS_TOL:
        return LpSolution(
            status=INFEASIBLE, x=None, objective=np.inf, duals=None,
            basis=warm, iterations=0, infeasibility=solver.bound_crossing,
        )
    budget = iter_limit if iter_limit is not None else max(20000, 200 * (solver.m + 10))
    status = None
    if warm is not None:
        try:
            solver.start(warm)
            status = solver.dual_phase(budget)
            if status == OPTIMAL:
                status = solver.primal(budget)
        except (SingularBasis, NumericalBreakdown):
            status = None  # retried once from the cold start
    if status is None:
        solver.start()
        status = solver.primal(budget)
    if status == ITERATION_LIMIT and iter_limit is None:
        raise NumericalBreakdown(f"no convergence within {budget} iterations")
    return solver.solution(status)


def dual_objective(duals: DualValues, lp: StandardLp,
                   lower=None, upper=None) -> float:
    """Dual objective value; infinite-bound terms carry a zero dual."""
    lo = lp.lb if lower is None else lower
    hi = lp.ub if upper is None else upper
    lo_t = np.where(np.isfinite(lo), lo, 0.0) * duals.y_lb
    hi_t = np.where(np.isfinite(hi), hi, 0.0) * duals.y_ub
    return float(duals.y_b @ lp.b + lo_t.sum() + hi_t.sum())


def bound_slackness(x, duals: DualValues, lower, upper):
    """The bound-slackness products ``(x - lower) * y_lb`` and
    ``(x - upper) * y_ub`` per column, zero at an infinite bound."""
    x = np.asarray(x, dtype=np.float64)
    lower = np.asarray(lower)
    upper = np.asarray(upper)
    lo_term = np.zeros_like(x)
    hi_term = np.zeros_like(x)
    fin_lo = np.isfinite(lower)
    fin_hi = np.isfinite(upper)
    lo_term[fin_lo] = (x[fin_lo] - lower[fin_lo]) * duals.y_lb[fin_lo]
    hi_term[fin_hi] = (x[fin_hi] - upper[fin_hi]) * duals.y_ub[fin_hi]
    return lo_term, hi_term


def check_complementary_slackness(x, duals: DualValues, lp: StandardLp,
                                  tol: float = 1e-8,
                                  lower=None, upper=None) -> dict:
    """Largest violation of the bound-slackness products (``bound_slackness``)."""
    lo_term, hi_term = bound_slackness(x, duals, lp.lb if lower is None else lower,
                                       lp.ub if upper is None else upper)
    worst = float(max(np.max(np.abs(lo_term), initial=0.0),
                      np.max(np.abs(hi_term), initial=0.0)))
    return {"holds": worst <= tol, "max_violation": worst}
