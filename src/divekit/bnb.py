"""Branch and bound with a solution pool, plus lock-based rounding and
exhaustive enumeration of optimal assignments on the optimality face.

The solver clock is deterministic: ``ticks`` counts simplex iterations, so
identical inputs produce identical traces; the node and tick limits are the
only stop rules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

import numpy as np

from .instances import (
    INT_TOL, MilpInstance, SENSE_GE, SENSE_LE, StandardLp, fractionality, to_standard_form,
)
from . import simplex
from .simplex import Basis, LpSolution, SimplexError, solve_lp

OPTIMAL_PROVEN = "optimal_proven"
LIMIT = "limit"
INFEASIBLE = "infeasible"
LP_ERROR = "lp_error"  # the root LP failed numerically

BOUND_PRUNE_TOL = 1e-9
PLUNGE_DEPTH = 4
#: half-width of the objective band that ``enumerate_optimal_face`` walks
FACE_TOL = 1e-6


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def round_solution(x, inst: MilpInstance):
    """Try to turn an LP point into an integral-feasible one.

    Strategies, first feasible wins: (a) already integral, (b) round each
    fractional integer variable in a zero-lock direction where one exists
    (nearest otherwise), (c) plain nearest-integer rounding.  Returns None
    when none of them yields a feasible point.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = inst.integer_index
    if idx.size == 0:
        return x.copy() if inst.is_feasible(x) else None
    xi = x[idx]
    rounded = np.floor(xi + 0.5)
    frac = fractionality(xi)
    snapped = x.copy()
    snapped[idx] = rounded
    if np.max(frac) <= INT_TOL:
        return snapped if inst.is_feasible(snapped) else None
    up, down, _ = inst.column_counts()
    lock_dir = x.copy()
    lock_dir[idx] = np.where(frac <= INT_TOL, rounded,
                             np.where(down[idx] == 0, np.floor(xi),
                                      np.where(up[idx] == 0, np.ceil(xi), rounded)))
    if inst.is_feasible(lock_dir):
        return lock_dir
    return snapped if inst.is_feasible(snapped) else None


# ---------------------------------------------------------------------------
# solution pool and trace
# ---------------------------------------------------------------------------

class SolutionPool:
    """Best feasible solutions found, deduplicated by the rounded divable
    sub-vector and sorted by objective."""

    def __init__(self, inst: MilpInstance, capacity: int = 10):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.inst = inst
        self.capacity = capacity
        self.entries: list[tuple[float, bytes, np.ndarray]] = []
        self.rejected = 0

    def add(self, x, z: float | None = None) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if not self.inst.is_feasible(x):
            self.rejected += 1
            return False
        if z is None:
            z = float(self.inst.c @ x)
        key = self.inst.solution_key(x)
        for i, (zi, ki, _) in enumerate(self.entries):
            if ki == key:
                if z < zi - 1e-12:
                    self.entries[i] = (z, key, x.copy())
                    self.entries.sort(key=lambda e: (e[0], e[1]))
                    return True
                return False
        self.entries.append((z, key, x.copy()))
        self.entries.sort(key=lambda e: (e[0], e[1]))
        del self.entries[self.capacity:]
        return True

    def best(self):
        if not self.entries:
            return None
        z, _, x = self.entries[0]
        return x, z

    def solutions(self):
        return [(x, z) for z, _, x in self.entries]

    def __len__(self):
        return len(self.entries)


class SolveTrace:
    """Monotone (tick, best upper bound, best lower bound) event sequence."""

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []

    def record(self, t, primal, dual):
        if self.points:
            _, p_last, d_last = self.points[-1]
            primal = min(primal, p_last)
            dual = max(dual, d_last)
            if primal == p_last and dual == d_last:
                return
        self.points.append((float(t), float(primal), float(dual)))

    def final(self):
        if not self.points:
            return np.inf, -np.inf
        _, p, d = self.points[-1]
        return p, d

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,primal_bound,dual_bound\n")
            for t, p, d in self.points:
                fh.write(f"{t!r},{p!r},{d!r}\n")


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass
class SolveConfig:
    node_limit: int = 100_000
    tick_limit: float | None = None
    pool_capacity: int = 10
    # callable(inst, lp, sol, lo, hi) -> one DiveResult per dive it ran; called
    # at every node with a fractional LP point, root first, with the node's LP
    # solution and full-column bounds; it decides itself when to dive
    diver: object | None = None

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.tick_limit is not None and self.tick_limit <= 0:
            raise ValueError("tick_limit must be positive")
        if self.pool_capacity < 1:
            raise ValueError("pool_capacity must be >= 1")


@dataclass
class BnbResult:
    status: str
    x: np.ndarray | None
    objective: float
    bound: float
    pool: SolutionPool
    trace: SolveTrace
    nodes: int
    ticks: float
    node_errors: int
    dives: int = 0  # dives the diver callback ran, not calls of it


class _Node:
    """A node to process: its branching path from the root, one
    ``(var, upper, value)`` per branching (``upper`` caps ``var`` at
    ``value``, otherwise ``value`` is its new lower bound), its parent's LP
    bound and its parent's optimal basis, the node LP's warm start."""

    __slots__ = ("path", "bound", "basis")

    def __init__(self, path, bound, basis):
        self.path = path
        self.bound = bound
        self.basis = basis

    def bounds(self, base_lo, base_hi):
        """Full-column bounds: the base ones with this node's branchings applied."""
        lo = base_lo.copy()
        hi = base_hi.copy()
        # min/max accumulation keeps the tightest change regardless of order
        for var, upper, value in self.path:
            if upper:
                hi[var] = min(hi[var], value)
            else:
                lo[var] = max(lo[var], value)
        return lo, hi


def _shared(sol: LpSolution) -> LpSolution:
    """``sol`` as an entry of a table of node LP solutions: its arrays
    read-only, and its basis without the kernel inverse, which a run that
    warm-starts from the entry factors again."""
    basis = Basis(basic=sol.basis.basic, at_upper=sol.basis.at_upper)
    arrays = [basis.basic, basis.at_upper]
    if sol.x is not None:  # None when infeasible
        arrays.append(sol.x)
    if sol.duals is not None:  # None unless optimal
        arrays += [sol.duals.y_b, sol.duals.y_lb, sol.duals.y_ub]
    for arr in arrays:
        arr.setflags(write=False)
    return replace(sol, basis=basis)


def _most_fractional(x, idx):
    xi = x[idx]
    frac = fractionality(xi)
    if frac.size == 0 or frac.max() <= INT_TOL:
        return -1
    fractional = frac > INT_TOL
    score = np.where(fractional, np.minimum(xi - np.floor(xi), np.ceil(xi) - xi), -1.0)
    return int(idx[np.argmax(score)])


def branch_and_bound(inst: MilpInstance, cfg: SolveConfig | None = None,
                     lp: StandardLp | None = None,
                     root_sol: LpSolution | None = None,
                     solved: dict | None = None) -> BnbResult:
    """Best-bound search with depth-first plunging, bound/integrality/
    infeasibility pruning only, and an optional diver callback at every node
    with a fractional LP point.  A node whose LP fails keeps its parent's
    bound in the global bound, so such a run ends ``limit``; when the root
    LP fails, the run ends ``lp_error``.

    ``lp`` is ``inst`` in standard form (built when not given).  A given
    ``root_sol`` must be ``solve_lp(lp)``, the cold solve at ``lp``'s own
    bounds, of this LP or of one built from the same instance: the root
    node uses it in place of solving, and everything else runs as if it
    had been solved here.  Its pivots stay on the tick clock and it is the
    root trace point's bound; nothing writes into it, so one solution can
    serve many runs.

    ``solved`` is a table of node LP solutions that runs on the same ``lp``
    object, with the same ``root_sol`` (or none), may share.  It maps a
    node's branching path, the tuple of ``(var, upper, value)`` from the
    root, to that node's solution.  The path fixes the node LP: it sets the
    bounds, and by induction the parent's solution, whose basis is the warm
    start.  A node whose path is in the table takes that solution in place
    of solving, and its pivots still go on the tick clock, so the run is
    the one it would be without the table.  A node solved here is stored,
    read-only and with a basis that carries no kernel inverse; a solve
    that raises is not, so each run retries it.  The root is never stored:
    ``root_sol`` or a solve here supplies it.  An entry holds the point,
    the three dual vectors and the basis, about (4N + 2m)·8 bytes for an
    LP of N columns and m rows, for as long as the caller keeps the
    table."""
    cfg = cfg or SolveConfig()
    if lp is None:
        lp = to_standard_form(inst)
    pool = SolutionPool(inst, cfg.pool_capacity)
    trace = SolveTrace()

    ticks = 0.0
    nodes = 0
    node_errors = 0
    dives = 0
    solved_root = False
    incumbent = None
    z_inc = np.inf
    seq = 0

    int_idx = inst.integer_index
    heap: list[tuple[float, int, _Node]] = []
    plunge: list[_Node] = []  # LIFO chain of depth-first children
    lost_bound = np.inf  # smallest parent bound of a node whose LP failed

    def open_bound():
        """The smallest bound of a node still to process or lost to a failed LP."""
        best = lost_bound
        if heap:
            best = min(best, heap[0][0])
        for nd in plunge:
            best = min(best, nd.bound)
        return best

    def register(x, node_bound, z=None):
        """Pool ``x``, found at the node in hand; that node's LP bound
        ``node_bound`` is still part of the global bound a new incumbent is
        traced with."""
        nonlocal incumbent, z_inc
        if pool.add(x, z):
            bx, bz = pool.best()
            if bz < z_inc - 1e-12:
                incumbent, z_inc = bx, bz
                trace.record(ticks, z_inc, min(node_bound, open_bound()))

    def run_diver(sol, lo, hi):
        nonlocal dives, node_errors
        try:
            results = cfg.diver(inst, lp, sol, lo, hi)
        except SimplexError:
            node_errors += 1
            return
        dives += len(results)
        for res in results:
            for sx in res.solutions:
                register(sx, sol.objective)

    plunge.append(_Node((), -np.inf, None))
    status = LIMIT

    while heap or plunge:
        if nodes >= cfg.node_limit:
            break
        if cfg.tick_limit is not None and ticks >= cfg.tick_limit:
            break
        if plunge and (len(plunge) <= PLUNGE_DEPTH or not heap):
            node = plunge.pop()
        else:
            for nd in plunge:
                seq += 1
                heapq.heappush(heap, (nd.bound, seq, nd))
            plunge.clear()
            _, _, node = heapq.heappop(heap)
        if node.bound >= z_inc - BOUND_PRUNE_TOL:
            continue
        nodes += 1
        lo, hi = node.bounds(lp.lb, lp.ub)
        is_root = not node.path
        if is_root and root_sol is not None:
            sol = root_sol
        elif solved is not None and node.path in solved:
            sol = solved[node.path]
        else:
            try:
                sol = solve_lp(lp, warm=node.basis, lower=lo, upper=hi)
            except SimplexError:
                sol = None
            if sol is not None and solved is not None and not is_root:
                solved[node.path] = _shared(sol)
        if sol is not None:
            ticks += sol.iterations
            if is_root:
                solved_root = True
            if sol.status == simplex.INFEASIBLE:
                continue
        if sol is None or sol.status != simplex.OPTIMAL:
            # the subtree stays unexplored: its parent's bound stays in the
            # global bound, so the run cannot end proven
            node_errors += 1
            lost_bound = min(lost_bound, node.bound)
            continue
        z = sol.objective
        if is_root:
            trace.record(ticks, z_inc, z)
        if z >= z_inc - BOUND_PRUNE_TOL:
            continue
        x = sol.x[: inst.n]
        branch_var = _most_fractional(x, int_idx)
        if branch_var < 0:
            register(x, z, z)
            continue
        rounded = round_solution(x, inst)
        if rounded is not None:
            register(rounded, z)
        if cfg.diver is not None:
            run_diver(sol, lo, hi)
        if z >= z_inc - BOUND_PRUNE_TOL:
            continue
        # children: down (upper bound floor) first so plunging goes down
        v = x[branch_var]
        plunge.append(_Node(node.path + ((branch_var, False, float(np.ceil(v))),), z, sol.basis))
        plunge.append(_Node(node.path + ((branch_var, True, float(np.floor(v))),), z, sol.basis))
        trace.record(ticks, z_inc, open_bound())
    else:
        if not solved_root:
            status = LP_ERROR
        elif lost_bound < z_inc - BOUND_PRUNE_TOL:
            status = LIMIT
        else:
            status = OPTIMAL_PROVEN if incumbent is not None else INFEASIBLE

    final_bound = z_inc if status == OPTIMAL_PROVEN else open_bound()
    trace.record(ticks, z_inc, final_bound)
    return BnbResult(
        status=status, x=incumbent, objective=z_inc, bound=final_bound,
        pool=pool, trace=trace, nodes=nodes, ticks=ticks,
        node_errors=node_errors, dives=dives,
    )


# ---------------------------------------------------------------------------
# enumeration of optimal assignments (solution counting / augmentation)
# ---------------------------------------------------------------------------

@dataclass
class EnumerationResult:
    assignments: list
    # per assignment, its completion: the LP on the original rows under the
    # leaf's bounds (the face LP's point at the leaf when that LP does not
    # give an integral optimum), with the divable columns set to the assignment
    points: list
    complete: bool
    nodes: int
    status: str


def enumerate_optima(inst: MilpInstance, cfg: SolveConfig | None = None) -> EnumerationResult:
    """All distinct optimal assignments of the divable variables: solves to
    proven optimality, then walks the optimal face
    (``enumerate_optimal_face``)."""
    cfg = cfg or SolveConfig()
    base = branch_and_bound(inst, SolveConfig(
        node_limit=cfg.node_limit, tick_limit=cfg.tick_limit,
        pool_capacity=cfg.pool_capacity,
    ))
    if base.status != OPTIMAL_PROVEN:
        return EnumerationResult(assignments=[], points=[], complete=False,
                                 nodes=base.nodes, status=base.status)
    return enumerate_optimal_face(inst, base.objective, cfg)


def enumerate_optimal_face(inst: MilpInstance, z_opt: float,
                           cfg: SolveConfig) -> EnumerationResult:
    """All distinct assignments of the divable variables on the face of
    proven optimum ``z_opt``, each with the point the LP on the original
    rows completes it to under the leaf's bounds.

    Restricts the objective to the optimal face (two inequality rows at
    ``FACE_TOL``) and depth-first fixes every divable variable, pruning only
    on LP infeasibility.  The result is deduplicated and capped at
    ``cfg.pool_capacity``; hitting a limit is reported as an incomplete
    enumeration, not an error.
    """
    dense_c = inst.c.copy()
    face = inst.with_extra_rows(
        [dense_c, dense_c], [SENSE_LE, SENSE_GE],
        [z_opt + FACE_TOL, z_opt - FACE_TOL], name_suffix="face",
    )
    lp = to_standard_form(face)
    # the face rows' logical columns come last, so the original LP's columns
    # are the face LP's first ones
    orig = to_standard_form(inst)
    div = [int(j) for j in inst.divable_index]

    seen = {}
    nodes = 0
    complete = True
    # depth-first over (position in div, full-column lower and upper bounds,
    # warm basis); children are pushed so the lowest value is visited first
    stack = [(0, lp.lb.copy(), lp.ub.copy(), None)]
    while stack:
        pos, lo, hi, warm = stack.pop()
        if nodes >= cfg.node_limit:
            complete = False
            break
        nodes += 1
        try:
            sol = solve_lp(lp, warm=warm, lower=lo, upper=hi)
        except SimplexError:
            complete = False
            break
        if sol.status == simplex.INFEASIBLE:
            continue
        if sol.status != simplex.OPTIMAL:
            complete = False
            break
        if pos == len(div):
            if not inst.is_integral(sol.x):
                continue
            key = tuple(int(round(v)) for v in np.asarray(lo)[div])
            if key not in seen:
                if len(seen) >= cfg.pool_capacity:
                    complete = False
                    break
                x = sol.x[: inst.n].copy()
                # the face rows hold c'x up to FACE_TOL off z_opt; without
                # them the LP completes the assignment at its optimum
                try:
                    comp = solve_lp(orig, lower=lo[: orig.ncols], upper=hi[: orig.ncols])
                except SimplexError:
                    comp = None
                if (comp is not None and comp.status == simplex.OPTIMAL
                        and inst.is_integral(comp.x)):
                    x = comp.x[: inst.n].copy()
                x[div] = key
                seen[key] = x
            continue
        j = div[pos]
        lo_v = int(np.ceil(lo[j] - INT_TOL))
        hi_v = int(np.floor(hi[j] + INT_TOL))
        for v in range(hi_v, lo_v - 1, -1):
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[j] = hi2[j] = float(v)
            stack.append((pos + 1, lo2, hi2, sol.basis))

    keys = sorted(seen)
    return EnumerationResult(
        assignments=[np.asarray(k, dtype=np.int64) for k in keys],
        points=[seen[k] for k in keys], complete=complete,
        nodes=nodes, status=OPTIMAL_PROVEN if complete else LIMIT,
    )
