"""Branch and bound with a solution pool, plus rounding, variable locks and
exhaustive enumeration of optimal assignments on the optimality face.

The solver clock is deterministic: ``ticks`` counts simplex iterations, so
identical inputs produce identical traces; the node and tick limits are the
only stop rules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .instances import (
    INT_TOL,
    MilpInstance,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    to_standard_form,
)
from . import simplex
from .simplex import LpSolution, SimplexError, solve_lp

OPTIMAL_PROVEN = "optimal_proven"
LIMIT = "limit"
INFEASIBLE = "infeasible"

BOUND_PRUNE_TOL = 1e-9
PLUNGE_DEPTH = 4


class NodeError(RuntimeError):
    """A node LP failed numerically; the node was pruned."""


# ---------------------------------------------------------------------------
# locks and rounding
# ---------------------------------------------------------------------------

def compute_locks(inst: MilpInstance):
    """Per-variable (up_locks, down_locks): the number of rows that moving
    the variable up resp. down can violate."""
    rows, cols, vals = inst.coo()
    sr = inst.senses[rows]
    nz = vals != 0
    up_mask = nz & (((sr == SENSE_LE) & (vals > 0)) | ((sr == SENSE_GE) & (vals < 0)) | (sr == SENSE_EQ))
    dn_mask = nz & (((sr == SENSE_LE) & (vals < 0)) | ((sr == SENSE_GE) & (vals > 0)) | (sr == SENSE_EQ))
    up = np.bincount(cols[up_mask], minlength=inst.n).astype(np.int64)
    down = np.bincount(cols[dn_mask], minlength=inst.n).astype(np.int64)
    return up, down


def round_solution(x, inst: MilpInstance, locks=None):
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
    frac = np.abs(xi - rounded)
    snapped = x.copy()
    snapped[idx] = rounded
    if np.max(frac) <= INT_TOL:
        return snapped if inst.is_feasible(snapped) else None
    up, down = locks if locks is not None else compute_locks(inst)
    lock_dir = x.copy()
    for k, j in enumerate(idx):
        if frac[k] <= INT_TOL:
            lock_dir[j] = rounded[k]
        elif down[j] == 0:
            lock_dir[j] = np.floor(xi[k])
        elif up[j] == 0:
            lock_dir[j] = np.ceil(xi[k])
        else:
            lock_dir[j] = rounded[k]
    np.clip(lock_dir[idx], inst.lb[idx], inst.ub[idx], out=lock_dir[idx])
    if inst.is_feasible(lock_dir):
        return lock_dir
    np.clip(snapped[idx], inst.lb[idx], inst.ub[idx], out=snapped[idx])
    if inst.is_feasible(snapped):
        return snapped
    return None


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

    def _key(self, x) -> bytes:
        div = self.inst.divable_index
        return np.round(np.asarray(x)[div]).astype(np.int64).tobytes()

    def add(self, x, z: float | None = None) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if not self.inst.is_feasible(x):
            self.rejected += 1
            return False
        if z is None:
            z = float(self.inst.c @ x)
        key = self._key(x)
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

    def objectives(self):
        return [z for z, _, _ in self.entries]

    def __len__(self):
        return len(self.entries)


class SolveTrace:
    """Monotone (tick, best upper bound, best lower bound) event sequence."""

    def __init__(self):
        self.points: list[tuple[float, float, float]] = []
        self.status = None

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
    root: LpSolution | None = None  # the root node's LP solution


class _Node:
    __slots__ = ("parent", "var", "upper", "value", "bound", "basis", "depth", "seq")

    def __init__(self, parent, var, upper, value, bound, basis, depth, seq):
        self.parent = parent
        self.var = var
        self.upper = upper
        self.value = value
        self.bound = bound
        self.basis = basis
        self.depth = depth
        self.seq = seq

    def bounds(self, base_lo, base_hi):
        """Full-column bounds: the base ones with this node's branchings applied."""
        lo = base_lo.copy()
        hi = base_hi.copy()
        node = self
        # min/max accumulation keeps the tightest change regardless of order
        while node is not None and node.var >= 0:
            if node.upper:
                hi[node.var] = min(hi[node.var], node.value)
            else:
                lo[node.var] = max(lo[node.var], node.value)
            node = node.parent
        return lo, hi


def _most_fractional(x, idx):
    xi = x[idx]
    frac = np.abs(xi - np.floor(xi + 0.5))
    if frac.size == 0 or frac.max() <= INT_TOL:
        return -1
    fractional = frac > INT_TOL
    score = np.where(fractional, np.minimum(xi - np.floor(xi), np.ceil(xi) - xi), -1.0)
    return int(idx[np.argmax(score)])


def branch_and_bound(inst: MilpInstance, cfg: SolveConfig | None = None) -> BnbResult:
    """Best-bound search with depth-first plunging, bound/integrality/
    infeasibility pruning only, and an optional diver callback at every node
    with a fractional LP point."""
    cfg = cfg or SolveConfig()
    lp = to_standard_form(inst)
    locks = compute_locks(inst)
    pool = SolutionPool(inst, cfg.pool_capacity)
    trace = SolveTrace()

    ticks = 0.0
    nodes = 0
    node_errors = 0
    dives = 0
    root_sol = None
    incumbent = None
    z_inc = np.inf
    seq = 0

    int_idx = inst.integer_index
    heap: list[tuple[float, int, _Node]] = []
    plunge: list[_Node] = []  # LIFO chain of depth-first children
    cur_bound = np.inf  # LP bound of the node currently being processed

    def global_bound():
        best = cur_bound
        if heap:
            best = min(best, heap[0][0])
        for nd in plunge:
            best = min(best, nd.bound)
        return best

    def register(x, z=None):
        nonlocal incumbent, z_inc
        if pool.add(x, z):
            bx, bz = pool.best()
            if bz < z_inc - 1e-12:
                incumbent, z_inc = bx, bz
                trace.record(ticks, z_inc, global_bound())
                return True
        return False

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
                register(sx)

    root = _Node(None, -1, False, 0.0, -np.inf, None, 0, seq)
    plunge.append(root)
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
        cur_bound = node.bound
        lo, hi = node.bounds(lp.lb, lp.ub)
        try:
            sol = solve_lp(lp, warm=node.basis, lower=lo, upper=hi)
        except SimplexError as exc:
            node_errors += 1
            cur_bound = np.inf
            if node.parent is None:
                raise NodeError(f"root LP failed: {exc}") from exc
            continue
        ticks += sol.iterations
        if node.parent is None:
            root_sol = sol
        if sol.status == simplex.INFEASIBLE:
            cur_bound = np.inf
            continue
        if sol.status != simplex.OPTIMAL:
            node_errors += 1
            cur_bound = np.inf
            continue
        node.bound = max(node.bound, sol.objective)
        cur_bound = sol.objective
        if node.parent is None:
            trace.record(ticks, z_inc, sol.objective)
        if sol.objective >= z_inc - BOUND_PRUNE_TOL:
            cur_bound = np.inf
            continue
        x = sol.x[: inst.n]
        branch_var = _most_fractional(x, int_idx)
        if branch_var < 0:
            register(x, sol.objective)
            cur_bound = np.inf
            continue
        rounded = round_solution(x, inst, locks)
        if rounded is not None:
            register(rounded)
        if cfg.diver is not None:
            run_diver(sol, lo, hi)
        if sol.objective >= z_inc - BOUND_PRUNE_TOL:
            cur_bound = np.inf
            continue
        # children: down (upper bound floor) first so plunging goes down
        up_child = _Node(node, branch_var, False, float(np.ceil(x[branch_var])),
                         sol.objective, sol.basis, node.depth + 1, seq)
        dn_child = _Node(node, branch_var, True, float(np.floor(x[branch_var])),
                         sol.objective, sol.basis, node.depth + 1, seq)
        plunge.append(up_child)
        plunge.append(dn_child)
        cur_bound = np.inf
        trace.record(ticks, z_inc, global_bound())
    else:
        status = OPTIMAL_PROVEN if incumbent is not None else INFEASIBLE
    cur_bound = np.inf

    final_bound = z_inc if status == OPTIMAL_PROVEN else global_bound()
    trace.record(ticks, z_inc, final_bound)
    trace.status = status
    return BnbResult(
        status=status, x=incumbent, objective=z_inc, bound=final_bound,
        pool=pool, trace=trace, nodes=nodes, ticks=ticks,
        node_errors=node_errors, dives=dives, root=root_sol,
    )


# ---------------------------------------------------------------------------
# enumeration of optimal assignments (solution counting / augmentation)
# ---------------------------------------------------------------------------

@dataclass
class EnumerationResult:
    optimum: float | None
    assignments: list
    complete: bool
    nodes: int
    status: str


def enumerate_optima(inst: MilpInstance, cfg: SolveConfig | None = None,
                     face_tol: float = 1e-6) -> EnumerationResult:
    """All distinct optimal assignments of the divable variables: solves to
    proven optimality, then walks the optimal face
    (``enumerate_optimal_face``)."""
    cfg = cfg or SolveConfig()
    base = branch_and_bound(inst, SolveConfig(
        node_limit=cfg.node_limit, tick_limit=cfg.tick_limit,
        pool_capacity=cfg.pool_capacity,
    ))
    if base.status != OPTIMAL_PROVEN:
        return EnumerationResult(
            optimum=None if base.x is None else base.objective,
            assignments=[], complete=False, nodes=base.nodes, status=base.status,
        )
    return enumerate_optimal_face(inst, base.objective, cfg, face_tol)


def enumerate_optimal_face(inst: MilpInstance, z_opt: float, cfg: SolveConfig,
                           face_tol: float = 1e-6) -> EnumerationResult:
    """All distinct assignments of the divable variables on the face of
    proven optimum ``z_opt``.

    Restricts the objective to the optimal face (two inequality rows at
    ``face_tol``) and depth-first fixes every divable variable, pruning only
    on LP infeasibility.  The result is deduplicated and capped at
    ``cfg.pool_capacity``; hitting a limit is reported as an incomplete
    enumeration, not an error.
    """
    dense_c = inst.c.copy()
    face = inst.with_extra_rows(
        [dense_c, dense_c], [SENSE_LE, SENSE_GE],
        [z_opt + face_tol, z_opt - face_tol], name_suffix="face",
    )
    lp = to_standard_form(face)
    div = [int(j) for j in inst.divable_index]
    other_int = np.setdiff1d(inst.integer_index, div)

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
            x = sol.x[: inst.n]
            if other_int.size:
                oi = x[other_int]
                if np.max(np.abs(oi - np.round(oi))) > INT_TOL:
                    continue
            key = tuple(int(round(v)) for v in np.asarray(lo)[div])
            if key not in seen:
                if len(seen) >= cfg.pool_capacity:
                    complete = False
                    break
                seen[key] = float(sol.objective)
            continue
        j = div[pos]
        lo_v = int(np.ceil(lo[j] - INT_TOL))
        hi_v = int(np.floor(hi[j] + INT_TOL))
        for v in range(hi_v, lo_v - 1, -1):
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[j] = hi2[j] = float(v)
            stack.append((pos + 1, lo2, hi2, sol.basis))

    assignments = [np.asarray(k, dtype=np.int64) for k in sorted(seen)]
    return EnumerationResult(
        optimum=z_opt, assignments=assignments, complete=complete,
        nodes=nodes, status=OPTIMAL_PROVEN if complete else LIMIT,
    )
