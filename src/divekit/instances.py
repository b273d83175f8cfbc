"""MILP instance data model, standard-form conversion, generators and file I/O.

An instance is the minimization problem

    min c'x   s.t.  A x {<=,>=,=} b,   lb <= x <= ub,   x_j integral for j in I

held in sparse row form.  Maximization families (auctions, independent set)
are stored with a negated objective so there is a single canonical sense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .kernels import row_activities

SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2
SENSE_NAMES = {SENSE_LE: "LE", SENSE_GE: "GE", SENSE_EQ: "EQ"}
SENSE_CODES = {v: k for k, v in SENSE_NAMES.items()}

#: file-format threshold: ``make_instance`` turns a bound this large into
#: +-inf, so a built instance's bound is infinite only if it is +-inf
INF_BOUND = 1e20

FEAS_TOL = 1e-7
INT_TOL = 1e-6

FAMILIES = ("set-cover", "comb-auction", "facility-location", "indep-set")


def fractionality(x):
    """Distance of each value to its round-half-up nearest integer,
    ``|x - floor(x + 1/2)|``; a value is fractional when this exceeds
    ``INT_TOL``."""
    return np.abs(x - np.floor(x + 0.5))


class InstanceError(ValueError):
    """An instance violates its structural invariants."""


class ParseError(ValueError):
    def __init__(self, reason, line=None):
        self.line = line
        self.reason = reason
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{reason}{where}")


class UnsupportedFeature(ParseError):
    """File uses a feature outside the supported subset."""


class InfeasibleConstruction(RuntimeError):
    """Randomized generator could not satisfy its feasibility guarantees."""


@dataclass
class MilpInstance:
    name: str
    c: np.ndarray
    A: sp.csr_matrix
    senses: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    divable: np.ndarray
    var_names: list[str] | None = None
    row_names: list[str] | None = None
    _coo_cache: tuple | None = field(default=None, repr=False, compare=False)
    _counts_cache: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.c.shape[0])

    @property
    def m(self) -> int:
        return int(self.b.shape[0])

    @property
    def integer_index(self) -> np.ndarray:
        return np.flatnonzero(self.integer)

    @property
    def divable_index(self) -> np.ndarray:
        return np.flatnonzero(self.divable)

    def candidates(self, lower=None, upper=None) -> np.ndarray:
        """The variables a dive may branch on: divable and not fixed by the
        (full-column) bounds ``lower``/``upper``, by default the instance's."""
        lo, hi = (self.lb, self.ub) if lower is None else (lower[: self.n], upper[: self.n])
        return np.flatnonzero(self.divable & (lo + INT_TOL < hi))

    def solution_key(self, x) -> bytes:
        """Identity of a solution: its rounded divable values."""
        return np.round(np.asarray(x)[self.divable_index]).astype(np.int64).tobytes()

    def is_integral(self, x) -> bool:
        """Every integer column of ``x[:n]`` within ``INT_TOL`` of an integer."""
        xi = np.asarray(x)[: self.n][self.integer]
        return xi.size == 0 or float(np.max(np.abs(xi - np.round(xi)))) <= INT_TOL

    def coo(self):
        """(rows, cols, vals) triplets in row-major order."""
        if self._coo_cache is None:
            coo = self.A.tocoo()
            order = np.lexsort((coo.col, coo.row))
            self._coo_cache = (
                coo.row[order].astype(np.int64),
                coo.col[order].astype(np.int64),
                coo.data[order].astype(np.float64),
            )
        return self._coo_cache

    def column_counts(self):
        """(up_locks, down_locks, degrees) per variable, computed once: the
        number of rows that moving the variable up resp. down can violate,
        and the number of rows it appears in."""
        if self._counts_cache is None:
            rows, cols, vals = self.coo()
            sr = self.senses[rows]
            nz, eq = vals != 0, sr == SENSE_EQ
            up = nz & (eq | ((sr == SENSE_LE) & (vals > 0)) | ((sr == SENSE_GE) & (vals < 0)))
            down = nz & (eq | ((sr == SENSE_LE) & (vals < 0)) | ((sr == SENSE_GE) & (vals > 0)))
            self._counts_cache = (
                np.bincount(cols[up], minlength=self.n).astype(np.int64),
                np.bincount(cols[down], minlength=self.n).astype(np.int64),
                np.bincount(cols, minlength=self.n),
            )
        return self._counts_cache

    def activities(self, x: np.ndarray) -> np.ndarray:
        rows, cols, vals = self.coo()
        return row_activities(rows, cols, vals, np.asarray(x, dtype=np.float64), self.m)

    def is_feasible(self, x) -> bool:
        """Feasibility of ``x`` for the original mixed-integer problem."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            return False
        if np.any(x < self.lb - FEAS_TOL) or np.any(x > self.ub + FEAS_TOL):
            return False
        if not self.is_integral(x):
            return False
        act = self.activities(x)
        scale = 1.0 + np.abs(self.b)
        for sense, ok in (
            (SENSE_LE, lambda a, rhs, s: a <= rhs + FEAS_TOL * s),
            (SENSE_GE, lambda a, rhs, s: a >= rhs - FEAS_TOL * s),
            (SENSE_EQ, lambda a, rhs, s: np.abs(a - rhs) <= FEAS_TOL * s),
        ):
            mask = self.senses == sense
            if mask.any() and not np.all(ok(act[mask], self.b[mask], scale[mask])):
                return False
        return True

    def with_extra_rows(self, rows, senses, rhs, name_suffix="aux") -> "MilpInstance":
        """New instance with dense ``rows`` appended (used for optimality-face
        restrictions); bounds and variables are unchanged."""
        extra = sp.csr_matrix(np.atleast_2d(np.asarray(rows, dtype=np.float64)))
        A = sp.vstack([self.A, extra], format="csr")
        return replace(
            self,
            name=f"{self.name}_{name_suffix}",
            A=A,
            senses=np.concatenate([self.senses, np.asarray(senses, dtype=self.senses.dtype)]),
            b=np.concatenate([self.b, np.asarray(rhs, dtype=np.float64)]),
            row_names=None,
            _coo_cache=None,
            _counts_cache=None,
        )


def _index(field, values, size) -> np.ndarray:
    """``values`` as int64 indices; each must be an integer in [0, size)."""
    index = np.asarray(values)
    if index.size and not np.issubdtype(index.dtype, np.integer):
        raise InstanceError(f"{field} holds {index.dtype} values, not indices")
    if np.any((index < 0) | (index >= size)):
        raise InstanceError(f"{field} index outside [0, {size})")
    return index.astype(np.int64)


def _sense_code(sense) -> int:
    """The code of a row sense: ``"LE"``, ``"GE"``, ``"EQ"`` or a non-bool integer 0, 1 or 2."""
    code = SENSE_CODES.get(sense) if isinstance(sense, str) else sense
    if isinstance(code, bool) or not isinstance(code, (int, np.integer)) or code not in SENSE_NAMES:
        raise InstanceError(f"unknown row sense {sense!r}; a sense is 'LE', 'GE', 'EQ' or 0, 1, 2")
    return int(code)


def make_instance(name, c, rows, senses, b, lb, ub, integer, divable=None,
                  var_names=None, row_names=None) -> MilpInstance:
    """Build an instance from ``(row, col, value)`` triplets: ``len(b)`` rows
    and ``len(c)`` columns.  The only check of an instance, which every
    reader and generator goes through: it refuses two triplets at one (row,
    col) (not summed), an index outside the matrix, a vector of the wrong
    length, non-finite data, a NaN or crossed bound, a divable column that
    is not integer and an unknown row sense (``_sense_code``)."""
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = c.shape[0], b.shape[0]
    if any(len(t) != 3 for t in rows):
        raise InstanceError("rows must be (row, col, value) triplets")
    ii = _index("triplet row", [t[0] for t in rows], m)
    jj = _index("triplet column", [t[1] for t in rows], n)
    if np.unique(ii * n + jj).size != ii.size:  # the CSR constructor would sum them
        raise InstanceError("duplicate (row, col) entry")
    vals = np.array([t[2] for t in rows], dtype=np.float64)
    A = sp.csr_matrix((vals, (ii, jj)), shape=(m, n))
    senses = np.array([_sense_code(s) for s in senses], dtype=np.int8)
    lb = np.array(lb, dtype=np.float64)
    ub = np.array(ub, dtype=np.float64)
    for field, v, size in (("lb", lb, n), ("ub", ub, n), ("senses", senses, m)):
        if v.shape != (size,):
            raise InstanceError(f"{field} has shape {v.shape}, expected ({size},)")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
        raise InstanceError("non-finite objective or rhs")
    if not np.all(np.isfinite(vals)):
        raise InstanceError("non-finite constraint coefficient")

    def column_mask(field, index):
        return np.bincount(_index(field, index, n), minlength=n) > 0

    integer_mask = column_mask("integer", integer)
    divable_mask = integer_mask.copy() if divable is None else column_mask("divable", divable)
    if np.any(divable_mask & ~integer_mask):
        raise InstanceError("divable variable is not integer")
    # one convention for infinite bounds: |v| >= INF_BOUND becomes +-inf
    lb[lb <= -INF_BOUND] = -np.inf
    ub[ub >= INF_BOUND] = np.inf
    if not np.all(lb <= ub):
        raise InstanceError("a bound is NaN or a lower bound exceeds its upper bound")
    return MilpInstance(
        name=name,
        c=c,
        A=A,
        senses=senses,
        b=b,
        lb=lb,
        ub=ub,
        integer=integer_mask,
        divable=divable_mask,
        var_names=list(var_names) if var_names is not None else None,
        row_names=list(row_names) if row_names is not None else None,
    )


# ---------------------------------------------------------------------------
# standard form
# ---------------------------------------------------------------------------

@dataclass
class StandardLp:
    """Equality-form LP ``min c'x s.t. Ax = b, lb <= x <= ub``.

    Columns ``[0, slack_start)`` are the original variables, and column
    ``slack_start + i`` is row ``i``'s logical column: a +1 slack in
    [0, inf) for an LE row, a -1 surplus in [0, inf) for a GE row, and a +1
    column fixed at [0, 0] for an EQ row; ``logical_sign[i]`` is that +1 or
    -1.  The logical columns form the simplex's cold basis.  ``dense()`` and
    ``transpose()`` are built once per LP and shared by every solve of it.
    """

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    logical_sign: np.ndarray
    _dense: np.ndarray | None = field(default=None, repr=False, compare=False)
    _transpose: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def ncols(self) -> int:
        return int(self.c.shape[0])

    @property
    def nrows(self) -> int:
        return int(self.b.shape[0])

    @property
    def slack_start(self) -> int:
        return self.ncols - self.nrows

    def dense(self) -> np.ndarray:
        """``A`` as a dense array, for the simplex's basis kernel, its
        coupling rows and the entering columns it ftrans."""
        if self._dense is None:
            self._dense = self.A.toarray()
        return self._dense

    def transpose(self) -> sp.csr_matrix:
        """``A'`` in CSR form, for pricing and dual pivot rows."""
        if self._transpose is None:
            self._transpose = self.A.T.tocsr()
        return self._transpose

    def full_point(self, x_orig: np.ndarray) -> np.ndarray:
        """Extend a point on the original variables with the implied logical
        values so that ``A x = b`` holds exactly."""
        n = self.slack_start
        x_orig = np.asarray(x_orig, dtype=np.float64)
        logical = (self.b - self.A[:, :n] @ x_orig) / self.logical_sign
        return np.concatenate([x_orig, logical])


def to_standard_form(inst: MilpInstance) -> StandardLp:
    """Convert to equality form by appending one logical column per row."""
    m = inst.m
    rows = np.arange(m)
    sign = np.where(inst.senses == SENSE_GE, -1.0, 1.0)
    logical = sp.csr_matrix((sign, (rows, rows)), shape=(m, m))
    return StandardLp(
        c=np.concatenate([inst.c, np.zeros(m)]),
        A=sp.hstack([inst.A, logical], format="csr"),
        b=inst.b.copy(),
        lb=np.concatenate([inst.lb, np.zeros(m)]),
        ub=np.concatenate([inst.ub, np.where(inst.senses == SENSE_EQ, 0.0, np.inf)]),
        logical_sign=sign,
    )


# ---------------------------------------------------------------------------
# benchmark-family generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorConfig:
    """Family selector plus size parameters; identical configs generate
    byte-identical instances."""

    family: str
    seed: int = 0
    # set cover
    rows: int = 100
    cols: int = 200
    density: float = 0.05
    max_cost: int = 100
    # combinatorial auction
    items: int = 50
    bids: int = 150
    # capacitated facility location
    customers: int = 15
    facilities: int = 15
    capacity_ratio: float = 2.0
    # maximum independent set
    nodes: int = 120
    affinity: int = 4

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {FAMILIES}")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        positive = ("rows", "cols", "max_cost", "items", "bids",
                    "customers", "facilities", "nodes")
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.affinity < 0 or self.affinity >= self.nodes:
            raise ValueError("affinity must be in [0, nodes)")
        if self.capacity_ratio < 1.0:
            raise ValueError("capacity_ratio must be >= 1")


def generate(config: GeneratorConfig) -> MilpInstance:
    config.validate()
    rng = np.random.default_rng(config.seed)
    if config.family == "set-cover":
        inst = _gen_set_cover(config.rows, config.cols, config.density, config.max_cost, rng)
    elif config.family == "comb-auction":
        inst = _gen_comb_auction(config.items, config.bids, rng)
    elif config.family == "facility-location":
        inst = _gen_facility(config.customers, config.facilities, config.capacity_ratio, rng)
    else:
        inst = _gen_indep_set(config.nodes, config.affinity, rng)
    inst.name = f"{config.family}_s{config.seed}"
    return inst


def _gen_set_cover(n_rows, n_cols, density, max_cost, rng) -> MilpInstance:
    """Random covering instance: every element is in >= 2 sets, every set is
    nonempty, so the all-ones point is always feasible."""
    if n_cols < 2:
        raise InfeasibleConstruction("set cover needs at least 2 columns")
    pairs = set()
    for i in range(n_rows):
        for j in rng.choice(n_cols, size=2, replace=False):
            pairs.add((i, int(j)))
    target = int(round(n_rows * n_cols * density))
    attempts = 0
    while len(pairs) < target:
        attempts += 1
        if attempts > 200:
            raise InfeasibleConstruction("could not reach requested density")
        ii = rng.integers(0, n_rows, size=target)
        jj = rng.integers(0, n_cols, size=target)
        for i, j in zip(ii, jj):
            pairs.add((int(i), int(j)))
            if len(pairs) >= target:
                break
    covered = {j for _, j in pairs}
    for j in range(n_cols):
        if j not in covered:
            pairs.add((int(rng.integers(0, n_rows)), j))
    triplets = [(i, j, 1.0) for i, j in sorted(pairs)]
    costs = rng.integers(1, max_cost + 1, size=n_cols).astype(np.float64)
    return make_instance(
        name="set-cover",
        c=costs,
        rows=triplets,
        senses=[SENSE_GE] * n_rows,
        b=np.ones(n_rows),
        lb=np.zeros(n_cols),
        ub=np.ones(n_cols),
        integer=np.arange(n_cols),
    )


def _gen_comb_auction(n_items, n_bids, rng) -> MilpInstance:
    """Set-packing auction: one binary per bid, at most one winning bid per
    item; stored negated as a minimization."""
    values = rng.uniform(1.0, 100.0, size=n_items)
    bundles, prices = [], []
    while len(bundles) < n_bids:
        size = int(min(1 + rng.poisson(2.0), n_items))
        bundle = np.sort(rng.choice(n_items, size=size, replace=False))
        price = float(values[bundle].sum() * (1.0 + rng.uniform(-0.1, 0.3)) + size ** 1.3)
        bundles.append(bundle)
        prices.append(price)
    item_rows = {}
    for k, bundle in enumerate(bundles):
        for item in bundle:
            item_rows.setdefault(int(item), []).append(k)
    used_items = sorted(item_rows)
    triplets = []
    for i, item in enumerate(used_items):
        for k in item_rows[item]:
            triplets.append((i, k, 1.0))
    m = len(used_items)
    return make_instance(
        name="comb-auction",
        c=-np.asarray(prices),
        rows=sorted(triplets),
        senses=[SENSE_LE] * m,
        b=np.ones(m),
        lb=np.zeros(n_bids),
        ub=np.ones(n_bids),
        integer=np.arange(n_bids),
    )


def _gen_facility(n_customers, n_facilities, ratio, rng) -> MilpInstance:
    """Capacitated facility location: binary open decisions y_j followed by
    continuous service fractions x_ij (variable order: all y, then x in
    customer-major order).  Total capacity >= total demand by construction."""
    cx, cy = rng.random(n_customers), rng.random(n_customers)
    fx, fy = rng.random(n_facilities), rng.random(n_facilities)
    demand = rng.integers(5, 36, size=n_customers).astype(np.float64)
    cap = rng.integers(10, 161, size=n_facilities).astype(np.float64)
    fixed = (
        rng.integers(100, 111, size=n_facilities) * np.sqrt(cap)
        + rng.integers(0, 91, size=n_facilities)
    ).astype(np.int64).astype(np.float64)
    cap = np.floor(cap * ratio * demand.sum() / cap.sum())
    while cap.sum() < demand.sum():
        cap[int(np.argmax(cap))] += 1.0
    dist = np.sqrt((cx[:, None] - fx[None, :]) ** 2 + (cy[:, None] - fy[None, :]) ** 2)
    trans = 10.0 * dist * demand[:, None]

    F, C = n_facilities, n_customers

    def x_col(i, j):
        return F + i * F + j

    triplets = []
    senses, b, row_names = [], [], []
    # serve each customer fully
    for i in range(C):
        for j in range(F):
            triplets.append((len(b), x_col(i, j), 1.0))
        senses.append(SENSE_GE)
        b.append(1.0)
        row_names.append(f"demand_{i}")
    # facility capacity
    for j in range(F):
        r = len(b)
        for i in range(C):
            triplets.append((r, x_col(i, j), demand[i]))
        triplets.append((r, j, -cap[j]))
        senses.append(SENSE_LE)
        b.append(0.0)
        row_names.append(f"capacity_{j}")
    # aggregate capacity (tightens the relaxation)
    r = len(b)
    for j in range(F):
        triplets.append((r, j, cap[j]))
    senses.append(SENSE_GE)
    b.append(float(demand.sum()))
    row_names.append("total_capacity")
    # no service from a closed facility
    for i in range(C):
        for j in range(F):
            r = len(b)
            triplets.append((r, x_col(i, j), 1.0))
            triplets.append((r, j, -1.0))
            senses.append(SENSE_LE)
            b.append(0.0)
            row_names.append(f"open_{i}_{j}")

    n = F + C * F
    c = np.concatenate([fixed, trans.reshape(-1)])
    var_names = [f"y_{j}" for j in range(F)] + [
        f"x_{i}_{j}" for i in range(C) for j in range(F)
    ]
    return make_instance(
        name="facility-location",
        c=c,
        rows=triplets,
        senses=senses,
        b=np.asarray(b),
        lb=np.zeros(n),
        ub=np.ones(n),
        integer=np.arange(F),
        var_names=var_names,
        row_names=row_names,
    )


def _barabasi_albert(n_nodes, affinity, rng):
    edges = set()
    deg = np.zeros(n_nodes, dtype=np.int64)
    neighbors = {v: set() for v in range(n_nodes)}
    if affinity == 0:
        return edges, deg, neighbors
    for new in range(affinity, n_nodes):
        if new == affinity:
            attach = np.arange(new)
        else:
            p = deg[:new] / deg[:new].sum()
            attach = rng.choice(new, size=affinity, replace=False, p=p)
        for v in attach:
            v = int(v)
            edges.add((v, new))
            deg[v] += 1
            deg[new] += 1
            neighbors[v].add(new)
            neighbors[new].add(v)
    return edges, deg, neighbors


def _greedy_clique_partition(n_nodes, deg, neighbors):
    cliques = []
    leftover = sorted(range(n_nodes), key=lambda v: (-deg[v], v))
    left_set = set(leftover)
    for center in list(leftover):
        if center not in left_set:
            continue
        clique = {center}
        cand = sorted(neighbors[center] & left_set, key=lambda v: (-deg[v], v))
        for v in cand:
            if all(v in neighbors[u] for u in clique):
                clique.add(v)
        cliques.append(clique)
        left_set -= clique
    return cliques


def _gen_indep_set(n_nodes, affinity, rng) -> MilpInstance:
    """Maximum independent set on a preferential-attachment graph with
    clique-merged packing rows; stored negated as a minimization."""
    edges, deg, neighbors = _barabasi_albert(n_nodes, affinity, rng)
    cliques = _greedy_clique_partition(n_nodes, deg, neighbors)
    groups = set(edges)
    for clique in cliques:
        cl = tuple(sorted(clique))
        for a in range(len(cl)):
            for bb in range(a + 1, len(cl)):
                groups.discard((cl[a], cl[bb]))
        if len(cl) > 1:
            groups.add(cl)
    groups = sorted(groups)
    triplets = []
    for r, group in enumerate(groups):
        for v in group:
            triplets.append((r, v, 1.0))
    m = len(groups)
    return make_instance(
        name="indep-set",
        c=-np.ones(n_nodes),
        rows=triplets,
        senses=[SENSE_LE] * m,
        b=np.ones(m),
        lb=np.zeros(n_nodes),
        ub=np.ones(n_nodes),
        integer=np.arange(n_nodes),
    )


# ---------------------------------------------------------------------------
# file I/O: native JSON (read/write) and an MPS subset (read only)
# ---------------------------------------------------------------------------

JSON_FORMAT = "divekit-instance"
JSON_VERSION = 1
_JSON_FIELDS = ("n", "m", "c", "rows", "sense", "b", "lb", "ub", "int", "divable")


def _bound_out(v):
    return None if not np.isfinite(v) or abs(v) >= INF_BOUND else float(v)


def write_instance(inst: MilpInstance, path) -> None:
    path = Path(path)
    if path.suffix.lower() == ".mps":
        raise UnsupportedFeature("MPS export is not supported; write JSON instead")
    rows, cols, vals = inst.coo()
    doc = {
        "format": JSON_FORMAT,
        "version": JSON_VERSION,
        "name": inst.name,
        "n": inst.n,
        "m": inst.m,
        "c": [float(v) for v in inst.c],
        "rows": [[int(i), int(j), float(v)] for i, j, v in zip(rows, cols, vals)],
        "sense": [SENSE_NAMES[int(s)] for s in inst.senses],
        "b": [float(v) for v in inst.b],
        "lb": [_bound_out(v) for v in inst.lb],
        "ub": [_bound_out(v) for v in inst.ub],
        "int": [int(j) for j in inst.integer_index],
        "divable": [int(j) for j in inst.divable_index],
        "var_names": inst.var_names,
        "row_names": inst.row_names,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _bound_in(v, default):
    return default if v is None else float(v)


def read_instance(path) -> MilpInstance:
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _read_json(text, path)
    return _read_mps(text)


def _read_json(text, path) -> MilpInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if doc.get("format") != JSON_FORMAT:
        raise ParseError(f"not a {JSON_FORMAT} file: {path}")
    if doc.get("version") != JSON_VERSION:
        raise UnsupportedFeature(f"unsupported schema version {doc.get('version')}")
    missing = [key for key in _JSON_FIELDS if key not in doc]
    if missing:
        raise ParseError(f"{path}: missing field {', '.join(map(repr, missing))}")
    if (doc["n"], doc["m"]) != (len(doc["c"]), len(doc["b"])):
        raise ParseError(f"header says n={doc['n']}, m={doc['m']}, but c has "
                         f"{len(doc['c'])} entries and b {len(doc['b'])}")
    return make_instance(
        name=doc.get("name", path.stem),
        c=doc["c"],
        rows=[tuple(t) for t in doc["rows"]],
        senses=doc["sense"],
        b=doc["b"],
        lb=[_bound_in(v, -np.inf) for v in doc["lb"]],
        ub=[_bound_in(v, np.inf) for v in doc["ub"]],
        integer=doc["int"],
        divable=doc["divable"],
        var_names=doc.get("var_names"),
        row_names=doc.get("row_names"),
    )


_MPS_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "RANGES", "OBJSENSE", "SOS"}


def _read_mps(text) -> MilpInstance:
    """Fixed-form MPS subset: N/L/G/E rows, COLUMNS with INTORG/INTEND
    markers, one RHS set, BOUNDS types UP/LO/FX/BV.  Integer variables
    default to bounds [0, inf) unless a BOUNDS entry says otherwise."""
    name = "mps"
    section = None
    obj_row = None
    row_sense: dict[str, int] = {}
    row_order: list[str] = []
    col_order: list[str] = []
    col_entries: dict[str, dict[str, float]] = {}
    obj_coef: dict[str, float] = {}
    rhs: dict[str, float] = {}
    integer_cols: set[str] = set()
    bounds: dict[str, list[float]] = {}
    in_integer = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith("*"):
            continue
        if line[0] not in " \t":
            tokens = line.split()
            head = tokens[0].upper()
            if head not in _MPS_SECTIONS:
                raise UnsupportedFeature(f"unknown MPS section {head!r}", line=lineno)
            if head in ("RANGES", "OBJSENSE", "SOS"):
                raise UnsupportedFeature(f"MPS section {head} is outside the supported subset",
                                         line=lineno)
            section = head
            if head == "NAME" and len(tokens) > 1:
                name = tokens[1]
            if head == "ENDATA":
                break
            continue
        tokens = line.split()
        if section == "ROWS":
            if len(tokens) != 2:
                raise ParseError("malformed ROWS entry", line=lineno)
            kind, rname = tokens[0].upper(), tokens[1]
            if kind == "N":
                if obj_row is not None:
                    raise UnsupportedFeature("multiple objective (N) rows", line=lineno)
                obj_row = rname
            elif kind in ("L", "G", "E"):
                row_sense[rname] = {"L": SENSE_LE, "G": SENSE_GE, "E": SENSE_EQ}[kind]
                row_order.append(rname)
            else:
                raise ParseError(f"unknown row type {kind!r}", line=lineno)
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1].strip("'\"").upper() == "MARKER":
                flag = tokens[-1].strip("'\"").upper()
                if flag == "INTORG":
                    in_integer = True
                elif flag == "INTEND":
                    in_integer = False
                else:
                    raise ParseError(f"unknown marker {flag!r}", line=lineno)
                continue
            if len(tokens) % 2 != 1 or len(tokens) < 3:
                raise ParseError("malformed COLUMNS entry", line=lineno)
            cname = tokens[0]
            if cname not in col_entries:
                col_entries[cname] = {}
                col_order.append(cname)
                if in_integer:
                    integer_cols.add(cname)
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                try:
                    fval = float(val)
                except ValueError:
                    raise ParseError(f"bad numeric value {val!r}", line=lineno) from None
                if rname == obj_row:
                    obj_coef[cname] = obj_coef.get(cname, 0.0) + fval
                elif rname in row_sense:
                    if rname in col_entries[cname]:
                        raise ParseError(f"duplicate entry for ({rname}, {cname})", line=lineno)
                    col_entries[cname][rname] = fval
                else:
                    raise ParseError(f"unknown row {rname!r}", line=lineno)
        elif section == "RHS":
            if len(tokens) % 2 != 1 or len(tokens) < 3:
                raise ParseError("malformed RHS entry", line=lineno)
            for rname, val in zip(tokens[1::2], tokens[2::2]):
                if rname == obj_row:
                    raise UnsupportedFeature("objective-row RHS (objective constant)",
                                             line=lineno)
                if rname not in row_sense:
                    raise ParseError(f"unknown row {rname!r}", line=lineno)
                rhs[rname] = float(val)
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            if kind in ("MI", "PL", "FR", "UI", "LI", "BM"):
                raise UnsupportedFeature(f"bound type {kind} is outside the supported subset",
                                         line=lineno)
            if kind not in ("UP", "LO", "FX", "BV"):
                raise ParseError(f"unknown bound type {kind!r}", line=lineno)
            if kind == "BV":
                if len(tokens) < 3:
                    raise ParseError("malformed BV bound", line=lineno)
                cname = tokens[2]
                bounds[cname] = [0.0, 1.0]
                integer_cols.add(cname)
                continue
            if len(tokens) < 4:
                raise ParseError("malformed bound entry", line=lineno)
            cname, val = tokens[2], float(tokens[3])
            cur = bounds.setdefault(cname, [0.0, np.inf])
            if kind == "UP":
                cur[1] = val
            elif kind == "LO":
                cur[0] = val
            else:  # FX
                cur[0] = cur[1] = val
        elif section == "NAME":
            continue
        else:
            raise ParseError("data line outside any section", line=lineno)

    if obj_row is None:
        raise ParseError("no objective (N) row")
    n = len(col_order)
    row_index = {rname: i for i, rname in enumerate(row_order)}
    triplets = []
    for j, cname in enumerate(col_order):
        for rname, val in col_entries[cname].items():
            triplets.append((row_index[rname], j, val))
    c = np.array([obj_coef.get(cname, 0.0) for cname in col_order])
    b = np.array([rhs.get(rname, 0.0) for rname in row_order])
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for j, cname in enumerate(col_order):
        if cname in bounds:
            lb[j], ub[j] = bounds[cname]
    integer = [j for j, cname in enumerate(col_order) if cname in integer_cols]
    divable = [j for j in integer if lb[j] < ub[j]]
    return make_instance(
        name=name, c=c, rows=sorted(triplets),
        senses=[row_sense[rname] for rname in row_order],
        b=b, lb=lb, ub=ub, integer=integer, divable=divable,
        var_names=col_order, row_names=row_order,
    )
