import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from divekit.instances import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    GeneratorConfig,
    generate,
    make_instance,
    to_standard_form,
)
from divekit.simplex import solve_lp


def rooted(inst):
    """The root keywords ``dive`` and ``branch_and_bound`` take for ``inst``:
    its standard form ``lp`` and ``root_sol``, the cold solve of ``lp``, as
    ``harness.solve_root`` hands them on."""
    lp = to_standard_form(inst)
    return {"lp": lp, "root_sol": solve_lp(lp)}


def reference_feasible(inst, x, feas_tol=1e-7, int_tol=1e-6):
    """Test-local feasibility check: dense matrix, explicit loops, no shared
    code with the solver's checker."""
    x = np.asarray(x, dtype=np.float64)
    A = inst.A.toarray()
    for j in range(inst.n):
        if x[j] < inst.lb[j] - feas_tol or x[j] > inst.ub[j] + feas_tol:
            return False
        if inst.integer[j] and abs(x[j] - round(x[j])) > int_tol:
            return False
    for i in range(inst.m):
        lhs = float(A[i] @ x)
        rhs = float(inst.b[i])
        s = 1.0 + abs(rhs)
        if inst.senses[i] == SENSE_LE and lhs > rhs + feas_tol * s:
            return False
        if inst.senses[i] == SENSE_GE and lhs < rhs - feas_tol * s:
            return False
        if inst.senses[i] == SENSE_EQ and abs(lhs - rhs) > feas_tol * s:
            return False
    return True


def brute_binary_optimum(inst):
    """Test-local exhaustive optimum over all 0/1 assignments (pure-binary
    instances only); returns (z, x, set of optimal assignments)."""
    assert inst.n <= 16
    best = np.inf
    best_x = None
    optima = set()
    for bits in itertools.product((0.0, 1.0), repeat=inst.n):
        x = np.array(bits)
        if not reference_feasible(inst, x):
            continue
        z = float(inst.c @ x)
        if z < best - 1e-9:
            best = z
            best_x = x
            optima = {tuple(int(v) for v in x)}
        elif abs(z - best) <= 1e-9:
            optima.add(tuple(int(v) for v in x))
    return best, best_x, optima


def mps_without_bounds(inst):
    """``inst`` as fixed-form MPS text with every column integer and no
    BOUNDS section, so each integer column reads back with bounds [0, inf)."""
    sense = {SENSE_LE: "L", SENSE_GE: "G", SENSE_EQ: "E"}
    A = inst.A.tocsc()
    lines = [f"NAME          {inst.name}", "ROWS", " N  COST"]
    lines += [f" {sense[int(s)]}  R{i}" for i, s in enumerate(inst.senses)]
    lines += ["COLUMNS", "    MARKER                 'MARKER'                 'INTORG'"]
    for j in range(inst.n):
        lines.append(f"    X{j}  COST  {float(inst.c[j])!r}")
        for k in range(A.indptr[j], A.indptr[j + 1]):
            lines.append(f"    X{j}  R{A.indices[k]}  {float(A.data[k])!r}")
    lines += ["    MARKER                 'MARKER'                 'INTEND'", "RHS"]
    lines += [f"    RHS  R{i}  {float(v)!r}" for i, v in enumerate(inst.b)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps_instances(out_dir, count, name=None):
    """``count`` set-cover instances (25 rows, 50 columns) as MPS without
    BOUNDS, with the manifest ``gen`` writes next to them.  With ``name``,
    every NAME line reads ``name`` and the files are ``{name}{seed}.mps``."""
    out_dir = Path(out_dir)
    (out_dir / "instances").mkdir(parents=True)
    names = []
    for s in range(count):
        inst = generate(GeneratorConfig("set-cover", seed=s, rows=25, cols=50, density=0.1))
        if name is not None:
            inst = dataclasses.replace(inst, name=name)
        names.append(f"{inst.name if name is None else name + str(s)}.mps")
        (out_dir / "instances" / names[-1]).write_text(mps_without_bounds(inst))
    (out_dir / "manifest.json").write_text(json.dumps({"instances": names}))
    return out_dir


def tiny_lp(c, rows, senses, b, lb, ub, name="lp"):
    m = len(b)
    triplets = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v != 0]
    return make_instance(name, c=c, rows=triplets, senses=senses, b=b,
                         lb=lb, ub=ub, integer=[])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
