"""Independent reference oracles for verification suites.

These deliberately avoid the package's simplex and search code paths:
basic-solution enumeration uses plain dense linear algebra, MILP brute force
enumerates assignments directly (with scipy's LP solver for continuous
completion), and the feasibility recheck works on a dense matrix copy.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .instances import MilpInstance, SENSE_EQ, SENSE_GE, SENSE_LE

LP_OPTIMAL = "optimal"
LP_INFEASIBLE = "infeasible"


def check_feasible_reference(inst: MilpInstance, x, feas_tol=1e-7, int_tol=1e-6) -> bool:
    """Dense, kernel-free feasibility check of a point for the instance."""
    x = np.asarray(x, dtype=np.float64)
    A = inst.A.toarray()
    act = A @ x
    scale = 1.0 + np.abs(inst.b)
    for i in range(inst.m):
        s = inst.senses[i]
        if s == SENSE_LE and act[i] > inst.b[i] + feas_tol * scale[i]:
            return False
        if s == SENSE_GE and act[i] < inst.b[i] - feas_tol * scale[i]:
            return False
        if s == SENSE_EQ and abs(act[i] - inst.b[i]) > feas_tol * scale[i]:
            return False
    if np.any(x < inst.lb - feas_tol) or np.any(x > inst.ub + feas_tol):
        return False
    xi = x[inst.integer]
    if xi.size and np.max(np.abs(xi - np.round(xi))) > int_tol:
        return False
    return True


def enumerate_basic_solutions(A, b, c, lb, ub, feas_tol=1e-7):
    """Optimum of ``min c'x s.t. Ax = b, lb <= x <= ub`` (all bounds finite)
    by enumerating every basis choice and every nonbasic bound pattern.

    Returns ``(status, objective, x)``; a nonempty bounded feasible region
    always contains a basic feasible point, so finding none means
    infeasible.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    lb = np.asarray(lb, dtype=np.float64)
    ub = np.asarray(ub, dtype=np.float64)
    m, n = A.shape
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
        raise ValueError("the enumeration oracle needs finite bounds")
    best_z = np.inf
    best_x = None

    if m == 0:
        x = np.where(c >= 0, lb, ub)
        return LP_OPTIMAL, float(c @ x), x

    cols = np.arange(n)
    for basis in combinations(range(n), m):
        B = A[:, basis]
        nb = np.setdiff1d(cols, basis)
        # every nonbasic at-lower/at-upper pattern, solved in one batch
        P = 1 << nb.size
        patt = ((np.arange(P)[:, None] >> np.arange(nb.size)[None, :]) & 1).astype(np.float64)
        XN = np.where(patt > 0, ub[nb][None, :], lb[nb][None, :])  # (P, |nb|)
        RHS = b[:, None] - A[:, nb] @ XN.T  # (m, P)
        try:
            XB = np.linalg.solve(B, RHS)  # (m, P)
        except np.linalg.LinAlgError:
            continue
        ok = np.all(XB >= lb[list(basis)][:, None] - feas_tol, axis=0)
        ok &= np.all(XB <= ub[list(basis)][:, None] + feas_tol, axis=0)
        if not ok.any():
            continue
        Z = c[list(basis)] @ XB + XN @ c[nb]
        Z = np.where(ok, Z, np.inf)
        k = int(np.argmin(Z))
        if Z[k] < best_z - 1e-12:
            best_z = float(Z[k])
            best_x = np.empty(n)
            best_x[list(basis)] = XB[:, k]
            best_x[nb] = XN[k]
    if best_x is None:
        return LP_INFEASIBLE, np.inf, None
    return LP_OPTIMAL, best_z, best_x


def _linprog_completion(inst: MilpInstance, fixed_idx, fixed_vals):
    """Continuous completion of a partial assignment via scipy linprog."""
    from scipy.optimize import linprog

    n = inst.n
    free = np.setdiff1d(np.arange(n), fixed_idx)
    if free.size == 0:
        x = np.zeros(n)
        x[fixed_idx] = fixed_vals
        if check_feasible_reference(inst, x):
            return float(inst.c @ x), x
        return np.inf, None
    A = inst.A.toarray()
    shift = A[:, fixed_idx] @ fixed_vals
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i in range(inst.m):
        row = A[i, free]
        rhs = inst.b[i] - shift[i]
        if inst.senses[i] == SENSE_LE:
            A_ub.append(row)
            b_ub.append(rhs)
        elif inst.senses[i] == SENSE_GE:
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    res = linprog(
        inst.c[free],
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(inst.lb[free], inst.ub[free])),
        method="highs",
    )
    if res.status != 0:
        return np.inf, None
    x = np.zeros(n)
    x[fixed_idx] = fixed_vals
    x[free] = res.x
    return float(inst.c @ np.nan_to_num(x)), x


def feasible_binary_points(inst: MilpInstance) -> np.ndarray:
    """Every feasible 0/1 assignment of a pure-binary instance, one per row
    in counting order (variable k is bit k of the row number)."""
    n = inst.n
    if n > 22:
        raise ValueError("too many binaries for brute force")
    P = 1 << n
    bits = ((np.arange(P)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    act = bits @ inst.A.toarray().T  # (P, m)
    ok = np.ones(P, dtype=bool)
    scale = 1.0 + np.abs(inst.b)
    le = inst.senses == SENSE_LE
    ge = inst.senses == SENSE_GE
    eq = inst.senses == SENSE_EQ
    if le.any():
        ok &= np.all(act[:, le] <= inst.b[le] + 1e-7 * scale[le], axis=1)
    if ge.any():
        ok &= np.all(act[:, ge] >= inst.b[ge] - 1e-7 * scale[ge], axis=1)
    if eq.any():
        ok &= np.all(np.abs(act[:, eq] - inst.b[eq]) <= 1e-7 * scale[eq], axis=1)
    # respect fixed binaries
    ok &= np.all(bits >= inst.lb[None, :] - 1e-9, axis=1)
    ok &= np.all(bits <= inst.ub[None, :] + 1e-9, axis=1)
    return bits[ok]


def brute_force_milp(inst: MilpInstance, tol=1e-9):
    """Exhaustive optimum over all divable-binary assignments.

    Pure-binary instances are enumerated vectorized; instances with
    continuous variables complete each assignment with an independent LP
    solve (scipy).  Non-divable integer variables are not supported.
    Returns ``(z_opt, x_opt, optimal_keys)`` where ``optimal_keys`` is the
    sorted list of optimal divable assignments (as tuples); ``z_opt`` is
    ``inf`` for infeasible instances.
    """
    div = inst.divable_index
    if np.setdiff1d(inst.integer_index, div).size:
        raise ValueError("brute force supports divable integer variables only")
    if div.size > 22:
        raise ValueError("too many binaries for brute force")
    if np.any(inst.lb[div] < -tol) or np.any(inst.ub[div] > 1 + tol):
        raise ValueError("brute force expects binary divable variables")
    n = inst.n
    if div.size == n:  # pure binary
        feas = feasible_binary_points(inst)
        if feas.shape[0] == 0:
            return np.inf, None, []
        Z = feas @ inst.c
        z_opt = float(Z.min())
        opt = np.flatnonzero(Z <= z_opt + tol)
        keys = sorted(tuple(int(v) for v in feas[k]) for k in opt)
        return z_opt, feas[opt[0]].copy(), keys

    P = 1 << div.size
    bits = ((np.arange(P)[:, None] >> np.arange(div.size)[None, :]) & 1).astype(np.float64)
    best_z = np.inf
    best_x = None
    keys_by_z = {}
    for k in range(P):
        vals = bits[k]
        if np.any(vals < inst.lb[div] - tol) or np.any(vals > inst.ub[div] + tol):
            continue
        z, x = _linprog_completion(inst, div, vals)
        if not np.isfinite(z):
            continue
        keys_by_z[tuple(int(v) for v in vals)] = z
        if z < best_z - tol:
            best_z = z
            best_x = x
    if best_x is None:
        return np.inf, None, []
    keys = sorted(k for k, z in keys_by_z.items() if z <= best_z + max(tol, 1e-6))
    return best_z, best_x, keys
