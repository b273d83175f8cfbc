"""Hot numeric inner loops, one numpy implementation each."""

import numpy as np


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# sparse row activities (COO layout)
# ---------------------------------------------------------------------------

def row_activities(rows, cols, vals, x, m):
    if len(rows) == 0:
        return np.zeros(m)
    return np.bincount(rows, weights=vals * x[cols], minlength=m)


# ---------------------------------------------------------------------------
# bounded-variable ratio test
#
# The entering variable moves by a step t >= 0; ``rate`` holds dx_B/dt for
# each basic variable.  A basic variable blocks when it reaches the relevant
# entry of (lo_b, up_b); infinite bounds never block.  Ties are broken by the
# smallest variable index (Bland-compatible, deterministic).  Slightly
# negative ratios from variables already at (or numerically past) a bound are
# clamped to zero rather than rejected.
# ---------------------------------------------------------------------------

def ratio_test(rate, x_b, lo_b, up_b, var_idx, tol):
    m = rate.shape[0]
    ratios = np.full(m, np.inf)
    upmask = rate > tol
    dnmask = rate < -tol
    with np.errstate(invalid="ignore"):
        ratios[upmask] = (up_b[upmask] - x_b[upmask]) / rate[upmask]
        ratios[dnmask] = (lo_b[dnmask] - x_b[dnmask]) / rate[dnmask]
    ratios[np.isnan(ratios)] = np.inf  # inf - inf at an infinite bound
    np.maximum(ratios, 0.0, out=ratios)
    finite = np.isfinite(ratios)
    if not finite.any():
        return np.inf, -1, False
    best_t = ratios[finite].min()
    near = np.flatnonzero(finite & (ratios <= best_t + 1e-12))
    pos = near[np.argmin(var_idx[near])]
    return ratios[pos], int(pos), bool(rate[pos] > tol)


# ---------------------------------------------------------------------------
# product-form eta updates for the basis factorisation
#
# etas[k] is the ftran'd entering column of pivot k, pivot row eta_rows[k].
# ``apply_etas`` maps B0^-1 v -> B^-1 v; ``apply_etas_t`` is the transposed
# sweep used before the backward LU solve.  Both mutate ``z`` in place.
# ---------------------------------------------------------------------------

def apply_etas(z, eta_rows, etas, n_eta):
    for k in range(n_eta):
        r = eta_rows[k]
        a = z[r] / etas[k, r]
        if a != 0.0:
            z -= a * etas[k]
        z[r] = a
    return z


def apply_etas_t(z, eta_rows, etas, n_eta):
    for k in range(n_eta - 1, -1, -1):
        r = eta_rows[k]
        dot = float(etas[k] @ z)
        z[r] = z[r] + (z[r] - dot) / etas[k, r]
    return z


# ---------------------------------------------------------------------------
# bipartite message passing: out[dst[e]] += coef[e] * h[src[e]]
# ---------------------------------------------------------------------------

def scatter_messages(dst, src, coef, h, out):
    np.add.at(out, dst, coef[:, None] * h[src])
    return out
