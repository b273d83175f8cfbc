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
# compact product-form eta file for the basis factorisation
#
# Pivot k puts the column with ftran w_k into row position r_k = rows[k].
# Its eta matrix maps z to z - (z[r_k] / w_k[r_k]) u_k with u_k = w_k - e_r_k,
# and etas[k] holds u_k.  The product E_k...E_1 is one low-rank correction:
# with R = rows[:k] and L the k x k lower-triangular matrix L[i, j] = u_j[r_i]
# (j < i), L[i, i] = w_i[r_i],
#
#     E_k...E_1 z = z - etas[:k]' (L^-1 z[R]).
#
# ``linv`` holds L^-1, which ``push_eta`` extends by one bordered row per
# pivot.  ``apply_etas`` maps B0^-1 v -> B^-1 v; ``apply_etas_t`` is the
# transposed sweep used before the backward solve.  Pivot rows repeat, so
# its scatter onto R accumulates.  Both sweeps mutate ``z`` in place.
# ---------------------------------------------------------------------------

def eta_file(capacity, m):
    """An empty file of up to ``capacity`` etas on m-vectors: ``rows``,
    ``etas`` and ``linv``."""
    return (np.zeros(capacity, dtype=np.int64), np.zeros((capacity, m)),
            np.zeros((capacity, capacity)))


def push_eta(rows, etas, linv, k, r, w):
    rows[k] = r
    etas[k] = w
    etas[k, r] -= 1.0
    linv[k, :k] = -(etas[:k, r] @ linv[:k, :k]) / w[r]
    linv[k, k] = 1.0 / w[r]


def apply_etas(z, rows, etas, linv, k):
    z -= (linv[:k, :k] @ z[rows[:k]]) @ etas[:k]
    return z


def apply_etas_t(z, rows, etas, linv, k):
    np.subtract.at(z, rows[:k], (etas[:k] @ z) @ linv[:k, :k])
    return z


# ---------------------------------------------------------------------------
# bipartite message passing: out += adj @ h over a sparse adjacency
# ---------------------------------------------------------------------------

def scatter_messages(adj, h, out):
    out += adj @ h
    return out
