import numpy as np
import pytest
import scipy.sparse as sp

from divekit import kernels
from divekit.simplex import REFACTOR_EVERY


@pytest.fixture
def data(rng):
    m, n, e, h = 60, 90, 400, 8
    return {
        "rows": rng.integers(0, m, size=e),
        "cols": rng.integers(0, n, size=e),
        "vals": rng.normal(size=e),
        "x": rng.normal(size=n),
        "m": m,
        "n": n,
        "h": rng.normal(size=(n, h)),
        "out_shape": (m, h),
    }


def ratio_test_reference(rate, x_b, lo_b, up_b, var_idx, tol):
    """Plain-loop bounded ratio test: smallest clamped ratio, ties to the
    smallest variable index, infinite bounds never block."""
    best_t, best_pos, best_var, hit_upper = np.inf, -1, -1, False
    for i in range(rate.shape[0]):
        d = rate[i]
        if d > tol:
            if np.isinf(up_b[i]):
                continue
            r, up = (up_b[i] - x_b[i]) / d, True
        elif d < -tol:
            if np.isinf(lo_b[i]):
                continue
            r, up = (lo_b[i] - x_b[i]) / d, False
        else:
            continue
        r = max(r, 0.0)
        if r < best_t - 1e-12 or (r <= best_t + 1e-12 and (best_pos < 0 or var_idx[i] < best_var)):
            best_t, best_pos, best_var, hit_upper = r, i, var_idx[i], up
    return best_t, best_pos, hit_upper


def apply_etas_reference(z, eta_rows, etas, n_eta):
    for k in range(n_eta):
        r = eta_rows[k]
        a = z[r] / etas[k, r]
        for i in range(z.shape[0]):
            z[i] -= a * etas[k, i]
        z[r] = a
    return z


def apply_etas_t_reference(z, eta_rows, etas, n_eta):
    for k in range(n_eta - 1, -1, -1):
        r = eta_rows[k]
        dot = 0.0
        for i in range(z.shape[0]):
            dot += etas[k, i] * z[i]
        z[r] = z[r] + (z[r] - dot) / etas[k, r]
    return z


class TestParity:
    """The numpy kernels agree with independent references: scipy sparse
    products, plain loops and dense product-form matrices.  The eta
    references take the ftran'd columns themselves, one eta per loop step."""

    def test_row_activities(self, data):
        got = kernels.row_activities(
            data["rows"], data["cols"], data["vals"], data["x"], data["m"])
        A = sp.coo_matrix((data["vals"], (data["rows"], data["cols"])),
                          shape=(data["m"], data["n"]))
        np.testing.assert_allclose(got, A @ data["x"], atol=1e-12)
        empty = np.array([], dtype=np.int64)
        np.testing.assert_array_equal(
            kernels.row_activities(empty, empty, np.array([]), data["x"], 4), np.zeros(4))

    def test_scatter_messages(self, data, rng):
        rows, cols = data["rows"].copy(), data["cols"].copy()
        rows[:50], cols[:50] = rows[50:100], cols[50:100]  # duplicate (dst, src) pairs
        A = sp.coo_matrix((data["vals"], (rows, cols)), shape=(data["m"], data["n"]))
        start = rng.normal(size=data["out_shape"])
        out = start.copy()
        got = kernels.scatter_messages(A.tocsr(), data["h"], out)
        assert got is out
        expect = start.copy()
        for e in range(rows.size):  # out[dst] += coef * h[src], edge by edge
            expect[rows[e]] += data["vals"][e] * data["h"][cols[e]]
        np.testing.assert_allclose(out, expect, atol=1e-12)
        np.testing.assert_allclose(out, start + A @ data["h"], atol=1e-12)

    def test_ratio_test(self, rng):
        def check(rate, xb, lob, upb, vidx):
            t1, p1, u1 = kernels.ratio_test(rate, xb, lob, upb, vidx, 1e-9)
            t2, p2, u2 = ratio_test_reference(rate, xb, lob, upb, vidx, 1e-9)
            assert (p1 == p2) and (u1 == u2)
            if np.isfinite(t1) or np.isfinite(t2):
                assert abs(t1 - t2) < 1e-12
            else:
                assert t1 == np.inf and p1 == -1 and not u1
            return p1

        inf = np.inf
        for _ in range(300):
            m = int(rng.integers(1, 30))
            rate = rng.normal(size=m)
            rate[rng.random(m) < 0.1] = 0.0
            rate[rng.random(m) < 0.1] *= 1e-10  # |rate| <= tol
            xb = rng.uniform(0, 1, size=m)
            lob = np.where(rng.random(m) < 0.2, -inf, 0.0)
            upb = np.where(rng.random(m) < 0.2, inf, 1.0)
            free = rng.random(m) < 0.1  # both bounds infinite, at an infinite value
            lob[free], upb[free] = -inf, inf
            xb[free] = rng.choice([-inf, inf], size=int(free.sum()))
            check(rate, xb, lob, upb, rng.permutation(m).astype(np.int64))
        vidx = np.arange(6, dtype=np.int64)
        # inf - inf on either side of a free variable at an infinite value
        assert check(np.array([1.0, -1.0, 1.0, -1.0, 0.5, -2.0]),
                     np.array([inf, -inf, -inf, inf, 0.25, 0.5]),
                     np.array([-inf, -inf, -inf, -inf, 0.0, 0.0]),
                     np.array([inf, inf, inf, inf, 1.0, 1.0]), vidx) == 5
        # exact zeros and |rate| <= tol next to infinite bounds never block
        assert check(np.array([0.0, 1e-10, -1e-10, 0.0, -0.5, 1e-9]),
                     np.array([0.0, 0.5, 0.5, 1.0, 0.5, 0.0]),
                     np.array([-inf, 0.0, -inf, 0.0, 0.0, 0.0]),
                     np.array([inf, inf, 1.0, 1.0, 1.0, 1.0]), vidx) == 4
        # no blocking entry
        assert check(np.array([0.0, 1e-12, 2.0, -3.0, 1.0, -1.0]), np.zeros(6),
                     np.array([0.0, 0.0, 0.0, -inf, -inf, -inf]),
                     np.array([1.0, 1.0, inf, 1.0, inf, inf]), vidx) == -1
        # no rows
        empty = np.zeros(0)
        assert check(empty, empty, empty, empty, np.zeros(0, dtype=np.int64)) == -1

    def test_ratio_test_tie_breaks_by_variable_index(self):
        rate = np.array([1.0, 1.0, 1.0])
        xb = np.zeros(3)
        lob = np.zeros(3)
        upb = np.ones(3)  # all block at ratio 1
        vidx = np.array([7, 2, 5], dtype=np.int64)
        _, pos, up = kernels.ratio_test(rate, xb, lob, upb, vidx, 1e-9)
        assert pos == 1 and up

    @staticmethod
    def random_eta_file(rng, m, eta_rows):
        """Random ftran'd columns ``W`` for the pivot rows ``eta_rows``, and
        the compact file that ``push_eta`` builds from them."""
        k = len(eta_rows)
        W = rng.normal(size=(k, m))
        for i, r in enumerate(eta_rows):
            W[i, r] = rng.choice([-1.0, 1.0]) * (1.5 + rng.random())
        rows, etas, linv = kernels.eta_file(REFACTOR_EVERY, m)
        for i, r in enumerate(eta_rows):
            kernels.push_eta(rows, etas, linv, i, int(r), W[i].copy())
        return W, (rows, etas, linv)

    @staticmethod
    def product_form(eta_rows, W):
        """The dense product ``E_k...E_1`` of the eta matrices."""
        m = W.shape[1]
        E = np.eye(m)
        for r, w in zip(eta_rows, W):
            Ei = np.eye(m)
            Ei[:, r] = -w / w[r]
            Ei[r, r] = 1.0 / w[r]
            E = Ei @ E
        return E

    def test_eta_sweeps(self, rng):
        """The compact sweeps agree with the plain loops over the explicit
        etas, with pivot rows that repeat, up to a full file."""
        for m, k in [(40, 12), (60, REFACTOR_EVERY - 1)]:
            eta_rows = rng.integers(0, m, size=k)
            eta_rows[[1, 4, k - 1]] = eta_rows[0]  # one row pivots four times
            W, compact = self.random_eta_file(rng, m, eta_rows)
            z = rng.normal(size=m)
            np.testing.assert_allclose(
                kernels.apply_etas(z.copy(), *compact, k),
                apply_etas_reference(z.copy(), eta_rows, W, k), rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                kernels.apply_etas_t(z.copy(), *compact, k),
                apply_etas_t_reference(z.copy(), eta_rows, W, k), rtol=1e-10, atol=1e-12)

    def test_eta_sweep_inverts_product_form(self, rng):
        """apply_etas implements E_k...E_1 and apply_etas_t its transpose, at
        every length of the file."""
        m, k = 15, 8
        eta_rows = np.array([3, 7, 3, 0, 14, 3, 7, 9])  # rows 3 and 7 repeat
        W, compact = self.random_eta_file(rng, m, eta_rows)
        z = rng.normal(size=m)
        for n in range(1, k + 1):
            E = self.product_form(eta_rows[:n], W[:n])
            np.testing.assert_allclose(kernels.apply_etas(z.copy(), *compact, n), E @ z,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(kernels.apply_etas_t(z.copy(), *compact, n), E.T @ z,
                                       rtol=1e-9, atol=1e-12)

    def test_transposed_scatter_accumulates_repeated_rows(self, rng):
        """The transposed sweep adds every pivot's share onto a repeated
        row; a plain fancy-index scatter keeps only the last one, and the
        sweep above tells the two apart."""
        m, k = 10, 4
        eta_rows = np.array([2, 5, 2, 2])
        W, (rows, etas, linv) = self.random_eta_file(rng, m, eta_rows)
        z = rng.normal(size=m)
        expect = self.product_form(eta_rows, W).T @ z
        np.testing.assert_allclose(kernels.apply_etas_t(z.copy(), rows, etas, linv, k),
                                   expect, rtol=1e-9, atol=1e-12)
        wrong = z.copy()
        wrong[rows[:k]] -= (etas[:k] @ wrong) @ linv[:k, :k]
        assert np.max(np.abs(wrong - expect)) > 1e-3


def test_backend_reported():
    assert kernels.backend() == "numpy"
