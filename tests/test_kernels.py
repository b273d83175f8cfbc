import numpy as np
import pytest
import scipy.sparse as sp

from divekit import kernels


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
    products, plain loops and dense product-form matrices."""

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
        for _ in range(300):
            m = int(rng.integers(1, 30))
            rate = rng.normal(size=m)
            rate[rng.random(m) < 0.1] = 0.0
            xb = rng.uniform(0, 1, size=m)
            lob = np.where(rng.random(m) < 0.2, -np.inf, 0.0)
            upb = np.where(rng.random(m) < 0.2, np.inf, 1.0)
            vidx = rng.permutation(m).astype(np.int64)
            t1, p1, u1 = kernels.ratio_test(rate, xb, lob, upb, vidx, 1e-9)
            t2, p2, u2 = ratio_test_reference(rate, xb, lob, upb, vidx, 1e-9)
            assert (p1 == p2) and (u1 == u2)
            if np.isfinite(t1) or np.isfinite(t2):
                assert abs(t1 - t2) < 1e-12

    def test_ratio_test_tie_breaks_by_variable_index(self):
        rate = np.array([1.0, 1.0, 1.0])
        xb = np.zeros(3)
        lob = np.zeros(3)
        upb = np.ones(3)  # all block at ratio 1
        vidx = np.array([7, 2, 5], dtype=np.int64)
        _, pos, up = kernels.ratio_test(rate, xb, lob, upb, vidx, 1e-9)
        assert pos == 1 and up

    def test_eta_sweeps(self, rng):
        m, k = 40, 12
        eta_rows = rng.integers(0, m, size=k)
        etas = rng.normal(size=(k, m))
        for i, r in enumerate(eta_rows):
            etas[i, r] = 1.5 + rng.random()
        z = rng.normal(size=m)
        np.testing.assert_allclose(
            kernels.apply_etas(z.copy(), eta_rows, etas, k),
            apply_etas_reference(z.copy(), eta_rows, etas, k), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            kernels.apply_etas_t(z.copy(), eta_rows, etas, k),
            apply_etas_t_reference(z.copy(), eta_rows, etas, k), rtol=1e-10, atol=1e-12)

    def test_eta_sweep_inverts_product_form(self, rng):
        """apply_etas implements E_k...E_1 and apply_etas_t its transpose."""
        m, k = 15, 5
        eta_rows = rng.integers(0, m, size=k)
        etas = rng.normal(size=(k, m))
        for i, r in enumerate(eta_rows):
            etas[i, r] = 2.0 + rng.random()
        E = np.eye(m)
        for i in range(k):
            Ei = np.eye(m)
            r = eta_rows[i]
            w = etas[i]
            Ei[:, r] = -w / w[r]
            Ei[r, r] = 1.0 / w[r]
            E = Ei @ E
        z = rng.normal(size=m)
        np.testing.assert_allclose(
            kernels.apply_etas(z.copy(), eta_rows, etas, k), E @ z,
            rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            kernels.apply_etas_t(z.copy(), eta_rows, etas, k), E.T @ z,
            rtol=1e-9, atol=1e-12)


def test_backend_reported():
    assert kernels.backend() == "numpy"
