import dataclasses
import types
import warnings

import numpy as np
import pytest

from divekit import simplex
from divekit.instances import (
    GeneratorConfig,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    generate,
    make_instance,
    to_standard_form,
)
from divekit.oracles import enumerate_basic_solutions
from divekit.simplex import (
    check_complementary_slackness,
    dual_objective,
    solve_lp,
)


def std(inst):
    return to_standard_form(inst)


class TestSpecCases:
    def test_vertex_selection(self):
        # min -x1 - 2x2 s.t. x1 + x2 = 1, x in [0,1]^2: both vertices are
        # (1,0) and (0,1); the oracle value is -2 at (0,1)
        inst = make_instance("t", c=[-1.0, -2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[1.0], lb=[0, 0], ub=[1, 1], integer=[])
        lp = std(inst)
        _, z_ref, _ = enumerate_basic_solutions(lp.dense(), lp.b, lp.c, lp.lb, lp.ub)
        sol = solve_lp(lp)
        assert sol.status == simplex.OPTIMAL
        assert abs(z_ref + 2.0) < 1e-12
        assert abs(sol.objective - z_ref) < 1e-9
        # the row's logical column, fixed at zero, comes last
        np.testing.assert_allclose(sol.x, [0.0, 1.0, 0.0], atol=1e-9)

    def test_zero_objective_optimal_zero(self):
        inst = make_instance("t", c=[0.0, 0.0], rows=[(0, 0, 1.0), (0, 1, 2.0)],
                             senses=[SENSE_LE], b=[2.0], lb=[0, 0], ub=[1, 1], integer=[])
        sol = solve_lp(std(inst))
        assert sol.status == simplex.OPTIMAL and sol.objective == 0.0

    def test_unbounded_ray(self):
        inst = make_instance("t", c=[-1.0], rows=[], senses=[], b=[],
                             lb=[0.0], ub=[np.inf], integer=[])
        sol = solve_lp(std(inst))
        assert sol.status == simplex.UNBOUNDED
        assert sol.ray is not None and sol.ray[0] > 0

    def test_infeasible_has_residual_certificate(self):
        inst = make_instance("t", c=[0.0, 0.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[10.0], lb=[0, 0], ub=[1, 1], integer=[])
        sol = solve_lp(std(inst))
        assert sol.status == simplex.INFEASIBLE
        assert sol.infeasibility > 1.0  # cannot be driven to zero

    @pytest.mark.parametrize("path", ["phase 1", "dual phase", "bound crossing"])
    def test_infeasible_objective_is_inf(self, path):
        """An infeasible LP has no objective value: every way a solve ends
        infeasible reports +inf, not the cost of its last iterate."""
        # x1 + x2 = 1 on [0, 1]^2 at cost 1, 2: optimal at (1, 0)
        inst = make_instance("t", c=[1.0, 2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[1.0], lb=[0, 0], ub=[1, 1], integer=[])
        lp = std(inst)
        lo, hi = lp.lb.copy(), lp.ub.copy()
        warm = None
        if path == "bound crossing":
            lo[0], hi[0] = 0.8, 0.2
        else:
            lo[:2] = 1.0  # x1 + x2 = 2
            if path == "dual phase":
                warm = solve_lp(lp).basis
        sol = solve_lp(lp, warm=warm, lower=lo, upper=hi)
        assert sol.status == simplex.INFEASIBLE
        assert sol.objective == np.inf and sol.x is None and sol.duals is None


class TestOracleEquivalence:
    def test_random_lps_match_enumeration(self, rng):
        from divekit.harness import random_bounded_lp
        from divekit.instances import make_instance

        n_checked = 0
        for trial in range(60):
            A, senses, b, c, lb, ub = random_bounded_lp(rng)
            m, n = A.shape
            inst = make_instance(
                f"lp{trial}", c=c,
                rows=[(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0],
                senses=senses, b=b, lb=lb, ub=ub, integer=[],
            )
            lp = std(inst)
            # the equality rows' logicals are fixed at zero: leaving them
            # out keeps the LP and spares the enumeration
            keep = lp.lb < lp.ub
            A_keep = lp.dense()[:, keep]
            hi = np.where(np.isfinite(lp.ub[keep]), lp.ub[keep],
                          np.abs(A_keep).sum(axis=1).max() * ub.max() + np.abs(b).max() + 10)
            status, z_ref, _ = enumerate_basic_solutions(A_keep, lp.b, lp.c[keep], lp.lb[keep], hi)
            sol = solve_lp(lp)
            if status == "infeasible":
                assert sol.status == simplex.INFEASIBLE
                continue
            n_checked += 1
            assert sol.status == simplex.OPTIMAL
            assert abs(sol.objective - z_ref) <= 1e-6 * (1 + abs(z_ref))
        assert n_checked >= 30


class TestDuals:
    @pytest.fixture
    def solved(self):
        inst = generate(GeneratorConfig("set-cover", seed=2, rows=15, cols=30, density=0.15))
        lp = std(inst)
        return lp, solve_lp(lp)

    def test_strong_duality(self, solved):
        lp, sol = solved
        gap = abs(sol.objective - dual_objective(sol.duals, lp))
        assert gap <= 1e-8 * (1 + abs(sol.objective))

    def test_dual_identity_and_signs(self, solved):
        lp, sol = solved
        resid = lp.dense().T @ sol.duals.y_b + sol.duals.y_lb + sol.duals.y_ub - lp.c
        assert np.max(np.abs(resid)) <= 1e-8
        assert np.all(sol.duals.y_lb >= -1e-12)
        assert np.all(sol.duals.y_ub <= 1e-12)

    def test_complementary_slackness_at_optimum(self, solved):
        lp, sol = solved
        rep = check_complementary_slackness(sol.x, sol.duals, lp, tol=1e-8)
        assert rep["holds"]

    def test_slackness_fails_off_optimum(self):
        # feasible non-optimal vertex paired with the optimal duals
        inst = make_instance("t", c=[-1.0, -2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[1.0], lb=[0, 0], ub=[1, 1], integer=[])
        lp = std(inst)
        sol = solve_lp(lp)
        x_other = np.array([1.0, 0.0, 0.0])  # the worse vertex, its logical at zero
        rep = check_complementary_slackness(x_other, sol.duals, lp, tol=1e-8)
        assert not rep["holds"]
        # hand evaluation: y_ub pairs x2 at its upper bound; at the worse
        # vertex x2 - ub = -1 and the dual is -1, so the violation is 1
        assert rep["max_violation"] == pytest.approx(1.0, abs=1e-9)

    def test_at_bound_zero_product(self, solved):
        lp, sol = solved
        # variables at their lower bound contribute exactly zero
        at_lo = np.abs(sol.x - lp.lb) < 1e-9
        prod = (sol.x - lp.lb) * sol.duals.y_lb
        assert np.max(np.abs(prod[at_lo]), initial=0.0) <= 1e-12


class TestWarmStart:
    def test_tightened_resolve_finds_known_point(self, rng):
        """After tightening one bound, a warm resolve must not report
        infeasible when a feasible point provably remains."""
        for seed in range(10):
            inst = generate(GeneratorConfig("set-cover", seed=seed, rows=8, cols=16, density=0.25))
            lp = std(inst)
            root = solve_lp(lp)
            assert root.status == simplex.OPTIMAL
            # all-ones stays feasible whatever single lower bound we raise
            j = int(rng.integers(0, inst.n))
            lo = lp.lb.copy()
            lo[j] = 1.0
            sol = solve_lp(lp, warm=root.basis, lower=lo)
            assert sol.status == simplex.OPTIMAL

    def test_warm_equals_cold(self):
        inst = generate(GeneratorConfig("comb-auction", seed=5, items=12, bids=25))
        lp = std(inst)
        root = solve_lp(lp)
        hi = lp.ub.copy()
        j = int(inst.divable_index[0])
        hi[j] = 0.0
        warm = solve_lp(lp, warm=root.basis, upper=hi)
        cold = solve_lp(lp, upper=hi)
        assert warm.status == cold.status == simplex.OPTIMAL
        assert abs(warm.objective - cold.objective) < 1e-8
        assert warm.iterations <= cold.iterations

    def test_determinism_identical_pivot_sequence(self):
        inst = generate(GeneratorConfig("indep-set", seed=3, nodes=25, affinity=3))
        lp = std(inst)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.basis.basic, b.basis.basic)


class TestPivotMachinery:
    def test_degenerate_cycling_example_terminates(self):
        # classic cycling-prone LP; the stall detector engages the
        # lowest-index rule and finishes with the right optimum
        c = np.array([-0.75, 150.0, -0.02, 6.0])
        A = np.array([
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        inst = make_instance(
            "beale", c=c,
            rows=[(i, j, A[i, j]) for i in range(3) for j in range(4) if A[i, j] != 0],
            senses=[SENSE_LE] * 3, b=[0.0, 0.0, 1.0],
            lb=np.zeros(4), ub=np.full(4, np.inf), integer=[],
        )
        sol = solve_lp(std(inst))
        assert sol.status == simplex.OPTIMAL
        assert abs(sol.objective + 0.05) < 1e-9

    def test_iteration_limit_returns_basis_without_duals(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=20, cols=40, density=0.15))
        sol = solve_lp(std(inst), iter_limit=3)
        assert sol.status == simplex.ITERATION_LIMIT
        assert sol.duals is None and sol.basis is not None and sol.x is not None

    def test_all_blocking_ratios_infinite_is_unbounded(self):
        # min -x1 s.t. x1 - x2 <= 0 with x2 free above: the entering
        # direction never blocks
        inst = make_instance("t", c=[-1.0, 0.0], rows=[(0, 0, 1.0), (0, 1, -1.0)],
                             senses=[SENSE_LE], b=[0.0], lb=[0, 0],
                             ub=[np.inf, np.inf], integer=[])
        sol = solve_lp(std(inst))
        assert sol.status == simplex.UNBOUNDED

    def test_bound_crossing_is_infeasible(self):
        inst = make_instance("t", c=[1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[1.0], lb=[0.0], ub=[1.0], integer=[])
        lp = std(inst)
        lo = lp.lb.copy()
        hi = lp.ub.copy()
        lo[0], hi[0] = 0.8, 0.2
        sol = solve_lp(lp, lower=lo, upper=hi)
        assert sol.status == simplex.INFEASIBLE


class TestDualExtraction:
    @staticmethod
    def loop_reference(solver, d):
        """The per-column rule: a fixed column splits its reduced cost, a
        column at one bound takes the part of matching sign."""
        n = solver.N
        y_lb, y_ub = np.zeros(n), np.zeros(n)
        for j in range(n):
            if solver.stat[j] not in (simplex._AT_LOWER, simplex._AT_UPPER):
                continue
            lo, hi = solver.lb[j], solver.ub[j]
            if np.isfinite(lo) and np.isfinite(hi) and hi - lo <= 0:
                y_lb[j], y_ub[j] = max(d[j], 0.0), min(d[j], 0.0)
            elif solver.stat[j] == simplex._AT_LOWER:
                y_lb[j] = max(d[j], 0.0)
            else:
                y_ub[j] = min(d[j], 0.0)
        return y_lb, y_ub

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig("set-cover", seed=3, rows=15, cols=30, density=0.15),
        GeneratorConfig("comb-auction", seed=3, items=10, bids=20),
        GeneratorConfig("facility-location", seed=3, customers=4, facilities=3),
    ])
    def test_bitwise_equal_to_the_loop(self, cfg):
        lp = std(generate(cfg))
        lo, hi = lp.lb.copy(), lp.ub.copy()
        lo[0] = hi[0] = 1.0  # fixed columns at both ends of the range
        hi[1] = 0.0
        sol = solve_lp(lp, lower=lo, upper=hi)
        assert sol.status == simplex.OPTIMAL
        solver = simplex._Solver(lp, lo, hi)
        solver.start(sol.basis)
        y, d = solver.price(solver.c)
        y_lb, y_ub = self.loop_reference(solver, d)
        duals = solver.extract_duals(y, d)
        assert duals.y_lb.tobytes() == y_lb.tobytes()
        assert duals.y_ub.tobytes() == y_ub.tobytes()
        assert duals.y_lb.tobytes() == sol.duals.y_lb.tobytes()


class TestSingularWarmBasis:
    def test_falls_back_to_the_cold_solve(self, monkeypatch):
        inst = generate(GeneratorConfig("set-cover", seed=4, rows=12, cols=24, density=0.2))
        lp = std(inst)
        hi = lp.ub.copy()
        hi[0] = 0.0
        # every basic position on column 0: the basis matrix is singular
        bad = simplex.Basis(basic=np.zeros(lp.nrows, np.int64), at_upper=np.zeros(0, np.int64))
        log = _spy_dual(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = solve_lp(lp, warm=bad, upper=hi)
        assert caught == []  # a handled fallback prints nothing
        # the dual phase needs the warm basis, so the cold fallback runs none
        assert log["dual_tests"] == 0
        cold = solve_lp(lp, upper=hi)
        assert warm.status == cold.status == simplex.OPTIMAL
        np.testing.assert_array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations


def _mixed_lp(dup=False):
    """A 4x6 LP with an LE, a GE, an EQ and a GE row: logical columns 6-9
    carry the signs +1, -1, +1 (fixed at zero) and -1.  With ``dup`` the
    first two columns are identical."""
    A = np.random.default_rng(5).normal(size=(4, 6)).round(3)
    if dup:
        A[:, 1] = A[:, 0]
    rows = [(i, j, A[i, j]) for i in range(4) for j in range(6) if A[i, j] != 0.0]
    inst = make_instance("mixed", c=np.ones(6), rows=rows,
                         senses=[SENSE_LE, SENSE_GE, SENSE_EQ, SENSE_GE],
                         b=np.ones(4), lb=np.zeros(6), ub=np.full(6, 5.0), integer=[])
    return std(inst)


class TestBasisKernel:
    """ftran and btran through the factored kernel agree with a dense solve
    against the full basis, after a refactorization and after eta updates."""

    N = 6  # the first logical column

    @pytest.mark.parametrize("basic", [
        [6, 7, 8, 9],  # all logical: an empty kernel
        [3, 0, 5, 1],  # all structural: the kernel is the basis
        [7, 2, 4, 9],  # both GE surpluses basic
        [0, 8, 3, 6],  # the EQ row's logical basic
        [2, 9, 7, 4],  # logicals away from their own row position
    ], ids=["logical", "structural", "surplus", "eq-logical", "permuted"])
    def test_matches_a_dense_solve(self, basic):
        lp = _mixed_lp()
        assert lp.logical_sign.tolist() == [1.0, -1.0, 1.0, -1.0]
        solver = simplex._Solver(lp, None, None)
        solver.basic[:] = basic
        solver.refactorize()
        rng = np.random.default_rng(0)
        for step in range(4):
            B = lp.dense()[:, solver.basic]
            for _ in range(3):
                v = rng.normal(size=4)
                np.testing.assert_allclose(solver.ftran(v.copy()), np.linalg.solve(B, v),
                                           rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(solver.btran(v.copy()), np.linalg.solve(B.T, v),
                                           rtol=1e-10, atol=1e-12)
            if step == 3:
                break
            # one eta update: the lowest nonbasic column enters where its
            # ftran is largest
            q = int(np.setdiff1d(np.arange(lp.ncols), solver.basic)[step])
            w = solver.ftran(lp.dense()[:, q].copy())
            solver._replace(int(np.argmax(np.abs(w))), q, w)
            assert solver.n_eta == step + 1

    def test_zero_row_lp(self):
        lp = std(make_instance("free", c=[1.0, -1.0], rows=[], senses=[], b=[],
                               lb=[0, 0], ub=[1, 1], integer=[]))
        solver = simplex._Solver(lp, None, None)
        solver.start()
        assert solver.Kinv.shape == (0, 0)
        assert solver.ftran(np.zeros(0)).shape == (0,)
        assert solver.btran(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("basic, dup", [
        ([0, 1, 8, 9], True),  # two identical structural columns
        ([6, 6, 8, 9], False),  # one logical column in two positions
    ], ids=["identical-columns", "logical-twice"])
    def test_singular_kernel_raises(self, basic, dup):
        solver = simplex._Solver(_mixed_lp(dup), None, None)
        solver.basic[:] = basic
        with pytest.raises(simplex.SingularBasis):
            solver.refactorize()


def _spy_dual(monkeypatch):
    """Record the pivots ``(row position, entering column)`` of every solve
    and the calls of the dual ratio test."""
    log = {"pivots": [], "dual_tests": 0}
    real_replace, real_test = simplex._Solver._replace, simplex._Solver._dual_ratio_test

    def replace(self, pos, q, w):
        log["pivots"].append((pos, q))
        return real_replace(self, pos, q, w)

    def dual_test(self, d, alpha):
        log["dual_tests"] += 1
        return real_test(self, d, alpha)

    monkeypatch.setattr(simplex._Solver, "_replace", replace)
    monkeypatch.setattr(simplex._Solver, "_dual_ratio_test", dual_test)
    return log


def _tightened_cover():
    """Set-cover LP, its root and bounds that fix the root's three largest
    columns at zero, so the root basis is dual feasible but not primal."""
    lp = std(generate(GeneratorConfig("set-cover", seed=6, rows=30, cols=60, density=0.1)))
    root = solve_lp(lp)
    hi = lp.ub.copy()
    hi[np.argsort(-root.x[: lp.slack_start], kind="stable")[:3]] = 0.0
    return lp, root, hi


class TestDualPhase:
    def test_warm_resolve_runs_the_dual_phase(self, monkeypatch):
        lp, root, hi = _tightened_cover()
        log = _spy_dual(monkeypatch)
        warm = solve_lp(lp, warm=root.basis, upper=hi)
        cold = solve_lp(lp, upper=hi)
        assert warm.status == cold.status == simplex.OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        assert log["dual_tests"] >= warm.iterations > 0
        assert check_complementary_slackness(warm.x, warm.duals, lp, upper=hi)["holds"]

    def test_identical_calls_identical_pivots(self, monkeypatch):
        lp, root, hi = _tightened_cover()
        log = _spy_dual(monkeypatch)
        a = solve_lp(lp, warm=root.basis, upper=hi)
        first, log["pivots"] = log["pivots"], []
        b = solve_lp(lp, warm=root.basis, upper=hi)
        assert first and first == log["pivots"]
        assert a.x.tobytes() == b.x.tobytes()
        assert a.duals.y_b.tobytes() == b.duals.y_b.tobytes()

    def test_basis_that_is_not_dual_feasible_takes_the_primal_path(self, monkeypatch):
        lp, _, hi = _tightened_cover()
        # optimal for the negated costs, so columns price out for the real ones
        flipped = solve_lp(dataclasses.replace(lp, c=-lp.c))
        solver = simplex._Solver(lp, None, hi)
        solver.start(flipped.basis)
        _, d = solver.price(solver.c)
        assert solver._entering(d, simplex.OPT_TOL) >= 0
        budget = max(20000, 200 * (solver.m + 10))
        assert solver.primal(budget) == simplex.OPTIMAL
        log = _spy_dual(monkeypatch)
        sol = solve_lp(lp, warm=flipped.basis, upper=hi)
        assert log["dual_tests"] == 0
        assert sol.iterations == solver.iterations
        np.testing.assert_array_equal(sol.x, solver.xval[: lp.ncols])

    def test_failure_in_the_dual_phase_retries_cold(self, monkeypatch):
        lp, root, hi = _tightened_cover()
        cold = solve_lp(lp, upper=hi)
        log = _spy_dual(monkeypatch)
        real = simplex._Solver._dual_ratio_test

        def failing(self, d, alpha):
            real(self, d, alpha)
            raise simplex.NumericalBreakdown("injected")

        monkeypatch.setattr(simplex._Solver, "_dual_ratio_test", failing)
        warm = solve_lp(lp, warm=root.basis, upper=hi)
        assert log["dual_tests"] == 1  # the cold retry runs no dual phase
        assert warm.status == cold.status == simplex.OPTIMAL
        np.testing.assert_array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations

    def test_dual_pivot_clamps_and_breaks_ties_low(self):
        # two columns tie at ratio 0 (one with a reduced cost of the wrong
        # sign inside the tolerance) and a third has ratio 2
        lp = std(make_instance("t", c=[0.0, 0.0, 2.0], rows=[], senses=[], b=[],
                               lb=[0, 0, 0], ub=[1, 1, 1], integer=[]))
        solver = simplex._Solver(lp, None, None)
        solver.start()
        d = np.array([2.0, -1e-12, 0.0])
        alpha = np.array([-1.0, -1.0, -1.0])
        assert solver._dual_ratio_test(d, alpha) == 1
        assert solver._dual_ratio_test(d, -alpha) == -1
        solver.stat[0] = simplex._AT_UPPER
        assert solver._dual_ratio_test(d, -alpha) == 0


class TestRowFree:
    """LPs without rows: every variable ends at its cost-preferred bound."""

    def solve(self, c, lb, ub):
        inst = make_instance("free", c=c, rows=[], senses=[], b=[], lb=lb, ub=ub, integer=[])
        lp = std(inst)
        return lp, solve_lp(lp)

    def test_optimum_mixes_bounds_and_cost_signs(self):
        inf = np.inf
        c = [1.0, -1.0, 0.0, -3.0, 0.0, 0.0, 2.0, -2.0, -0.0]
        lb = [0.0, 0.0, -inf, -inf, -2.0, -inf, 1.0, 1.0, 0.0]
        ub = [1.0, 2.0, 3.0, 4.0, inf, inf, 1.0, 1.0, 1.0]
        lp, sol = self.solve(c, lb, ub)
        assert sol.status == simplex.OPTIMAL
        np.testing.assert_array_equal(sol.x, [0.0, 2.0, 3.0, 4.0, -2.0, 0.0, 1.0, 1.0, 0.0])
        assert sol.objective == -14.0
        assert sol.duals.y_b.shape == (0,)
        np.testing.assert_array_equal(sol.duals.y_lb, [1, 0, 0, 0, 0, 0, 2, 0, 0])
        np.testing.assert_array_equal(sol.duals.y_ub, [0, -1, 0, -3, 0, 0, 0, -2, 0])
        # a zero cost of -0.0 at the lower bound keeps its sign in y_lb
        assert np.signbit(sol.duals.y_lb[8])
        assert dual_objective(sol.duals, lp) == sol.objective
        assert check_complementary_slackness(sol.x, sol.duals, lp)["holds"]

    @pytest.mark.parametrize("c, lb, ub, x, ray", [
        # positive cost, no lower bound: decreases without limit
        ([1.0, 3.0], [0.0, -np.inf], [1.0, 5.0], [0.0, 5.0], [0.0, -1.0]),
        # negative cost, no upper bound
        ([-2.0, 1.0], [0.0, 0.0], [np.inf, 1.0], [0.0, 0.0], [1.0, 0.0]),
        # free variable with a negative cost
        ([0.0, -0.5], [0.0, -np.inf], [1.0, np.inf], [0.0, 0.0], [0.0, 1.0]),
    ])
    def test_unbounded_ray(self, c, lb, ub, x, ray):
        _, sol = self.solve(c, lb, ub)
        assert sol.status == simplex.UNBOUNDED and sol.duals is None
        np.testing.assert_array_equal(sol.x, x)
        np.testing.assert_array_equal(sol.ray, ray)


def _count_lu_factor(monkeypatch):
    """Count the kernel LU factorizations of every solve; like the traced
    benchmark, ``simplex.sla`` then provides only ``lu_factor`` and
    ``lu_solve``."""
    calls = {"lu_factor": 0}
    real = simplex.sla

    def lu_factor(*args, **kwargs):
        calls["lu_factor"] += 1
        return real.lu_factor(*args, **kwargs)

    monkeypatch.setattr(simplex, "sla", types.SimpleNamespace(
        lu_factor=lu_factor, lu_solve=real.lu_solve))
    return calls


def _bare(basis):
    """The same basis without the factors it carries."""
    return simplex.Basis(basic=basis.basic.copy(), at_upper=basis.at_upper.copy())


def _same_solution(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert a.x.tobytes() == b.x.tobytes()
    for part in ("y_b", "y_lb", "y_ub"):
        assert getattr(a.duals, part).tobytes() == getattr(b.duals, part).tobytes()
    assert a.basis.basic.tobytes() == b.basis.basic.tobytes()
    assert a.basis.at_upper.tobytes() == b.basis.at_upper.tobytes()


class TestCarriedFactors:
    """A basis returned at an optimum carries its kernel inverse, and a warm
    start on the same LP object reuses it instead of factoring again."""

    def test_optimal_basis_carries_its_kernel_inverse(self):
        lp, root, _ = _tightened_cover()
        assert root.basis.lp is lp and root.basis.kinv is not None
        assert not root.basis.kinv.flags.writeable
        solver = simplex._Solver(lp, None, None)
        solver.start(_bare(root.basis))
        assert solver.Kinv.tobytes() == root.basis.kinv.tobytes()

    def test_no_pivot_resolve_factors_nothing(self, monkeypatch):
        lp, root, _ = _tightened_cover()
        calls = _count_lu_factor(monkeypatch)
        again = solve_lp(lp, warm=root.basis)
        assert again.iterations == 0 and calls["lu_factor"] == 0
        assert again.x.tobytes() == root.x.tobytes()
        solve_lp(lp, warm=_bare(root.basis))
        assert calls["lu_factor"] == 1

    @pytest.mark.parametrize("cfg", [
        GeneratorConfig("set-cover", seed=2, rows=100, cols=200, density=0.05),
        GeneratorConfig("comb-auction", seed=3, items=20, bids=50),
        GeneratorConfig("facility-location", seed=3, customers=6, facilities=5),
        GeneratorConfig("indep-set", seed=3, nodes=80, affinity=4),
    ], ids=lambda cfg: cfg.family)
    def test_dive_resolves_match_a_fresh_factorization(self, cfg, monkeypatch):
        """Along a dive that caps the first fractional variable at its floor,
        each warm resolve from the carried inverse equals, bit for bit, the
        resolve from the same basis factored afresh, and factors once less."""
        inst = generate(cfg)
        lp = std(inst)
        calls = _count_lu_factor(monkeypatch)
        sol = solve_lp(lp)
        lo, hi = lp.lb.copy(), lp.ub.copy()
        steps = 0
        while sol.status == simplex.OPTIMAL and steps < 8:
            x = sol.x[inst.divable_index]
            frac = np.abs(x - np.floor(x + 0.5)) > 1e-6
            if not frac.any():
                break
            j = int(inst.divable_index[np.argmax(frac)])
            hi[j] = np.floor(sol.x[j])
            assert sol.basis.kinv is not None and sol.basis.lp is lp
            before = calls["lu_factor"]
            reused = solve_lp(lp, warm=sol.basis, lower=lo, upper=hi)
            carried = calls["lu_factor"] - before
            refactored = solve_lp(lp, warm=_bare(sol.basis), lower=lo, upper=hi)
            assert calls["lu_factor"] - before - carried == carried + 1
            if reused.status == simplex.OPTIMAL:
                _same_solution(reused, refactored)
            else:
                assert reused.status == refactored.status
                assert reused.iterations == refactored.iterations
            sol, steps = reused, steps + 1
        assert steps >= 2

    def test_basis_of_another_lp_is_factored(self, monkeypatch):
        """Another LP of the same shape, even one equal to the first, gets
        its own factorization."""
        lp, root, hi = _tightened_cover()
        other = std(generate(GeneratorConfig("set-cover", seed=8, rows=30, cols=60,
                                             density=0.1)))
        for target in (dataclasses.replace(lp), other):
            assert target.ncols == lp.ncols and target.nrows == lp.nrows
            calls = _count_lu_factor(monkeypatch)
            got = solve_lp(target, warm=root.basis, upper=hi)
            assert calls["lu_factor"] >= 1
            _same_solution(got, solve_lp(target, warm=_bare(root.basis), upper=hi))
