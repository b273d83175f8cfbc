import warnings

import numpy as np
import pytest

from divekit import simplex
from divekit.instances import (
    GeneratorConfig,
    SENSE_EQ,
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
        np.testing.assert_allclose(sol.x, [0.0, 1.0], atol=1e-9)

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
            hi = np.where(np.isfinite(lp.ub), lp.ub,
                          np.abs(lp.dense()).sum(axis=1).max() * ub.max() + np.abs(b).max() + 10)
            status, z_ref, _ = enumerate_basic_solutions(lp.dense(), lp.b, lp.c, lp.lb, hi)
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
        x_other = np.array([1.0, 0.0])  # the worse vertex
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
        n = solver.n_real
        y_lb, y_ub = np.zeros(n), np.zeros(n)
        for j in range(n):
            if solver.stat[j] not in (simplex._AT_LOWER, simplex._AT_UPPER):
                continue
            lo, hi = solver.lb[j], solver.ub[j]
            if lo > -simplex.INF_BOUND and hi < simplex.INF_BOUND and hi - lo <= 0:
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
        solver.warm_start(sol.basis)
        _, d = solver.price(solver.c)
        y_lb, y_ub = self.loop_reference(solver, d)
        duals = solver.extract_duals()
        assert duals.y_lb.tobytes() == y_lb.tobytes()
        assert duals.y_ub.tobytes() == y_ub.tobytes()
        assert duals.y_lb.tobytes() == sol.duals.y_lb.tobytes()


class TestSingularWarmBasis:
    def test_falls_back_to_the_cold_solve(self):
        inst = generate(GeneratorConfig("set-cover", seed=4, rows=12, cols=24, density=0.2))
        lp = std(inst)
        hi = lp.ub.copy()
        hi[0] = 0.0
        # every basic position on column 0: the basis matrix is singular
        bad = simplex.Basis(at_lower=np.arange(1, lp.ncols), basic=np.zeros(lp.nrows, np.int64),
                            at_upper=np.zeros(0, np.int64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = solve_lp(lp, warm=bad, upper=hi)
        assert caught == []  # a handled fallback prints nothing
        cold = solve_lp(lp, upper=hi)
        assert warm.status == cold.status == simplex.OPTIMAL
        np.testing.assert_array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations


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
