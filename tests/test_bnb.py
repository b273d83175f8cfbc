import numpy as np

from divekit.bnb import (
    INFEASIBLE,
    LIMIT,
    OPTIMAL_PROVEN,
    SolutionPool,
    SolveConfig,
    branch_and_bound,
    compute_locks,
    enumerate_optima,
    round_solution,
)
from divekit.instances import (
    GeneratorConfig,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    generate,
    make_instance,
)
from conftest import brute_binary_optimum, reference_feasible


def root_only(dive_once):
    """Diver callback that dives through ``dive_once(inst, lp, sol, lo, hi)``
    at its first call only, the root; branch and bound calls it at every
    node with a fractional LP point."""
    calls = []

    def hook(inst, lp, sol, lo, hi):
        calls.append(None)
        return [dive_once(inst, lp, sol, lo, hi)] if len(calls) == 1 else []

    return hook


class TestLocks:
    def test_le_positive_coefficient_locks_up(self):
        inst = make_instance("t", c=[0.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[1.0], lb=[0], ub=[5], integer=[0])
        up, down = compute_locks(inst)
        assert up[0] == 1 and down[0] == 0

    def test_equality_locks_both_directions(self):
        inst = make_instance("t", c=[0.0], rows=[(0, 0, 2.0), (1, 0, -1.0)],
                             senses=[SENSE_EQ, SENSE_EQ], b=[1.0, 0.0],
                             lb=[0], ub=[5], integer=[0])
        up, down = compute_locks(inst)
        assert up[0] == 2 and down[0] == 2

    def test_locks_agree_with_perturbation_oracle(self, rng):
        """A direction locks a row iff a small move in that direction can
        increase the row's violation."""
        for trial in range(5):
            n, m = 5, 5
            A = np.where(rng.random((m, n)) < 0.6, rng.integers(-3, 4, (m, n)), 0).astype(float)
            senses = rng.integers(0, 3, size=m)
            inst = make_instance(
                f"t{trial}", c=np.zeros(n),
                rows=[(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0],
                senses=senses, b=rng.integers(-2, 3, m).astype(float),
                lb=np.zeros(n), ub=np.full(n, 4.0), integer=range(n),
            )
            up, down = compute_locks(inst)
            for j in range(n):
                up_ref = dn_ref = 0
                for i in range(m):
                    a = A[i, j]
                    if a == 0:
                        continue
                    s = senses[i]
                    # moving up increases a*x by sign(a)
                    if s == SENSE_LE:
                        up_ref += a > 0
                        dn_ref += a < 0
                    elif s == SENSE_GE:
                        up_ref += a < 0
                        dn_ref += a > 0
                    else:
                        up_ref += 1
                        dn_ref += 1
                assert up[j] == up_ref and down[j] == dn_ref


class TestRounding:
    def test_integral_point_returned_unchanged(self):
        inst = generate(GeneratorConfig("set-cover", seed=0, rows=5, cols=8, density=0.4))
        x = np.ones(inst.n)
        out = round_solution(x, inst)
        np.testing.assert_array_equal(out, x)

    def test_zero_lock_direction_used(self):
        # one GE row: up locks are zero, so 0.6 rounds up and is feasible
        inst = make_instance("t", c=[1.0, 1.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_GE], b=[1.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        out = round_solution(np.array([0.6, 0.2]), inst)
        assert out is not None
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_unroundable_returns_none(self):
        # x1 + x2 = 1 with binaries plus |x1 - x2| <= 0.5: the LP point
        # (0.5, 0.5) is feasible but both integer roundings are excluded
        inst = make_instance(
            "t", c=[1.0, 1.0],
            rows=[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, -1.0), (2, 0, -1.0), (2, 1, 1.0)],
            senses=[SENSE_EQ, SENSE_LE, SENSE_LE], b=[1.0, 0.5, 0.5],
            lb=[0, 0], ub=[1, 1], integer=[0, 1],
        )
        _, x, _ = brute_binary_optimum(inst)
        assert x is None  # verified by enumeration: no integer point exists
        assert round_solution(np.array([0.5, 0.5]), inst) is None


class TestPoolAndTrace:
    def test_pool_dedupes_and_sorts(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=5, cols=8, density=0.4))
        pool = SolutionPool(inst, capacity=3)
        ones = np.ones(inst.n)
        assert pool.add(ones)
        assert not pool.add(ones)  # duplicate divable assignment
        assert len(pool) == 1
        assert not pool.add(np.zeros(inst.n))  # infeasible rejected
        assert pool.rejected == 1

    def test_pool_capacity(self):
        inst = generate(GeneratorConfig("set-cover", seed=2, rows=4, cols=9, density=0.5))
        pool = SolutionPool(inst, capacity=2)
        _, _, optima = brute_binary_optimum(inst)
        count = 0
        for bits in sorted(optima):
            pool.add(np.array(bits, dtype=float))
            count += 1
        assert len(pool) <= 2
        zs = pool.objectives()
        assert zs == sorted(zs)

    def test_trace_monotone(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=8, cols=16, density=0.25))
        res = branch_and_bound(inst, SolveConfig(node_limit=200))
        pts = res.trace.points
        assert len(pts) >= 1
        for (t0, p0, d0), (t1, p1, d1) in zip(pts, pts[1:]):
            assert t1 >= t0 and p1 <= p0 + 1e-9 and d1 >= d0 - 1e-9
        t, p, d = pts[-1]
        assert p >= d - 1e-6


class TestBranchAndBound:
    def test_edgeless_indep_set(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        res = branch_and_bound(inst, SolveConfig())
        assert res.status == OPTIMAL_PROVEN
        assert res.objective == -5.0

    def test_matches_brute_force(self):
        for seed in range(6):
            fam = ["set-cover", "comb-auction", "indep-set"][seed % 3]
            kw = {"set-cover": dict(rows=6, cols=10, density=0.3),
                  "comb-auction": dict(items=8, bids=12),
                  "indep-set": dict(nodes=12, affinity=2)}[fam]
            inst = generate(GeneratorConfig(fam, seed=seed, **kw))
            z_ref, _, _ = brute_binary_optimum(inst)
            res = branch_and_bound(inst, SolveConfig(node_limit=100000))
            assert res.status == OPTIMAL_PROVEN
            assert abs(res.objective - z_ref) < 1e-6
            assert abs(res.objective - res.bound) < 1e-6
            for x, z in res.pool.solutions():
                assert reference_feasible(inst, x)

    def test_node_limit_one(self):
        inst = generate(GeneratorConfig("set-cover", seed=31, rows=30, cols=60, density=0.08))
        res = branch_and_bound(inst, SolveConfig(node_limit=1))
        assert res.status == LIMIT
        assert res.nodes == 1
        # root lower bound recorded in the trace
        assert len(res.trace.points) >= 1
        assert np.isfinite(res.trace.points[-1][2])

    def test_infeasible_instance(self):
        inst = make_instance("inf", c=[1.0, 1.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[5.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        res = branch_and_bound(inst, SolveConfig())
        assert res.status == INFEASIBLE and res.x is None

    def test_diver_solutions_enter_pool(self):
        from divekit.diving import dive, make_scorer
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        plain = branch_and_bound(inst, SolveConfig(node_limit=25))
        hook = root_only(lambda inst, lp, sol, lo, hi: dive(
            inst, make_scorer("fractional"), lp=lp, root_sol=sol, lower=lo, upper=hi))
        dived = branch_and_bound(inst, SolveConfig(node_limit=25, diver=hook))
        assert dived.dives >= 1
        assert dived.objective <= plain.objective + 1e-9

    def test_failing_dive_is_not_a_node_error(self, monkeypatch):
        """A dive whose LP fails ends as lp_error; the node LPs, solved
        through bnb's own binding, carry on unaffected."""
        from divekit import diving
        from divekit.simplex import NumericalBreakdown

        def broken(*a, **kw):
            raise NumericalBreakdown("injected failure")

        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        plain = branch_and_bound(inst, SolveConfig(node_limit=25))
        terminations = []

        def dive_once(inst, lp, sol, lo, hi):
            res = diving.dive(inst, diving.make_scorer("fractional"), lp=lp, root_sol=sol,
                              lower=lo, upper=hi)
            terminations.append(res.termination)
            return res

        hook = root_only(dive_once)
        monkeypatch.setattr(diving, "solve_lp", broken)
        dived = branch_and_bound(inst, SolveConfig(node_limit=25, diver=hook))
        assert dived.dives == 1 and terminations == ["lp_error"]
        assert dived.node_errors == 0
        assert (dived.nodes, dived.objective) == (plain.nodes, plain.objective)


class TestDiverCallback:
    # 35 nodes to a proven optimum
    INST = GeneratorConfig("set-cover", seed=5, rows=40, cols=50, density=0.12, max_cost=5)

    def test_called_at_every_branching_node(self, monkeypatch):
        """The callback runs at every node with a fractional LP point, which
        is every node that tries rounding, root first, with full-column
        bounds."""
        from divekit import bnb
        from divekit.instances import to_standard_form

        inst = generate(self.INST)
        lp = to_standard_form(inst)
        real_round = bnb.round_solution
        rounded = []

        def counting_round(x, *a, **kw):
            rounded.append(np.array(x))
            return real_round(x, *a, **kw)

        calls = []

        def hook(inst, lp_, sol, lo, hi):
            calls.append((sol.x[: inst.n].copy(), lo.copy(), hi.copy()))
            return []

        plain = branch_and_bound(inst, SolveConfig(node_limit=40))
        monkeypatch.setattr(bnb, "round_solution", counting_round)
        res = branch_and_bound(inst, SolveConfig(node_limit=40, diver=hook))
        assert res.dives == 0 and (res.nodes, res.ticks) == (plain.nodes, plain.ticks)
        assert len(calls) > 1 and len(calls) == len(rounded)
        for (x, lo, hi), xr in zip(calls, rounded):
            np.testing.assert_array_equal(x, xr)
            assert lo.shape == hi.shape == (lp.ncols,)
            np.testing.assert_array_equal(lo[lp.slack_start:], lp.lb[lp.slack_start:])
            np.testing.assert_array_equal(hi[lp.slack_start:], lp.ub[lp.slack_start:])
        x0, lo0, hi0 = calls[0]
        np.testing.assert_array_equal(x0, res.root.x[: inst.n])
        np.testing.assert_array_equal(lo0, lp.lb)
        np.testing.assert_array_equal(hi0, lp.ub)

    def test_ensemble_schedule_lives_in_the_callback(self):
        """A member without a period dives at the root only; one with period
        p and offset o also at the calls numbered o (mod p)."""
        from divekit.harness import _ensemble_hook

        inst = generate(self.INST)
        calls = {"n": 0}

        def counted(hook):
            def wrapper(*a):
                calls["n"] += 1
                return hook(*a)
            return wrapper

        root = branch_and_bound(inst, SolveConfig(node_limit=40, diver=counted(
            _ensemble_hook((("fractional", None, 0),), None, 10, 0))))
        assert calls["n"] > 1 and root.dives == 1
        calls["n"] = 0
        periodic = branch_and_bound(inst, SolveConfig(node_limit=40, diver=counted(
            _ensemble_hook((("fractional", 3, 1),), None, 10, 0))))
        assert calls["n"] > 4
        assert periodic.dives == 1 + sum(1 for k in range(1, calls["n"]) if k % 3 == 1)


class TestEnumerate:
    def test_set_partition_two_optima(self):
        inst = make_instance("p", c=[1.0, 1.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[1.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        res = enumerate_optima(inst, SolveConfig(pool_capacity=100))
        assert res.complete
        assert sorted(tuple(a) for a in res.assignments) == [(0, 1), (1, 0)]

    def test_unique_optimum(self):
        inst = make_instance("u", c=[1.0, 2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_GE], b=[1.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        res = enumerate_optima(inst, SolveConfig(pool_capacity=100))
        assert res.complete and len(res.assignments) == 1
        assert tuple(res.assignments[0]) == (1, 0)

    def test_counts_match_brute_force(self):
        for seed in (1, 2, 5):
            inst = generate(GeneratorConfig("indep-set", seed=seed, nodes=10, affinity=2))
            _, _, optima = brute_binary_optimum(inst)
            res = enumerate_optima(inst, SolveConfig(pool_capacity=10000, node_limit=100000))
            assert res.complete
            assert {tuple(a) for a in res.assignments} == optima

    def test_capacity_flags_incomplete(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=10, affinity=2))
        _, _, optima = brute_binary_optimum(inst)
        assert len(optima) > 1
        res = enumerate_optima(inst, SolveConfig(pool_capacity=1))
        assert not res.complete and res.status == LIMIT
        assert len(res.assignments) == 1

    def test_deep_enumeration_needs_no_recursion(self):
        # one divable variable per level: 1100 levels, a value 0 that the
        # optimal face cuts off and a value 1 that continues, plus the root
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=1100, affinity=0))
        res = enumerate_optima(inst, SolveConfig())
        assert res.complete and res.status == OPTIMAL_PROVEN
        assert res.nodes == 2 * 1100 + 1
        assert len(res.assignments) == 1
        np.testing.assert_array_equal(res.assignments[0], np.ones(1100, dtype=np.int64))
