import numpy as np
import pytest

from divekit.bnb import (
    INFEASIBLE,
    LIMIT,
    OPTIMAL_PROVEN,
    SolutionPool,
    SolveConfig,
    branch_and_bound,
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
from divekit.oracles import brute_force_milp, check_feasible_reference
from conftest import rooted


def root_only(dive_once):
    """Diver callback that dives through ``dive_once(inst, lp, sol, lo, hi)``
    at its first call only, the root; branch and bound calls it at every
    node with a fractional LP point."""
    calls = []

    def hook(inst, lp, sol, lo, hi):
        calls.append(None)
        return [dive_once(inst, lp, sol, lo, hi)] if len(calls) == 1 else []

    return hook


def loop_locks(A, senses):
    """(up_locks, down_locks) of a dense matrix, one row and column at a
    time: moving a variable up increases a*x by sign(a)."""
    m, n = A.shape
    up, down = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for j in range(n):
        for i in range(m):
            a = A[i, j]
            if a == 0:
                continue
            s = senses[i]
            if s == SENSE_LE:
                up[j] += a > 0
                down[j] += a < 0
            elif s == SENSE_GE:
                up[j] += a < 0
                down[j] += a > 0
            else:
                up[j] += 1
                down[j] += 1
    return up, down


class TestLocks:
    def test_le_positive_coefficient_locks_up(self):
        inst = make_instance("t", c=[0.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                             b=[1.0], lb=[0], ub=[5], integer=[0])
        up, down, _ = inst.column_counts()
        assert up[0] == 1 and down[0] == 0

    def test_equality_locks_both_directions(self):
        inst = make_instance("t", c=[0.0], rows=[(0, 0, 2.0), (1, 0, -1.0)],
                             senses=[SENSE_EQ, SENSE_EQ], b=[1.0, 0.0],
                             lb=[0], ub=[5], integer=[0])
        up, down, _ = inst.column_counts()
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
            up, down, _ = inst.column_counts()
            up_ref, dn_ref = loop_locks(A, senses)
            np.testing.assert_array_equal(up, up_ref)
            np.testing.assert_array_equal(down, dn_ref)

    def test_column_counts_computed_once_per_instance(self):
        inst = generate(GeneratorConfig("set-cover", seed=0, rows=8, cols=12, density=0.3))
        counts = inst.column_counts()
        up, down = loop_locks(inst.A.toarray(), inst.senses)
        np.testing.assert_array_equal(counts[0], up)
        np.testing.assert_array_equal(counts[1], down)
        np.testing.assert_array_equal(counts[2], np.diff(inst.A.tocsc().indptr))
        assert inst.column_counts() is counts
        face = inst.with_extra_rows([inst.c], [SENSE_EQ], [1.0])
        assert face.column_counts()[0][0] == counts[0][0] + (inst.c[0] != 0)


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
        _, x, _ = brute_force_milp(inst)
        assert x is None  # verified by enumeration: no integer point exists
        assert round_solution(np.array([0.5, 0.5]), inst) is None

    def test_matches_loop_over_integer_variables(self, rng):
        """Lock-direction rounding picks, per fractional integer variable,
        what a loop over them picks: down without down-locks, else up
        without up-locks, else nearest."""

        def loop_round(x, inst):
            idx = inst.integer_index
            xi = x[idx]
            rounded = np.floor(xi + 0.5)
            snapped = x.copy()
            snapped[idx] = rounded
            up, down = loop_locks(inst.A.toarray(), inst.senses)
            lock_dir = x.copy()
            for k, j in enumerate(idx):
                if abs(xi[k] - rounded[k]) <= 1e-6:
                    lock_dir[j] = rounded[k]
                elif down[j] == 0:
                    lock_dir[j] = np.floor(xi[k])
                elif up[j] == 0:
                    lock_dir[j] = np.ceil(xi[k])
                else:
                    lock_dir[j] = rounded[k]
            for y in (lock_dir, snapped):
                if check_feasible_reference(inst, y):
                    return y
            return None

        found = 0
        for trial in range(40):
            n, m = 6, 3
            A = np.where(rng.random((m, n)) < 0.5, rng.integers(-3, 4, (m, n)), 0).astype(float)
            senses = rng.integers(0, 3, size=m)
            b = np.where(senses == SENSE_LE, 20.0, np.where(senses == SENSE_GE, -20.0, 0.0))
            eq = senses == SENSE_EQ
            A[eq] = 0.0  # an equality row only on the last variable, which is continuous
            A[eq, n - 1] = 1.0
            inst = make_instance(
                f"r{trial}", c=np.zeros(n),
                rows=[(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0],
                senses=senses, b=b, lb=np.zeros(n), ub=np.full(n, 4.0), integer=range(n - 1),
            )
            x = rng.uniform(0.0, 4.0, size=n)
            x[n - 1] = 0.0
            x[rng.random(n) < 0.3] = 2.0  # some integral entries
            out = round_solution(x, inst)
            ref = loop_round(x, inst)
            assert (out is None) == (ref is None)
            if ref is not None:
                np.testing.assert_array_equal(out, ref)
                found += 1
        assert found > 20


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
        _, _, optima = brute_force_milp(inst)
        count = 0
        for bits in sorted(optima):
            pool.add(np.array(bits, dtype=float))
            count += 1
        assert len(pool) <= 2
        zs = [z for _, z in pool.solutions()]
        assert zs == sorted(zs)

    def test_trace_monotone(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=8, cols=16, density=0.25))
        res = branch_and_bound(inst, SolveConfig(node_limit=200), **rooted(inst))
        pts = res.trace.points
        assert len(pts) >= 1
        for (t0, p0, d0), (t1, p1, d1) in zip(pts, pts[1:]):
            assert t1 >= t0 and p1 <= p0 + 1e-9 and d1 >= d0 - 1e-9
        t, p, d = pts[-1]
        assert p >= d - 1e-6


class TestBranchAndBound:
    def test_edgeless_indep_set(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        res = branch_and_bound(inst, SolveConfig(), **rooted(inst))
        assert res.status == OPTIMAL_PROVEN
        assert res.objective == -5.0

    def test_matches_brute_force(self):
        for seed in range(6):
            fam = ["set-cover", "comb-auction", "indep-set"][seed % 3]
            kw = {"set-cover": dict(rows=6, cols=10, density=0.3),
                  "comb-auction": dict(items=8, bids=12),
                  "indep-set": dict(nodes=12, affinity=2)}[fam]
            inst = generate(GeneratorConfig(fam, seed=seed, **kw))
            z_ref, _, _ = brute_force_milp(inst)
            res = branch_and_bound(inst, SolveConfig(node_limit=100000), **rooted(inst))
            assert res.status == OPTIMAL_PROVEN
            assert abs(res.objective - z_ref) < 1e-6
            assert abs(res.objective - res.bound) < 1e-6
            for x, z in res.pool.solutions():
                assert check_feasible_reference(inst, x)

    def test_node_limit_one(self):
        inst = generate(GeneratorConfig("set-cover", seed=31, rows=30, cols=60, density=0.08))
        res = branch_and_bound(inst, SolveConfig(node_limit=1), **rooted(inst))
        assert res.status == LIMIT
        assert res.nodes == 1
        # root lower bound recorded in the trace
        assert len(res.trace.points) >= 1
        assert np.isfinite(res.trace.points[-1][2])

    def test_infeasible_instance(self):
        inst = make_instance("inf", c=[1.0, 1.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_EQ], b=[5.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        res = branch_and_bound(inst, SolveConfig(), **rooted(inst))
        assert res.status == INFEASIBLE and res.x is None

    def test_diver_solutions_enter_pool(self):
        from divekit.diving import dive, make_scorer
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        root = rooted(inst)
        plain = branch_and_bound(inst, SolveConfig(node_limit=25), **root)
        hook = root_only(lambda inst, lp, sol, lo, hi: dive(
            inst, make_scorer("fractional"), lp=lp, root_sol=sol, lower=lo, upper=hi))
        dived = branch_and_bound(inst, SolveConfig(node_limit=25, diver=hook), **root)
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
        root = rooted(inst)
        plain = branch_and_bound(inst, SolveConfig(node_limit=25), **root)
        terminations = []

        def dive_once(inst, lp, sol, lo, hi):
            res = diving.dive(inst, diving.make_scorer("fractional"), lp=lp, root_sol=sol,
                              lower=lo, upper=hi)
            terminations.append(res.termination)
            return res

        hook = root_only(dive_once)
        monkeypatch.setattr(diving, "solve_lp", broken)
        dived = branch_and_bound(inst, SolveConfig(node_limit=25, diver=hook), **root)
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
        from divekit.simplex import solve_lp

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

        root = solve_lp(lp)
        plain = branch_and_bound(inst, SolveConfig(node_limit=40), lp=lp, root_sol=root)
        monkeypatch.setattr(bnb, "round_solution", counting_round)
        res = branch_and_bound(inst, SolveConfig(node_limit=40, diver=hook), lp=lp, root_sol=root)
        assert res.dives == 0 and (res.nodes, res.ticks) == (plain.nodes, plain.ticks)
        assert len(calls) > 1 and len(calls) == len(rounded)
        for (x, lo, hi), xr in zip(calls, rounded):
            np.testing.assert_array_equal(x, xr)
            assert lo.shape == hi.shape == (lp.ncols,)
            np.testing.assert_array_equal(lo[lp.slack_start:], lp.lb[lp.slack_start:])
            np.testing.assert_array_equal(hi[lp.slack_start:], lp.ub[lp.slack_start:])
        x0, lo0, hi0 = calls[0]
        np.testing.assert_array_equal(x0, root.x[: inst.n])
        np.testing.assert_array_equal(lo0, lp.lb)
        np.testing.assert_array_equal(hi0, lp.ub)

    def test_ensemble_schedule_lives_in_the_callback(self):
        """A member without a period dives at the root only; one with period
        p and offset o also at the calls numbered o (mod p).  The hook is
        driven through ten calls directly, so the schedule is checked past
        the root whatever branch and bound needs to close the instance."""
        from divekit.harness import _ensemble_hook
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        inst = generate(self.INST)
        lp = to_standard_form(inst)
        sol = solve_lp(lp)

        def dives_per_call(members):
            hook = _ensemble_hook(members, None, 10, 0)
            return [len(hook(inst, lp, sol, lp.lb, lp.ub)) for _ in range(10)]

        assert dives_per_call((("fractional", None, 0),)) == [1] + [0] * 9
        assert dives_per_call((("fractional", 3, 1),)) == [
            1 if k == 0 or k % 3 == 1 else 0 for k in range(10)]
        assert dives_per_call((("fractional", None, 0), ("fractional", 3, 1))) == [
            2 if k == 0 else int(k % 3 == 1) for k in range(10)]

        # inside branch and bound: every dive the hook ran is counted
        calls = {"n": 0}

        def counted(hook):
            def wrapper(*a):
                calls["n"] += 1
                return hook(*a)
            return wrapper

        root = branch_and_bound(inst, SolveConfig(node_limit=40, diver=counted(
            _ensemble_hook((("fractional", None, 0),), None, 10, 0))), lp=lp, root_sol=sol)
        assert calls["n"] >= 1 and root.dives == 1
        calls["n"] = 0
        periodic = branch_and_bound(inst, SolveConfig(node_limit=40, diver=counted(
            _ensemble_hook((("fractional", 3, 1),), None, 10, 0))), lp=lp, root_sol=sol)
        assert periodic.dives == 1 + sum(1 for k in range(1, calls["n"]) if k % 3 == 1)


class TestFailedNodeLp:
    """A node LP that fails must not let the run claim a proof."""

    # the clean run proves 192 in 11 nodes
    INST = GeneratorConfig("set-cover", seed=2, rows=30, cols=60, density=0.1)

    def test_failed_node_keeps_its_parent_bound(self, monkeypatch):
        from divekit import bnb, simplex

        inst = generate(self.INST)
        root = rooted(inst)
        clean = branch_and_bound(inst, **root)
        assert clean.status == OPTIMAL_PROVEN
        real = bnb.solve_lp
        calls = {"n": 0}

        def failing_first_child(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:  # the root's down child
                raise simplex.NumericalBreakdown("injected")
            return real(*a, **kw)

        monkeypatch.setattr(bnb, "solve_lp", failing_first_child)
        res = branch_and_bound(inst, **root)
        assert res.node_errors == 1
        assert res.status == LIMIT
        assert res.bound <= clean.objective + 1e-9
        assert res.trace.final()[1] == res.bound

    def test_failed_root_ends_lp_error(self, monkeypatch):
        """A root LP whose solve raised (``root_sol=None``) is a result, not
        an exception, and is not retried: one node, one node error, no LP
        solved, no solution and no finite bound."""
        from divekit import bnb
        from divekit.instances import to_standard_form

        inst = generate(self.INST)
        monkeypatch.setattr(bnb, "solve_lp", lambda *a, **kw: pytest.fail("LP solved"))
        res = branch_and_bound(inst, lp=to_standard_form(inst), root_sol=None)
        assert res.status == bnb.LP_ERROR
        assert res.x is None
        assert (res.nodes, res.node_errors, res.ticks) == (1, 1, 0.0)
        assert res.objective == np.inf and res.bound == -np.inf
        assert res.trace.points == [(0.0, np.inf, -np.inf)]

    def test_cold_retry_clears_a_warm_failure(self, monkeypatch):
        from divekit import simplex

        inst = generate(self.INST)
        root = rooted(inst)
        clean = branch_and_bound(inst, **root)
        real_start, real_primal = simplex._Solver.start, simplex._Solver.primal
        raised = []

        def marking_start(self, basis=None):
            if basis is not None:
                self.warm_attempt = True
            return real_start(self, basis)

        def failing_primal(self, iter_limit):
            if getattr(self, "warm_attempt", False) and not raised:
                raised.append(True)
                raise simplex.NumericalBreakdown("injected")
            return real_primal(self, iter_limit)

        monkeypatch.setattr(simplex._Solver, "start", marking_start)
        monkeypatch.setattr(simplex._Solver, "primal", failing_primal)
        res = branch_and_bound(inst, **root)
        assert raised
        assert res.node_errors == 0
        assert res.status == OPTIMAL_PROVEN
        assert res.objective == clean.objective and res.bound == clean.bound


class TestGivenRoot:
    """Branch and bound starts from the root LP solution its caller hands
    it: it never solves that root again, the run is the same on a second
    standard form built from the instance, and nothing writes into the
    shared solution."""

    INSTANCES = (GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08),
                 GeneratorConfig("comb-auction", seed=0, items=20, bids=40))
    CONFIGS = ((), (("fractional", 10, 0),), (("l2dive", 20, 0),))

    @staticmethod
    def frozen(sol):
        for arr in (sol.x, sol.duals.y_b, sol.duals.y_lb, sol.duals.y_ub,
                    sol.basis.basic, sol.basis.at_upper):
            arr.flags.writeable = False
        return sol

    def test_given_root_changes_nothing(self, monkeypatch):
        from divekit import bnb
        from divekit.graphnet import GraphNet
        from divekit.harness import _ensemble_hook
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        # every node LP is warm-started from its parent
        solves = []

        def spy(*a, **kw):
            solves.append(kw.get("warm") is None)
            return solve_lp(*a, **kw)

        monkeypatch.setattr(bnb, "solve_lp", spy)
        model = GraphNet(hidden=8, seed=0)
        for gen in self.INSTANCES:
            inst = generate(gen)
            lp = to_standard_form(inst)
            root = self.frozen(solve_lp(lp))
            for members in self.CONFIGS:
                def run(**kw):
                    solves.clear()
                    diver = _ensemble_hook(members, model, 10, 0) if members else None
                    res = branch_and_bound(inst, SolveConfig(node_limit=60, diver=diver), **kw)
                    return res, list(solves)

                own, own_solves = run(lp=lp, root_sol=root)
                assert own.trace.points[0] == (root.iterations, np.inf, root.objective)
                assert own_solves.count(True) == 0
                assert own.nodes > 1 and (own.dives > 0) == bool(members)
                # with another LP built from the same instance
                given, given_solves = run(lp=to_standard_form(inst), root_sol=root)
                assert given_solves == own_solves
                assert fingerprint(given) == fingerprint(own)


def fingerprint(res):
    """Every field of a ``BnbResult``, floats as their bytes."""
    def bits(v):
        return np.float64(v).tobytes()

    return (res.status, None if res.x is None else res.x.tobytes(), bits(res.objective),
            bits(res.bound), res.nodes, bits(res.ticks), res.node_errors, res.dives,
            np.array(res.trace.points, dtype=np.float64).tobytes(),
            [(bits(z), x.tobytes()) for x, z in res.pool.solutions()], res.pool.rejected)


class TestSharedNodeLps:
    """Runs on one LP that share a table of node LP solutions give the
    results they give alone, bit for bit, and solve each node LP once."""

    INSTANCES = (GeneratorConfig("set-cover", seed=2, rows=40, cols=50, density=0.12, max_cost=5),
                 GeneratorConfig("comb-auction", seed=1, items=20, bids=40),
                 GeneratorConfig("facility-location", seed=0, customers=8, facilities=5),
                 GeneratorConfig("indep-set", seed=0, nodes=40, affinity=3))
    # the last config's early incumbents prune what the others explore, so
    # under the node limit it reaches node LPs none of them solved
    CONFIGS = ((), (("fractional", 5, 0),), (("coefficient", 3, 0),), (("random", 4, 1),),
               (("vectorlength", 1, 0),))

    @staticmethod
    def counting_solves(monkeypatch):
        from divekit import bnb

        calls = []
        real = bnb.solve_lp

        def counting(*a, **kw):
            calls.append(kw)
            return real(*a, **kw)

        monkeypatch.setattr(bnb, "solve_lp", counting)
        return calls

    def test_shared_table_changes_no_result(self, monkeypatch):
        from divekit.harness import _ensemble_hook
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        solves = self.counting_solves(monkeypatch)
        partial = []
        for gen in self.INSTANCES:
            inst = generate(gen)
            lp = to_standard_form(inst)
            root = solve_lp(lp)
            solved = {}
            alone_solves = shared_solves = 0
            for members in self.CONFIGS:
                def run(table):
                    solves.clear()
                    diver = _ensemble_hook(members, None, 10, 3) if members else None
                    res = branch_and_bound(inst, SolveConfig(node_limit=30, diver=diver),
                                           lp=lp, root_sol=root, solved=table)
                    return res, len(solves)

                alone, n_alone = run(None)
                shared, n_shared = run(solved)
                assert fingerprint(shared) == fingerprint(alone), (gen.family, members)
                # every node but the root is solved alone; shared, some are looked up
                assert n_alone == alone.nodes - 1
                alone_solves += n_alone
                shared_solves += n_shared
                if members == self.CONFIGS[-1]:
                    partial.append(0 < n_shared < n_alone)
            assert shared_solves == len(solved) < alone_solves, gen.family
        assert any(partial)

    def test_failed_node_lp_is_retried_by_each_run(self, monkeypatch):
        """A node LP that raises is not stored: every run that reaches it
        solves it again, and counts its own node error."""
        from divekit import bnb, simplex
        from divekit.instances import to_standard_form

        inst = generate(TestFailedNodeLp.INST)
        lp = to_standard_form(inst)
        root = simplex.solve_lp(lp)
        first = self.counting_solves(monkeypatch)
        clean = branch_and_bound(inst, lp=lp, root_sol=root)
        # the first node LP solved below a given root is the root's down child
        down = (first[0]["lower"].tobytes(), first[0]["upper"].tobytes())
        failed = []

        def failing_down_child(*a, **kw):
            if (kw["lower"].tobytes(), kw["upper"].tobytes()) == down:
                failed.append(None)
                raise simplex.NumericalBreakdown("injected")
            return simplex.solve_lp(*a, **kw)

        monkeypatch.setattr(bnb, "solve_lp", failing_down_child)
        alone = branch_and_bound(inst, lp=lp, root_sol=root)
        solved = {}
        runs = [branch_and_bound(inst, lp=lp, root_sol=root, solved=solved) for _ in range(2)]
        assert len(failed) == 3
        assert alone.node_errors == 1 and alone.status == LIMIT != clean.status
        assert fingerprint(runs[0]) == fingerprint(runs[1]) == fingerprint(alone)
        # of the root's two children only the up child is stored
        assert sum(len(path) == 1 for path in solved) == 1

    def test_entries_are_read_only_and_hold_no_kernel_inverse(self):
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        inst = generate(TestFailedNodeLp.INST)
        lp = to_standard_form(inst)
        solved = {}
        res = branch_and_bound(inst, lp=lp, root_sol=solve_lp(lp), solved=solved)
        assert len(solved) == res.nodes - 1 and () not in solved
        optimal = [sol for sol in solved.values() if sol.duals is not None]
        assert optimal
        for sol in optimal:
            assert sol.basis.kinv is None
            for arr in (sol.x, sol.duals.y_b, sol.duals.y_lb, sol.duals.y_ub,
                        sol.basis.basic, sol.basis.at_upper):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[0]


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
            _, _, optima = brute_force_milp(inst)
            res = enumerate_optima(inst, SolveConfig(pool_capacity=10000, node_limit=100000))
            assert res.complete
            assert {tuple(a) for a in res.assignments} == set(optima)

    def test_capacity_flags_incomplete(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=10, affinity=2))
        _, _, optima = brute_force_milp(inst)
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
