import numpy as np
import pytest

from divekit.diving import (
    CoefficientScorer,
    DiveError,
    FractionalScorer,
    LinesearchScorer,
    PseudocostScorer,
    RandomScorer,
    SCORERS,
    SEEDED_SCORERS,
    VectorlengthScorer,
    dive,
    make_scorer,
)
from divekit import diving
from divekit.graphnet import GraphNet
from divekit.instances import GeneratorConfig, generate
from divekit.l2dive import L2DiveScorer
from divekit.simplex import NumericalBreakdown
from conftest import reference_feasible

ALL_BASELINES = ("fractional", "coefficient", "linesearch", "vectorlength",
                 "pseudocost", "lower", "upper", "random")


class _Ctx:
    """Minimal stand-in context for scorer unit tests."""

    def __init__(self, x, cands, root=None, c=None, degrees=None, locks=None,
                 lo=None, hi=None):
        class Sol:
            pass

        self.sol = Sol()
        self.sol.x = np.asarray(x, dtype=np.float64)
        self.sol.objective = 0.0
        self.cands = np.asarray(cands, dtype=np.int64)
        if root is not None:
            self.root = Sol()
            self.root.x = np.asarray(root, dtype=np.float64)
        self.locks = locks
        self.degrees = degrees

        class Inst:
            pass

        self.inst = Inst()
        self.inst.c = np.asarray(c, dtype=np.float64) if c is not None else None
        self.lo = np.asarray(lo, dtype=np.float64) if lo is not None else None
        self.hi = np.asarray(hi, dtype=np.float64) if hi is not None else None


class TestScorerRules:
    def test_fractional_picks_least_fractional_toward_nearest(self):
        d = FractionalScorer()(_Ctx([0.9, 0.5], [0, 1]))
        assert d.var == 0 and d.new_lower == 1.0 and d.new_upper is None

    def test_fractional_none_when_integral(self):
        assert FractionalScorer()(_Ctx([1.0, 0.0], [0, 1])) is None

    def test_fractional_tie_lowest_index(self):
        d = FractionalScorer()(_Ctx([0.5, 0.5], [0, 1]))
        assert d.var == 0

    def test_coefficient_prefers_smaller_lock_count(self):
        locks = (np.array([3, 1]), np.array([2, 4]))  # up, down
        d = CoefficientScorer()(_Ctx([0.5, 0.5], [0, 1], locks=locks))
        assert d.var == 1  # min(up, down) = 1 beats 2
        assert d.new_lower == 1.0  # up_locks < down_locks: bound upward

    def test_coefficient_tie_uses_fractionality(self):
        locks = (np.array([2, 2]), np.array([2, 2]))
        d = CoefficientScorer()(_Ctx([0.5, 0.9], [0, 1], locks=locks))
        assert d.var == 1  # fractionality 0.1 < 0.5

    def test_linesearch_ray(self):
        d = LinesearchScorer()(_Ctx([0.8, 0.4], [0, 1], root=[0.0, 0.0]))
        assert d.var == 0 and d.new_lower == 1.0
        assert d.score == pytest.approx(-1.25)

    def test_linesearch_zero_ray_falls_back(self):
        d = LinesearchScorer()(_Ctx([0.4, 0.6], [0, 1], root=[0.4, 0.6]))
        assert d is not None  # fractional fallback picks something
        assert d.var == 0  # both fractionality 0.4; lowest index

    def test_linesearch_single_moved_candidate(self):
        d = LinesearchScorer()(_Ctx([0.5, 0.4], [0, 1], root=[0.5, 0.1]))
        assert d.var == 1  # only the moved fractional candidate gets a ratio

    def test_vectorlength_ratio(self):
        d = VectorlengthScorer()(
            _Ctx([0.4], [0], c=[1.0], degrees=np.array([5])))
        assert d.var == 0 and d.new_upper == 0.0
        assert -d.score == pytest.approx((0.0 + 1e-9) / 5)

    def test_vectorlength_tie_lowest_index(self):
        d = VectorlengthScorer()(
            _Ctx([0.5, 0.5], [0, 1], c=[1.0, 1.0], degrees=np.array([3, 3])))
        assert d.var == 0

    def test_pseudocost_cold_start_is_objective_rule(self):
        sc = PseudocostScorer()
        ctx = _Ctx([0.4, 0.4], [0, 1], c=[5.0, 1.0])
        d = sc(ctx)
        # cheaper estimated degradation on the smaller |c| variable
        assert d.var == 1

    def test_pseudocost_single_observation_mean(self):
        sc = PseudocostScorer()
        sc.observe(3, True, 0.5, 1.0)
        assert sc.estimate(None, 3, True) == pytest.approx(2.0)
        sc.observe(3, True, 0.5, 2.0)
        assert sc.estimate(None, 3, True) == pytest.approx(3.0)  # mean of 2 and 4

    def test_trivial_lower_fixes_at_lower(self):
        ctx = _Ctx([0.5, 0.5], [0, 1], lo=[0.0, 0.0], hi=[1.0, 1.0])
        d = make_scorer("lower")(ctx)
        assert d.var == 0 and d.new_lower == 0.0 and d.new_upper == 0.0

    def test_trivial_upper_fixes_at_upper(self):
        ctx = _Ctx([0.5, 0.5], [0, 1], lo=[0.0, 0.0], hi=[1.0, 1.0])
        d = make_scorer("upper")(ctx)
        assert d.var == 0 and d.new_lower == 1.0 and d.new_upper == 1.0

    def test_random_reproducible(self):
        ctx = _Ctx([0.5] * 6, list(range(6)), lo=[0.0] * 6, hi=[1.0] * 6)
        picks1 = [RandomScorer(seed=9)(ctx).new_lower for _ in range(6)]
        ctx2 = _Ctx([0.5] * 6, list(range(6)), lo=[0.0] * 6, hi=[1.0] * 6)
        picks2 = [RandomScorer(seed=9)(ctx2).new_lower for _ in range(6)]
        assert picks1 == picks2
        seq = [RandomScorer(seed=9)(ctx) for _ in range(1)]
        assert seq[0].new_lower == seq[0].new_upper  # always a fix


class TestDiveEngine:
    def test_full_column_bounds_reach_every_lp(self, monkeypatch):
        """``lower``/``upper`` cover the slack columns too: a slack capped at
        zero holds in every LP of the dive, and the caller's arrays are
        copied, not tightened in place."""
        from divekit.instances import to_standard_form

        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        lp = to_standard_form(inst)
        free = diving.solve_lp(lp)
        s = lp.slack_start + int(np.argmax(free.x[lp.slack_start:]))
        assert free.x[s] > 1e-6  # the cap below cuts off the free root
        lo, hi = lp.lb.copy(), lp.ub.copy()
        hi[s] = 0.0
        real = diving.solve_lp
        solved = []

        def spy(*a, **kw):
            sol = real(*a, **kw)
            solved.append(sol)
            return sol

        monkeypatch.setattr(diving, "solve_lp", spy)
        res = dive(inst, make_scorer("lower"), d_max=10, lp=lp, lower=lo, upper=hi)
        assert res.depth_reached >= 1
        assert len(solved) >= 2
        for sol in solved:
            if sol.x is not None:
                assert sol.x[s] <= 1e-9
        np.testing.assert_array_equal(lo, lp.lb)
        assert hi[s] == 0.0 and np.array_equal(np.delete(hi, s), np.delete(lp.ub, s))

    def test_root_integral_terminates_depth_zero(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        res = dive(inst, make_scorer("fractional"))
        assert res.termination == "integral"
        assert res.depth_reached == 0
        assert len(res.solutions) == 1
        assert res.best_z == -5.0

    def test_dmax_zero_only_rounds(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        res = dive(inst, make_scorer("fractional"), d_max=0)
        assert res.depth_reached == 0

    def test_depth_bounded_and_sound(self):
        for name in ALL_BASELINES:
            for seed in (0, 1):
                inst = generate(GeneratorConfig("set-cover", seed=seed,
                                                rows=20, cols=40, density=0.12))
                res = dive(inst, make_scorer(name, seed=seed), d_max=30)
                assert res.depth_reached <= 30
                assert res.termination in (
                    "infeasible", "depth_limit", "iter_limit", "integral", "cutoff")
                for x in res.solutions:
                    assert reference_feasible(inst, x)

    def test_candidate_set_never_grows(self):
        sizes = []

        class Spy:
            def __init__(self):
                self.inner = make_scorer("lower")

            def __call__(self, ctx):
                sizes.append(ctx.cands.size)
                return self.inner(ctx)

        inst = generate(GeneratorConfig("set-cover", seed=2, rows=15, cols=30, density=0.15))
        dive(inst, Spy(), d_max=20)
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_one_bound_change_per_iteration_weakly_shrinks(self):
        boxes = []

        class Spy:
            def __init__(self):
                self.inner = make_scorer("fractional")

            def __call__(self, ctx):
                boxes.append((ctx.lo.copy(), ctx.hi.copy()))
                return self.inner(ctx)

        inst = generate(GeneratorConfig("set-cover", seed=4, rows=15, cols=30, density=0.15))
        dive(inst, Spy(), d_max=15)
        for (lo0, hi0), (lo1, hi1) in zip(boxes, boxes[1:]):
            assert np.all(lo1 >= lo0) and np.all(hi1 <= hi0)
            changed = np.sum((lo1 != lo0) | (hi1 != hi0))
            assert changed <= 1

    def test_cutoff_aborts(self):
        # seed 1 at this size has a fractional root, so the dive really runs
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        res = dive(inst, make_scorer("lower"), d_max=100, cutoff=-1e9)
        assert res.termination == "cutoff"
        assert res.depth_reached == 1

    def test_iteration_limit_termination(self):
        inst = generate(GeneratorConfig("set-cover", seed=7, rows=30, cols=60, density=0.08))
        res = dive(inst, make_scorer("lower"), d_max=100, lp_iter_limit=1)
        assert res.termination in ("iter_limit", "infeasible", "integral")

    def test_scorer_contract_violation_raises(self):
        class Bad:
            def __call__(self, ctx):
                return None

        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        with pytest.raises(DiveError):
            dive(inst, Bad(), d_max=5)

    def test_registry_names(self):
        for name in ALL_BASELINES:
            assert name in SCORERS
        with pytest.raises(KeyError):
            make_scorer("nope")


def _same_dive(a, b):
    return (a.termination == b.termination and a.depth_reached == b.depth_reached
            and a.lp_iterations == b.lp_iterations and a.best_z == b.best_z
            and len(a.solutions) == len(b.solutions)
            and all(np.array_equal(x, y) for x, y in zip(a.solutions, b.solutions)))


class TestRegistry:
    def test_l2dive_registered_explicitly(self):
        assert isinstance(make_scorer("l2dive", model=GraphNet(hidden=8, seed=0)),
                          L2DiveScorer)
        with pytest.raises(ValueError):
            make_scorer("l2dive")

    def test_unseeded_divers_ignore_the_seed(self):
        """Every diver outside SEEDED_SCORERS dives identically under any
        seed, which is what lets eval_bnb run such configs once."""
        model = GraphNet(hidden=8, seed=0)
        insts = [generate(GeneratorConfig("set-cover", seed=s, rows=20, cols=40, density=0.12))
                 for s in (0, 1)]
        for name in sorted(set(SCORERS) - SEEDED_SCORERS):
            for inst in insts:
                a = dive(inst, make_scorer(name, seed=0, model=model), d_max=30)
                b = dive(inst, make_scorer(name, seed=1, model=model), d_max=30)
                assert _same_dive(a, b), name
        assert SEEDED_SCORERS <= set(SCORERS)

    def test_random_reads_the_seed(self):
        differs = False
        for s in range(4):
            inst = generate(GeneratorConfig("set-cover", seed=s, rows=20, cols=40, density=0.12))
            a = dive(inst, make_scorer("random", seed=0), d_max=30)
            b = dive(inst, make_scorer("random", seed=1), d_max=30)
            differs |= not _same_dive(a, b)
        assert "random" in SEEDED_SCORERS and differs


def _failing_solve_lp(monkeypatch, fail_on):
    """Make ``diving.solve_lp`` raise on the listed (1-based) calls."""
    real = diving.solve_lp
    calls = {"n": 0}

    def solve_lp(*a, **kw):
        calls["n"] += 1
        if calls["n"] in fail_on:
            raise NumericalBreakdown("injected failure")
        return real(*a, **kw)

    monkeypatch.setattr(diving, "solve_lp", solve_lp)
    return calls


class TestLpFailure:
    # seed 1 at this size has a fractional root, so the dive really runs
    INST = GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08)

    def test_root_failure_ends_dive(self, monkeypatch):
        _failing_solve_lp(monkeypatch, {1})
        res = dive(generate(self.INST), make_scorer("fractional"), d_max=10)
        assert res.termination == "lp_error"
        assert res.solutions == [] and res.lp_iterations == 0 and res.depth_reached == 0

    def test_resolve_failure_keeps_progress(self, monkeypatch):
        inst = generate(self.INST)
        clean = dive(inst, make_scorer("lower"), d_max=1)
        assert clean.termination == "depth_limit"  # so a second resolve follows
        _failing_solve_lp(monkeypatch, {3})
        res = dive(inst, make_scorer("lower"), d_max=10)
        assert res.termination == "lp_error"
        assert res.depth_reached == 2
        # iterations of the root solve and the first resolve are kept
        assert res.lp_iterations == clean.lp_iterations
        for x in clean.solutions:
            assert any(np.array_equal(x, y) for y in res.solutions)
