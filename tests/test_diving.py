import numpy as np
import pytest

from divekit.diving import (
    CoefficientScorer,
    DiveError,
    FixAtBoundScorer,
    FractionalScorer,
    HEURISTIC_DIVERS,
    LinesearchScorer,
    PseudocostScorer,
    SCORERS,
    SEEDED_SCORERS,
    ScoreDecision,
    VectorlengthScorer,
    dive,
    make_scorer,
)
from divekit import diving
from divekit.graphnet import GraphNet
from divekit.instances import GeneratorConfig, generate, read_instance
from divekit.l2dive import L2DiveScorer
from divekit.simplex import NumericalBreakdown
from conftest import mps_without_bounds, reference_feasible

ALL_BASELINES = HEURISTIC_DIVERS


class _Ctx:
    """Minimal stand-in context for scorer unit tests; ``locks`` and
    ``degrees`` reach the scorer through ``inst.column_counts()``."""

    def __init__(self, x, cands, root=None, c=None, degrees=None, locks=(None, None),
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

        class Inst:
            pass

        self.inst = Inst()
        self.inst.c = np.asarray(c, dtype=np.float64) if c is not None else None
        self.inst.column_counts = lambda: (*locks, degrees)
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
        d = CoefficientScorer()(_Ctx([0.5, 0.1], [0, 1], locks=locks))
        assert (d.var, d.new_lower, d.new_upper) == (1, None, 0.0)  # toward the nearest

    def test_linesearch_ray(self):
        # ray ratios (1 + 0.7) / 1.0 = 1.7 against (1 - 0.8) / 0.1 = 2.0: the
        # more fractional candidate, rounded up although nearer to zero
        d = LinesearchScorer()(_Ctx([0.3, 0.9], [0, 1], root=[-0.7, 0.8]))
        assert (d.var, d.new_lower, d.new_upper) == (0, 1.0, None)
        # (1 - 0.7) / 0.2 = 1.5 now beats 1.7
        d = LinesearchScorer()(_Ctx([0.3, 0.9], [0, 1], root=[-0.7, 0.7]))
        assert (d.var, d.new_lower, d.new_upper) == (1, 1.0, None)

    def test_linesearch_zero_ray_falls_back(self):
        d = LinesearchScorer()(_Ctx([0.4, 0.6], [0, 1], root=[0.4, 0.6]))
        assert d is not None  # fractional fallback picks something
        assert d.var == 0  # both fractionality 0.4; lowest index

    def test_linesearch_single_moved_candidate(self):
        d = LinesearchScorer()(_Ctx([0.5, 0.4], [0, 1], root=[0.5, 0.1]))
        assert d.var == 1  # only the moved fractional candidate gets a ratio

    def test_vectorlength_ratio(self):
        # the free direction of each (down for c > 0, up for c < 0) has ratio
        # 1e-9 / degree, so the candidate in more rows wins
        ctx = _Ctx([0.4, 0.6], [0, 1], c=[1.0, -1.0], degrees=np.array([3, 5]))
        d = VectorlengthScorer()(ctx)
        assert (d.var, d.new_lower, d.new_upper) == (1, 1.0, None)
        ctx = _Ctx([0.4, 0.6], [0, 1], c=[1.0, -1.0], degrees=np.array([5, 3]))
        d = VectorlengthScorer()(ctx)
        assert (d.var, d.new_lower, d.new_upper) == (0, None, 0.0)
        # with c = 0 both directions tie and the rule rounds down
        d = VectorlengthScorer()(_Ctx([0.6], [0], c=[0.0], degrees=np.array([1])))
        assert (d.var, d.new_lower, d.new_upper) == (0, None, 0.0)

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
        ctx = _Ctx([0.5] * 4, [0, 1, 2, 3], c=[7.0] * 4)
        sc(ctx)  # a dive scores before it observes
        sc.observe(3, True, 0.5, 1.0)
        assert sc.estimate(ctx, [3])[0, 1] == pytest.approx(2.0)
        sc.observe(3, True, 0.5, 2.0)
        assert sc.estimate(ctx, [3])[0, 1] == pytest.approx(3.0)  # mean of 2 and 4
        assert sc.estimate(ctx, [3])[0, 0] == 7.0  # down: never observed

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
        picks1 = [make_scorer("random", seed=9)(ctx).new_lower for _ in range(6)]
        ctx2 = _Ctx([0.5] * 6, list(range(6)), lo=[0.0] * 6, hi=[1.0] * 6)
        picks2 = [make_scorer("random", seed=9)(ctx2).new_lower for _ in range(6)]
        assert picks1 == picks2
        seq = [make_scorer("random", seed=9)(ctx) for _ in range(1)]
        assert seq[0].new_lower == seq[0].new_upper  # always a fix

    def test_fix_at_bound_matches_candidate_loop(self, rng):
        """The vectorized rule fixes what a loop over the candidates fixes,
        also when some candidates have an infinite lower or upper bound or
        both: ``lower``/``upper`` take the first candidate whose chosen
        bound is finite, and the first whose other bound is finite when no
        chosen bound is; ``random`` draws one coin per candidate and falls
        back to the other bound when the coin picks an infinite one."""
        n = 8
        for trial in range(50):
            lo = rng.integers(-3, 1, size=n).astype(np.float64)
            hi = lo + rng.integers(1, 4, size=n)
            lo[rng.random(n) < 0.4] = -np.inf
            hi[rng.random(n) < 0.4] = np.inf
            cands = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            ctx = _Ctx(np.zeros(n), cands, lo=lo, hi=hi)
            loops = {"lower": _LoopFix("lower"), "upper": _LoopFix("upper"),
                     "random": _LoopFix("random", seed=trial)}
            scorers = {"lower": FixAtBoundScorer("lower"), "upper": FixAtBoundScorer("upper"),
                       "random": FixAtBoundScorer("random", seed=trial)}
            for step in range(3):
                for bound, sc in scorers.items():
                    ref, d = loops[bound](ctx), sc(ctx)
                    if ref is None:
                        assert d is None
                    else:
                        assert (d.var, d.new_lower, d.new_upper) == \
                            (ref.var, ref.new_lower, ref.new_upper)


class _LoopFix:
    """Fix-at-bound as a loop over the candidates, one coin per candidate
    for ``random``, which falls back to the other bound when the chosen one
    is infinite; ``lower``/``upper`` loop again over the other bounds when
    no chosen bound is finite."""

    def __init__(self, bound, seed=0):
        self.bound = bound
        self.rng = np.random.default_rng(seed)

    def __call__(self, ctx):
        for j in ctx.cands:
            if self.bound == "random":
                at_lower = bool(self.rng.random() < 0.5)
                order = (ctx.lo[j], ctx.hi[j]) if at_lower else (ctx.hi[j], ctx.lo[j])
            else:
                order = (ctx.lo[j] if self.bound == "lower" else ctx.hi[j],)
            for v in order:
                if np.isfinite(v):
                    return ScoreDecision(int(j), float(v), float(v))
        if self.bound != "random":
            other = ctx.hi if self.bound == "lower" else ctx.lo
            for j in ctx.cands:
                if np.isfinite(other[j]):
                    return ScoreDecision(int(j), float(other[j]), float(other[j]))
        return None


def _loop_fractional_candidates(ctx):
    """``(j, x_j)`` of each candidate more than ``INT_TOL`` from its
    round-half-up nearest integer, in candidate order."""
    for j in ctx.cands:
        v = ctx.sol.x[j]
        if abs(v - np.floor(v + 0.5)) > diving.INT_TOL:
            yield int(j), v


def _loop_round(j, v, up):
    """Round ``x_j = v`` up (raise the lower bound) or down (cap the upper)."""
    if up:
        return ScoreDecision(j, float(np.ceil(v)), None)
    return ScoreDecision(j, None, float(np.floor(v)))


def _loop_nearest(j, v):
    return _loop_round(j, v, np.floor(v + 0.5) > v)


def _loop_first_min(keyed):
    """The decision of the first smallest key among ``(key, decision)``."""
    best = None
    for key, decision in keyed:
        if best is None or key < best[0]:
            best = (key, decision)
    return None if best is None else best[1]


def _loop_fractional(ctx):
    return _loop_first_min((abs(v - np.floor(v + 0.5)), _loop_nearest(j, v))
                           for j, v in _loop_fractional_candidates(ctx))


def _loop_coefficient(ctx):
    up, down, _ = ctx.inst.column_counts()

    def decide(j, v):
        if up[j] != down[j]:
            return _loop_round(j, v, up[j] < down[j])
        return _loop_nearest(j, v)

    return _loop_first_min(((min(up[j], down[j]), abs(v - np.floor(v + 0.5))), decide(j, v))
                           for j, v in _loop_fractional_candidates(ctx))


def _loop_linesearch(ctx):
    keyed = []
    for j, v in _loop_fractional_candidates(ctx):
        r = ctx.root.x[j]
        if v - r > 1e-9:
            keyed.append(((np.ceil(v) - r) / (v - r), _loop_round(j, v, True)))
        elif v - r < -1e-9:
            keyed.append(((np.floor(v) - r) / (v - r), _loop_round(j, v, False)))
    return _loop_first_min(keyed) if keyed else _loop_fractional(ctx)


def _loop_vectorlength(ctx):
    keyed = []
    for j, v in _loop_fractional_candidates(ctx):
        c = ctx.inst.c[j]
        deg = float(max(ctx.inst.column_counts()[2][j], 1))
        r_up = (max(c * (np.ceil(v) - v), 0.0) + 1e-9) / deg
        r_dn = (max(c * (np.floor(v) - v), 0.0) + 1e-9) / deg
        keyed.append((min(r_dn, r_up), _loop_round(j, v, r_dn > r_up)))
    return _loop_first_min(keyed)


class _DictPseudocost:
    """Pseudocosts as a ``(var, up)`` dict, scored by a loop over the
    candidates that keeps the first cheapest one, down on a tie."""

    def __init__(self):
        self.stats = {}

    def estimate(self, ctx, j, up):
        rec = self.stats.get((int(j), bool(up)))
        return abs(float(ctx.inst.c[j])) if rec is None else rec[0] / rec[1]

    def observe(self, j, up, moved, degradation):
        rec = self.stats.setdefault((int(j), bool(up)), [0.0, 0])
        rec[0] += degradation / moved
        rec[1] += 1

    def __call__(self, ctx):
        keyed = []
        for j, v in _loop_fractional_candidates(ctx):
            dn = self.estimate(ctx, j, False) * (v - np.floor(v))
            up = self.estimate(ctx, j, True) * (np.ceil(v) - v)
            keyed.append((min(dn, up), _loop_round(j, v, dn > up)))
        return _loop_first_min(keyed)


class _Lockstep:
    """Scores with ``got`` and checks every decision against ``ref``; both
    observe every resolve when ``got`` observes."""

    def __init__(self, got, ref):
        self.got, self.ref = got, ref
        self.decisions = 0

    def __call__(self, ctx):
        d, r = self.got(ctx), self.ref(ctx)
        assert (d is None) == (r is None)
        if d is not None:
            assert (d.var, d.new_lower, d.new_upper) == (r.var, r.new_lower, r.new_upper)
            self.decisions += 1
        return d

    def observe(self, *a):
        if hasattr(self.got, "observe"):
            self.got.observe(*a)
            self.ref.observe(*a)


class TestRoundingLoops:
    @pytest.mark.parametrize("name, ref", [
        ("fractional", _loop_fractional),
        ("coefficient", _loop_coefficient),
        ("linesearch", _loop_linesearch),
        ("vectorlength", _loop_vectorlength),
    ])
    def test_matches_candidate_loop_over_dives(self, name, ref):
        """The vectorized diver picks what a loop over the candidates picks,
        bit for bit, in every step of several dives."""
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        step = _Lockstep(make_scorer(name), ref)
        for seed in (0, 1):
            for gen in (GeneratorConfig("set-cover", seed=seed, rows=50, cols=100, density=0.1),
                        GeneratorConfig("comb-auction", seed=seed, items=20, bids=40),
                        GeneratorConfig("facility-location", seed=seed, customers=10,
                                        facilities=6),
                        GeneratorConfig("indep-set", seed=seed, nodes=40)):
                inst = generate(gen)
                lp = to_standard_form(inst)
                root = solve_lp(lp)
                for k in range(4):
                    # each dive starts with one more variable capped at zero
                    hi = lp.ub.copy()
                    hi[:k] = 0.0
                    dive(inst, step, d_max=20, lp=lp, root_sol=root if k == 0 else None,
                         upper=hi)
        assert step.decisions > 40


class TestPseudocostArrays:
    def test_matches_dict_loop_over_dives(self):
        """The vectorized scorer picks what the dict-and-loop reference picks,
        bit for bit, over several dives of one scorer, so later dives read
        pseudocosts that earlier dives observed."""
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        decisions = 0
        for gen in (GeneratorConfig("set-cover", seed=0, rows=50, cols=100, density=0.1),
                    GeneratorConfig("comb-auction", seed=0, items=20, bids=40)):
            inst = generate(gen)
            lp = to_standard_form(inst)
            root = solve_lp(lp)
            got, ref = PseudocostScorer(), _DictPseudocost()
            step = _Lockstep(got, ref)
            for k in range(4):
                # each dive starts with one more variable capped at zero
                hi = lp.ub.copy()
                hi[:k] = 0.0
                dive(inst, step, d_max=20, lp=lp, root_sol=root if k == 0 else None, upper=hi)
            decisions += step.decisions
            assert any(rec[1] > 1 for rec in ref.stats.values())
            assert int(got.counts.sum()) == sum(rec[1] for rec in ref.stats.values())
            for (j, up), (total, count) in ref.stats.items():
                assert (got.sums[j, int(up)], got.counts[j, int(up)]) == (total, count)
        assert decisions > 60


class TestUnboundedIntegers:
    def test_random_matches_candidate_loop_on_mps_defaults(self, tmp_path):
        """MPS integer columns without a BOUNDS entry have no upper bound;
        ``random`` then fixes at the lower bound whenever its coin says
        upper, as the candidate loop does, and never leaves a fractional
        LP point without a decision."""
        deepest = 0
        for s in range(3):
            path = tmp_path / f"cover{s}.mps"
            path.write_text(mps_without_bounds(
                generate(GeneratorConfig("set-cover", seed=s, rows=20, cols=40, density=0.12))))
            inst = read_instance(path)
            assert inst.divable.all() and np.isinf(inst.ub).all()
            for seed in range(3):
                got = dive(inst, make_scorer("random", seed=seed), d_max=30)
                ref = dive(inst, _LoopFix("random", seed=seed), d_max=30)
                assert _same_dive(got, ref)
                deepest = max(deepest, got.depth_reached)
        assert deepest > 1


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

    def test_solutions_enter_only_through_rounding(self, monkeypatch):
        """An integral root LP point is recorded through ``round_solution``
        like every other LP point, so with no rounding there is no solution."""
        monkeypatch.setattr(diving, "round_solution", lambda x, inst: None)
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        res = dive(inst, make_scorer("fractional"))
        assert res.termination == "integral" and res.depth_reached == 0
        assert res.solutions == [] and res.best_z == np.inf

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
                    "infeasible", "depth_limit", "iter_limit", "integral")
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

    def test_decision_that_bounds_nothing_raises(self):
        """A decision with neither bound would re-solve the same LP until
        the depth limit; the engine refuses it as it refuses a non-candidate."""
        class Empty:
            def __call__(self, ctx):
                return ScoreDecision(int(ctx.cands[0]), None, None)

        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        with pytest.raises(DiveError, match="bounds nothing"):
            dive(inst, Empty(), d_max=30)

    def test_registry_names(self):
        for name in ALL_BASELINES:
            assert name in SCORERS
        with pytest.raises(ValueError, match="unknown diver 'nope'"):
            make_scorer("nope")
        with pytest.raises(ValueError, match="l2dive diver needs a trained model"):
            make_scorer("l2dive")


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


class TestWarmResolveWork:
    """A deterministic guard on the pivots warm resolves take in dives.

    Every diver (the eight heuristics and an untrained learned diver) dives
    once from the root of set-cover 50x100 seeds 0-11 with ``d_max=5`` and a
    60-pivot resolve budget.  The warm resolves took 4139 pivots with the
    primal phases alone and 1257 with the dual phase (per seed: 156, 77, 0,
    0, 32, 135, 52, 0, 369, 144, 0, 292); the bound sits 10% above that, so
    the saving cannot silently come undone.  Twelve instances, not three,
    because a degenerate dive may end on another optimal vertex after any
    change of arithmetic, and one instance's count can swing by a quarter.
    """

    BOUND = 1383

    def test_warm_resolve_pivots_stay_low(self):
        from divekit.diving import HEURISTIC_DIVERS
        from divekit.instances import to_standard_form
        from divekit.simplex import solve_lp

        total = 0
        for seed in range(12):
            inst = generate(GeneratorConfig("set-cover", seed=seed, rows=50, cols=100,
                                            density=0.1))
            lp = to_standard_form(inst)
            root = solve_lp(lp)
            scorers = [make_scorer(name, seed=0) for name in HEURISTIC_DIVERS]
            scorers.append(make_scorer("l2dive", model=GraphNet(hidden=8, seed=0)))
            for scorer in scorers:
                res = dive(inst, scorer, d_max=5, lp_iter_limit=60, lp=lp, root_sol=root)
                total += res.lp_iterations
        assert total <= self.BOUND
