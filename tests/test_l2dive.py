import numpy as np
import pytest

from divekit.diving import FractionalScorer, dive
from divekit.graphnet import GraphNet, candidate_codec
from divekit.instances import (
    GeneratorConfig,
    SENSE_LE,
    generate,
    make_instance,
    read_instance,
    to_standard_form,
)
from divekit.l2dive import (
    L2DiveScorer,
    MissingDuals,
    compute_tighten_set,
    verify_tightening_optimality,
)
from divekit.simplex import DualValues, solve_lp
from conftest import brute_binary_optimum, reference_feasible


class TestTightenSet:
    def test_lp_optimum_has_empty_set(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        lp = to_standard_form(inst)
        sol = solve_lp(lp)
        cands = inst.divable_index
        tset = compute_tighten_set(sol.x[cands], sol.duals, lp.lb, lp.ub, cands)
        assert tset.lower.size == 0 and tset.upper.size == 0

    def test_lower_violation_example(self):
        # binary with prediction 1 above its lower bound and a positive
        # lower-bound dual: (1 - 0) * 0.3 > 0
        duals = DualValues(y_b=np.zeros(0), y_lb=np.array([0.3]), y_ub=np.array([0.0]))
        tset = compute_tighten_set(np.array([1.0]), duals, np.array([0.0]),
                                   np.array([1.0]), np.array([0]))
        assert list(tset.lower) == [0] and tset.upper.size == 0
        assert list(tset.union) == [0]

    def test_upper_violation_is_positive_product(self):
        # prediction 0 below the upper bound with a negative upper dual:
        # (0 - 1) * (-0.4) = 0.4 > 0 violates slackness
        duals = DualValues(y_b=np.zeros(0), y_lb=np.array([0.0]), y_ub=np.array([-0.4]))
        tset = compute_tighten_set(np.array([0.0]), duals, np.array([0.0]),
                                   np.array([1.0]), np.array([0]))
        assert list(tset.upper) == [0] and tset.lower.size == 0

    def test_matches_condition_scan(self, rng):
        for _ in range(20):
            n = 4
            lb = np.zeros(n)
            ub = np.ones(n)
            x = rng.integers(0, 2, size=n).astype(np.float64)
            y_lb = np.where(rng.random(n) < 0.5, rng.uniform(0, 1, n), 0.0)
            y_ub = np.where(rng.random(n) < 0.5, -rng.uniform(0, 1, n), 0.0)
            duals = DualValues(y_b=np.zeros(0), y_lb=y_lb, y_ub=y_ub)
            cands = np.arange(n)
            tset = compute_tighten_set(x, duals, lb, ub, cands, tol=1e-9)
            lo_ref = [j for j in range(n) if abs((x[j] - lb[j]) * y_lb[j]) > 1e-9]
            hi_ref = [j for j in range(n) if abs((x[j] - ub[j]) * y_ub[j]) > 1e-9]
            assert list(tset.lower) == lo_ref
            assert list(tset.upper) == hi_ref

    def test_missing_duals_raises(self):
        with pytest.raises(MissingDuals):
            compute_tighten_set(np.zeros(1), None, np.zeros(1), np.ones(1), np.array([0]))


# XF is an integer fixed by FX, XB a BV binary, XN an integer without
# BOUNDS (so [0, inf)) and Y continuous; the root LP is fractional
MIXED_BOUNDS_MPS = """NAME          mixed
ROWS
 N  COST
 G  R0
 L  R1
COLUMNS
    MARKER                 'MARKER'                 'INTORG'
    XF        COST         1.0        R0           1.0
    XB        COST         1.0        R0           1.0
    XN        COST         1.0        R0           1.0
    XN        R1           1.0
    MARKER                 'MARKER'                 'INTEND'
    Y         COST         0.5        R1           1.0
RHS
    RHS       R0           2.5        R1           3.5
BOUNDS
 FX BND       XF           1.0
 BV BND       XB
ENDATA
"""


class TestCandidateAgreement:
    def test_codec_instance_and_dive_name_the_same_candidates(self, tmp_path):
        """``L2DiveScorer`` maps a dive's candidates onto the codec's
        prediction, so the codec, the instance's rule at its own bounds and
        the first ``DiveContext`` of a dive must agree: the fixed column is
        out, the binary and the unbounded integer are in."""
        path = tmp_path / "mixed.mps"
        path.write_text(MIXED_BOUNDS_MPS)
        inst = read_instance(path)
        seen = []

        class Recording(FractionalScorer):
            def begin_dive(self, ctx):
                seen.append(ctx.cands.copy())

        dive(inst, Recording(), d_max=3)
        np.testing.assert_array_equal(candidate_codec(inst)[0], [1, 2])
        np.testing.assert_array_equal(inst.candidates(), [1, 2])
        np.testing.assert_array_equal(seen[0], [1, 2])
        res = dive(inst, L2DiveScorer(GraphNet(hidden=8, seed=0)), d_max=3)
        assert res.depth_reached >= 1


class _FixedPrediction(L2DiveScorer):
    """L2Dive scorer with an injected prediction (no model call)."""

    def __init__(self, values, probs, cands):
        super().__init__(model=None)
        self._values = np.asarray(values, dtype=np.float64)
        self._probs = np.asarray(probs, dtype=np.float64)
        self._pos = np.full(int(np.max(cands)) + 1, -1, dtype=np.int64)
        self._pos[cands] = np.arange(len(cands))

    def begin_dive(self, ctx):
        pass


class TestScoreRule:
    def _ctx(self, inst, lp=None):
        lp = lp or to_standard_form(inst)
        sol = solve_lp(lp)

        class Ctx:
            pass

        ctx = Ctx()
        ctx.inst = inst
        ctx.lo = lp.lb.copy()
        ctx.hi = lp.ub.copy()
        ctx.sol = sol
        ctx.root = sol
        ctx.cands = inst.divable_index
        return ctx

    def test_indicator_dominates_confidence(self):
        # min -2 x1 - x2, one packing row x1 + x2 + x3 <= 1: the LP fixes
        # x1 = 1.  Predicting x1 = 0 violates its upper slackness pair, so
        # x1 is tightened first despite higher confidence elsewhere.
        inst = make_instance("t", c=[-2.0, -1.0, 0.0],
                             rows=[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
                             senses=[SENSE_LE], b=[1.0], lb=[0, 0, 0], ub=[1, 1, 1],
                             integer=[0, 1, 2])
        ctx = self._ctx(inst)
        x = ctx.sol.x[:3]
        assert x[0] == pytest.approx(1.0)
        values = np.array([0.0, 1.0, 0.0])
        probs = np.array([0.6, 0.99, 0.99])  # x1 least confident
        sc = _FixedPrediction(values, probs, ctx.cands)
        dec = sc(ctx)
        assert dec is not None
        assert dec.var == 0  # 0.6 + 1 beats 0.99
        assert dec.new_upper == 0.0

    def test_pure_confidence_when_no_violations(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        ctx = self._ctx(inst)
        x = ctx.sol.x[: inst.n]
        frac = np.flatnonzero(np.abs(x - np.round(x)) > 1e-6)
        assert frac.size > 0
        values = np.round(x)  # agree with the LP everywhere: J is empty
        probs = np.full(inst.n, 0.5)
        probs[frac[-1]] = 0.97  # most confident fractional candidate
        sc = _FixedPrediction(values, probs, ctx.cands)
        dec = sc(ctx)
        assert dec.var == frac[-1]

    def test_direction_rule(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        ctx = self._ctx(inst)
        x = ctx.sol.x[: inst.n]
        frac = np.flatnonzero(np.abs(x - np.round(x)) > 1e-6)
        j = int(frac[0])
        values = np.round(x)
        values[j] = 1.0
        probs = np.zeros(inst.n)
        probs[j] = 1.0
        dec = _FixedPrediction(values, probs, ctx.cands)(ctx)
        assert dec.var == j
        if 1.0 > x[j]:
            assert dec.new_lower == 1.0 and dec.new_upper is None
        # prediction below the LP value caps the upper bound
        values[j] = 0.0
        dec = _FixedPrediction(values, probs, ctx.cands)(ctx)
        assert dec.new_upper == 0.0 and dec.new_lower is None

    def test_direction_consistent_with_tighten_set(self):
        """For members of the violation set, the chosen bound reproduces the
        tightened program of the optimality property: lower-violations raise
        the lower bound to the prediction, upper-violations cap the upper."""
        inst = make_instance("t", c=[-2.0, -1.0, 0.0],
                             rows=[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
                             senses=[SENSE_LE], b=[1.0], lb=[0, 0, 0], ub=[1, 1, 1],
                             integer=[0, 1, 2])
        ctx = self._ctx(inst)
        x = ctx.sol.x[:3]
        winner = int(np.argmax(x))
        values = np.zeros(3)
        probs = np.zeros(3)
        # winner predicted at 0: upper-violation ((0-1)*y_ub > 0) -> cap at 0
        sc = _FixedPrediction(values, probs, ctx.cands)
        tset = compute_tighten_set(values[ctx.cands], ctx.sol.duals, ctx.lo,
                                   ctx.hi, ctx.cands)
        assert winner in list(tset.upper)
        dec = sc(ctx)
        assert dec.var == winner and dec.new_upper == 0.0

    def test_prediction_immutable_within_dive(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        model = GraphNet(hidden=8, seed=0)
        sc = L2DiveScorer(model)
        calls = []
        orig = L2DiveScorer.begin_dive

        def spy(self, ctx):
            calls.append(1)
            orig(self, ctx)

        sc.begin_dive = spy.__get__(sc)
        res = dive(inst, sc, d_max=10)
        assert res.depth_reached > 0
        assert len(calls) == 1  # one model call at dive start


class TestTighteningOptimality:
    def test_milp_optimum_pair(self):
        inst = generate(GeneratorConfig("set-cover", seed=2, rows=6, cols=10, density=0.3))
        _, x_opt, _ = brute_binary_optimum(inst)
        rep = verify_tightening_optimality(inst, x_opt)
        assert rep["holds"]

    def test_integral_lp_optimum_no_tightening(self):
        inst = generate(GeneratorConfig("indep-set", seed=1, nodes=5, affinity=0))
        lp = to_standard_form(inst)
        sol = solve_lp(lp)
        rep = verify_tightening_optimality(inst, sol.x[: inst.n])
        assert rep["holds"]
        assert rep["n_lower"] == 0 and rep["n_upper"] == 0
        assert rep["tightened_objective"] == pytest.approx(sol.objective)

    def test_random_feasible_points(self, rng):
        checked = 0
        for seed in range(10):
            fam = ["set-cover", "indep-set", "comb-auction"][seed % 3]
            kw = {"set-cover": dict(rows=6, cols=10, density=0.3),
                  "indep-set": dict(nodes=10, affinity=2),
                  "comb-auction": dict(items=7, bids=10)}[fam]
            inst = generate(GeneratorConfig(fam, seed=seed, **kw))
            feas = []
            import itertools
            for bits in itertools.product((0.0, 1.0), repeat=inst.n):
                x = np.array(bits)
                if reference_feasible(inst, x):
                    feas.append(x)
            picks = rng.choice(len(feas), size=min(5, len(feas)), replace=False)
            for k in picks:
                rep = verify_tightening_optimality(inst, feas[k])
                assert rep["holds"], (fam, seed, rep)
                checked += 1
        assert checked >= 50

    def test_dive_reaches_prediction_objective(self):
        """Feasible prediction with all variables divable: the dive that
        tightens the violation set ends with a solution at least as good."""
        for seed in (2, 3, 4):
            inst = generate(GeneratorConfig("set-cover", seed=seed, rows=6, cols=10,
                                            density=0.3))
            _, x_opt, _ = brute_binary_optimum(inst)
            cands = inst.divable_index
            sc = _FixedPrediction(x_opt, np.ones(inst.n), cands)
            res = dive(inst, sc, d_max=100)
            assert res.solutions
            assert res.best_z <= float(inst.c @ x_opt) + 1e-9
