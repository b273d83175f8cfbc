import dataclasses

import numpy as np
import pytest

from divekit.bnb import SolveConfig, branch_and_bound
from divekit.graphnet import (
    AdamState,
    GraphNet,
    NonFiniteGradient,
    ShapeMismatch,
    TargetDistribution,
    TrainExample,
    TrainingConfig,
    adam_step,
    batch_loss_and_grads,
    candidate_codec,
    default_temperature,
    domain_bits,
    extract_graph,
    kl_loss,
    load_model,
    make_batch,
    save_model,
    target_distribution,
    train_model,
)
from divekit.instances import GeneratorConfig, generate, make_instance, to_standard_form, SENSE_LE
from divekit.simplex import solve_lp


def graph_for(inst):
    lp = to_standard_form(inst)
    root = solve_lp(lp)
    assert root.status == "optimal"
    return extract_graph(inst, root), root


@pytest.fixture
def small_example():
    inst = generate(GeneratorConfig("set-cover", seed=0, rows=5, cols=8, density=0.35))
    g, root = graph_for(inst)
    res = branch_and_bound(inst, SolveConfig(pool_capacity=5))
    target = target_distribution(res.pool.solutions(), inst, temperature=2.0)
    return inst, g, target


class TestExtraction:
    def test_one_edge_per_nonzero(self):
        inst = generate(GeneratorConfig("comb-auction", seed=2, items=8, bids=12))
        g, _ = graph_for(inst)
        assert g.edge_row.size == inst.A.nnz
        assert g.var_feats.shape[0] == inst.n
        assert g.cons_feats.shape[0] == inst.m
        assert np.all(np.isfinite(g.var_feats)) and np.all(np.isfinite(g.cons_feats))

    def test_at_bound_flags_and_fractionality(self):
        inst = generate(GeneratorConfig("set-cover", seed=1, rows=30, cols=60, density=0.08))
        g, root = graph_for(inst)
        x = root.x[: inst.n]
        at_lower = g.var_feats[:, 10]
        frac = g.var_feats[:, 8]
        j_bound = int(np.argmax(np.abs(x - inst.lb) < 1e-9))
        assert at_lower[j_bound] == 1.0 and frac[j_bound] == 0.0

    def test_hand_computed_features(self):
        # 2 vars, 2 rows: x1 + 2 x2 <= 2 ; x1 >= 1, c = (1, -2), x in [0,1]
        inst = make_instance(
            "hand", c=[1.0, -2.0],
            rows=[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0)],
            senses=[SENSE_LE, 1], b=[2.0, 1.0], lb=[0, 0], ub=[1, 1],
            integer=[0, 1],
        )
        g, root = graph_for(inst)
        x = root.x[:2]
        # optimum: x1 = 1 (forced), x2 = 0.5 from the first row
        np.testing.assert_allclose(x, [1.0, 0.5], atol=1e-9)
        maxc = 2.0
        np.testing.assert_allclose(g.var_feats[0, 0], 1.0 / (1 + maxc))
        np.testing.assert_allclose(g.var_feats[1, 0], -2.0 / (1 + maxc))
        np.testing.assert_allclose(g.var_feats[:, 7], x)  # lp value
        np.testing.assert_allclose(g.var_feats[:, 8], [0.0, 0.5])  # fractionality
        # row norms: sqrt(1+4) and 1
        np.testing.assert_allclose(g.cons_feats[0, 3], 2.0 / (1 + np.sqrt(5.0)))
        np.testing.assert_allclose(g.cons_feats[1, 3], 1.0 / 2.0)
        # edge coefficients normalized by the row norm
        np.testing.assert_allclose(
            sorted(g.edge_coef), sorted([1 / np.sqrt(5), 2 / np.sqrt(5), 1.0]))
        # degrees
        np.testing.assert_allclose(g.var_deg, [2.0, 1.0])
        np.testing.assert_allclose(g.cons_deg, [2.0, 1.0])


class TestForward:
    def test_zero_output_weights_give_half(self, small_example):
        _, g, _ = small_example
        model = GraphNet(hidden=8, seed=0)
        model.params["out_w2"][:] = 0.0
        model.params["out_b2"][:] = 0.0
        means, _ = model.forward(make_batch([g]), train=False)
        np.testing.assert_allclose(means, 0.5)

    def test_shape_mismatch_raises(self, small_example):
        _, g, _ = small_example
        model = GraphNet(hidden=8)
        wide = dataclasses.replace(g, var_feats=np.hstack([g.var_feats, g.var_feats[:, :1]]))
        with pytest.raises(ShapeMismatch):
            model.forward(make_batch([wide]))

    def test_variable_permutation_equivariance(self, small_example, rng):
        _, g, _ = small_example
        model = GraphNet(hidden=8, seed=1)
        perm = rng.permutation(g.n_vars)
        inv = np.argsort(perm)
        g2 = dataclasses.replace(
            g,
            var_feats=g.var_feats[perm],
            edge_col=inv[g.edge_col],
            candidates=np.sort(inv[g.candidates]),
            var_deg=g.var_deg[perm],
        )
        a, _ = model.forward(make_batch([g]), train=False)
        b, _ = model.forward(make_batch([g2]), train=False)
        # new row i holds the old variable perm[i]
        np.testing.assert_allclose(b, a[perm], atol=1e-12)

    def test_constraint_permutation_invariance(self, small_example, rng):
        _, g, _ = small_example
        model = GraphNet(hidden=8, seed=1)
        perm = rng.permutation(g.n_cons)
        inv = np.argsort(perm)
        g2 = dataclasses.replace(
            g,
            cons_feats=g.cons_feats[perm],
            edge_row=inv[g.edge_row],
            cons_deg=g.cons_deg[perm],
        )
        a, _ = model.forward(make_batch([g]), train=False)
        b, _ = model.forward(make_batch([g2]), train=False)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_batch_of_two_matches_each_alone(self, small_example):
        _, g1, _ = small_example
        inst = generate(GeneratorConfig("comb-auction", seed=2, items=8, bids=12))
        g2, _ = graph_for(inst)
        model = GraphNet(hidden=8, seed=3)
        both, _ = model.forward(make_batch([g1, g2]), train=False)
        a, _ = model.forward(make_batch([g1]), train=False)
        b, _ = model.forward(make_batch([g2]), train=False)
        np.testing.assert_allclose(both, np.vstack([a, b]), rtol=0, atol=1e-12)

    def test_train_mode_updates_running_stats(self, small_example):
        _, g, _ = small_example
        model = GraphNet(hidden=8, seed=2)
        before = model.running["bn_v_mean"].copy()
        model.forward(make_batch([g]), train=True)
        assert not np.allclose(before, model.running["bn_v_mean"])


class TestTargets:
    def test_single_solution_is_point_mass(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=4, cols=6, density=0.5))
        x = np.ones(inst.n)
        t = target_distribution([(x, float(inst.c @ x))], inst, temperature=1.0)
        assert t.probs.shape == (1,)
        assert t.probs[0] == 1.0

    def test_temperature_ratio(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=4, cols=6, density=0.5))
        ones = np.ones(inst.n)
        z0 = float(inst.c @ ones)
        other = ones.copy()
        # flip one variable that keeps coverage (all rows covered >= 2)
        counts = np.diff(inst.A.tocsc().indptr)
        j = int(np.argmax(counts == counts.min()))
        tau = 2.0
        # second "solution" with objective z0 + tau*ln 2 gives probs (2/3, 1/3)
        fake = [(ones, z0), (np.r_[other[:j], 0.0, other[j + 1:]], z0 + tau * np.log(2.0))]
        t = target_distribution(fake, inst, temperature=tau)
        np.testing.assert_allclose(sorted(t.probs), [1 / 3, 2 / 3], atol=1e-12)

    def test_duplicate_candidates_merge(self):
        inst = generate(GeneratorConfig("facility-location", seed=1, customers=3, facilities=2))
        # two pool entries identical on the divable y's, different continuous x
        from divekit.oracles import _linprog_completion
        z1, x1 = _linprog_completion(inst, inst.divable_index, np.ones(2))
        x2 = x1.copy()
        x2[-1] = min(x2[-1] + 0.1, 1.0)  # perturb a continuous coordinate
        t = target_distribution([(x1, z1), (x2, z1 + 0.05)], inst, temperature=1.0)
        assert t.assignments.shape[0] == 1
        assert t.probs[0] == 1.0

    def test_empty_pool_raises(self):
        inst = generate(GeneratorConfig("set-cover", seed=3, rows=4, cols=6, density=0.5))
        from divekit.graphnet import EmptyPool
        with pytest.raises(EmptyPool):
            target_distribution([], inst, temperature=1.0)

    def test_default_temperature(self):
        assert default_temperature([3.0, 5.0]) == pytest.approx(0.5 * (4.0 + 1.0))


class TestKlLoss:
    def test_zero_when_exact(self):
        t = TargetDistribution(
            assignments=np.array([[1]]), probs=np.array([1.0]),
            bits=np.array([[[1.0]]]), mask=np.array([[1.0]]),
        )
        assert kl_loss(np.array([[1.0 - 1e-12]]), t) == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_against_half_is_log2(self):
        t = TargetDistribution(
            assignments=np.array([[1]]), probs=np.array([1.0]),
            bits=np.array([[[1.0]]]), mask=np.array([[1.0]]),
        )
        assert kl_loss(np.array([[0.5]]), t) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(100):
            S, J = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            bits = rng.integers(0, 2, size=(S, J, 1)).astype(np.float64)
            # dedupe support points to keep p a true distribution
            uniq = np.unique(bits.reshape(S, -1), axis=0)
            S = uniq.shape[0]
            bits = uniq.reshape(S, J, 1)
            p = rng.random(S) + 1e-3
            p /= p.sum()
            t = TargetDistribution(
                assignments=bits[:, :, 0].astype(np.int64), probs=p,
                bits=bits, mask=np.ones((J, 1)),
            )
            q = rng.uniform(0.05, 0.95, size=(J, 1))
            assert kl_loss(q, t) >= -1e-12


class TestGradients:
    def test_finite_difference_check(self, small_example):
        inst, g, target = small_example
        model = GraphNet(hidden=6, seed=4)
        batch = make_batch([g])
        _, grads = batch_loss_and_grads(model, batch, [target])
        h = 1e-4
        rng = np.random.default_rng(0)
        for name in sorted(model.params):
            flat = model.params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                lp = batch_loss_and_grads(model, batch, [target])[0]
                flat[i] = orig - h
                lm = batch_loss_and_grads(model, batch, [target])[0]
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gflat[i]) <= 1e-4 * max(abs(fd), abs(gflat[i]), 1e-6), name


    def test_zero_constraint_graph(self):
        inst = make_instance("free", c=[1.0, -2.0, 0.5], rows=[], senses=[], b=[],
                             lb=[0, 0, 0], ub=[1, 1, 1], integer=[1, 1, 1])
        g, _ = graph_for(inst)
        assert g.n_cons == 0
        target = target_distribution([(np.array([0.0, 1.0, 0.0]), -2.0)], inst,
                                     temperature=1.0)
        model = GraphNet(hidden=6, seed=4)
        loss, grads = batch_loss_and_grads(model, make_batch([g]), [target])
        assert np.isfinite(loss)
        for name, grad in grads.items():
            assert grad.shape == model.params[name].shape
            assert np.all(np.isfinite(grad)), name
        assert np.any(grads["emb_v_w1"] != 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(params)
        grads = {"w": np.zeros(2)}
        adam_step(params, grads, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_single_step_matches_hand_update(self):
        params = {"w": np.array([0.0])}
        state = AdamState(params)
        grads = {"w": np.array([1.0])}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        adam_step(params, grads, state, lr=lr, beta1=b1, beta2=b2, eps=eps)
        m_hat = (1 - b1) * 1.0 / (1 - b1)
        v_hat = (1 - b2) * 1.0 / (1 - b2)
        expect = -lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params["w"][0] == pytest.approx(expect, rel=1e-12)

    def test_refused_step_changes_nothing(self):
        # the NaN sits in the parameter updated last in sorted order
        params = {"a": np.array([1.0]), "b": np.array([2.0]), "z": np.array([3.0])}
        state = AdamState(params)
        adam_step(params, {"a": np.ones(1), "b": np.ones(1), "z": np.ones(1)}, state)
        before = ({k: v.copy() for k, v in params.items()},
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()}, state.t)
        with pytest.raises(NonFiniteGradient, match="in z"):
            adam_step(params, {"a": np.ones(1), "b": np.ones(1), "z": np.array([np.nan])},
                      state)
        assert (params, state.m, state.v, state.t) == before


class TestPredict:
    def test_mode_rounds_ties_to_zero(self):
        inst = generate(GeneratorConfig("set-cover", seed=5, rows=4, cols=6, density=0.5))
        g, _ = graph_for(inst)
        model = GraphNet(hidden=4, seed=0)
        model.params["out_w2"][:] = 0.0
        model.params["out_b2"][:] = 0.0  # every mean exactly 0.5
        values, probs = model.predict(g)
        np.testing.assert_array_equal(values, np.zeros(g.candidates.size))
        np.testing.assert_allclose(probs, 0.5)

    def test_bitwise_decode_and_clamp(self):
        assert domain_bits(0, 7) == 3
        assert domain_bits(0, 1) == 1
        assert domain_bits(0, 5) == 3
        np.testing.assert_array_equal(
            domain_bits([0, 0, 0, -2, 0, -np.inf, -np.inf], [7, 1, 5, 6, np.inf, 3, np.inf]),
            [3, 1, 3, 4, 1, 1, 1])
        # decode 101 -> 5 within [0,7]; all-ones on [0,5] clamps to 5
        inst = make_instance("g", c=[1.0, 1.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_LE], b=[12.0], lb=[0, 0], ub=[7, 5],
                             integer=[0, 1])
        g, _ = graph_for(inst)
        model = GraphNet(hidden=4, n_bits=3, seed=0)

        means = np.zeros((2, 3))
        means[0] = [0.9, 0.1, 0.9]  # bits 1,0,1 -> 5
        means[1] = [0.9, 0.9, 0.9]  # 7, clamped to 5
        model.forward = _fixed_means(model, means)
        values, probs = model.predict(g)
        np.testing.assert_array_equal(values, [5.0, 5.0])

    def test_candidate_wider_than_heads(self):
        """A model with one head reads only the first bit of a 3-bit
        candidate."""
        inst = make_instance("w", c=[1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE], b=[9.0],
                             lb=[0], ub=[7], integer=[0])
        g, _ = graph_for(inst)
        assert list(g.cand_bits) == [3]
        model = GraphNet(hidden=4, n_bits=1, seed=0)
        model.forward = _fixed_means(model, np.array([[0.8]]))
        values, probs = model.predict(g)
        np.testing.assert_array_equal(values, [1.0])
        np.testing.assert_array_equal(probs, [0.8])

    def test_infinite_end_rule(self):
        """A domain with an infinite end gets a one-bit head next to its
        finite end (0 when both are infinite); pool values beyond the head
        saturate, and decoding gives back the two values the head covers."""
        inf = np.inf
        inst = make_instance("u", c=[1.0, 1.0, -1.0, 0.0, 1.0],
                             rows=[(0, j, 1.0) for j in range(5)],
                             senses=[SENSE_LE], b=[100.0],
                             lb=[0, 2, -inf, -inf, 0], ub=[inf, inf, 5, inf, 3],
                             integer=range(5))
        cand, anchor, width = candidate_codec(inst)
        np.testing.assert_array_equal(cand, np.arange(5))
        np.testing.assert_array_equal(anchor, [0, 2, 4, 0, 0])
        np.testing.assert_array_equal(width, [1, 1, 1, 1, 2])
        pool = [(np.array([1.0, 9.0, 5.0, 1.0, 3.0]), 0.0),
                (np.array([0.0, 2.0, -7.0, 0.0, 2.0]), 1.0)]
        t = target_distribution(pool, inst, temperature=1.0)
        np.testing.assert_array_equal(t.bits[..., 0], [[0, 0, 0, 0, 0], [1, 1, 1, 1, 1]])
        np.testing.assert_array_equal(t.mask, [[1, 0]] * 4 + [[1, 1]])
        g, _ = graph_for(inst)
        model = GraphNet(hidden=4, n_bits=2, seed=0)
        for on, expect in ((0.9, [1, 3, 5, 1, 3]), (0.1, [0, 2, 4, 0, 0])):
            model.forward = _fixed_means(model, np.full((5, 2), on))
            values, _ = model.predict(g)
            np.testing.assert_array_equal(values, expect)

    def test_decode_and_encode_match_candidate_loops(self, rng):
        """On finite integral domains the vector codec gives exactly what
        loops over the candidates and bits give: values, probabilities,
        target bit planes and masks."""
        for trial in range(20):
            n = int(rng.integers(1, 6))
            lb = rng.integers(-3, 3, size=n).astype(np.float64)
            ub = lb + rng.integers(1, 8, size=n)
            inst = make_instance("d", c=np.ones(n), rows=[(0, j, 1.0) for j in range(n)],
                                 senses=[SENSE_LE], b=[50.0], lb=lb, ub=ub, integer=range(n))
            g, _ = graph_for(inst)
            model = GraphNet(hidden=4, n_bits=3, seed=trial)
            means = rng.uniform(0.0, 1.0, size=(n, 3))
            means[rng.random((n, 3)) < 0.2] = 0.5
            model.forward = _fixed_means(model, means)
            values, probs = model.predict(g)
            for i in range(n):
                code, p = 0, 1.0
                for k in range(domain_bits(lb[i], ub[i])):
                    if means[i, k] > 0.5:
                        code |= 1 << k
                    p *= means[i, k] if means[i, k] > 0.5 else 1.0 - means[i, k]
                assert values[i] == min(max(lb[i] + code, lb[i]), ub[i])
                assert probs[i] == p
            pool = [(rng.integers(lb, ub + 1).astype(np.float64), float(z)) for z in range(3)]
            t = target_distribution(pool, inst, temperature=1.0, n_bits=3)
            for s_, assign in enumerate(t.assignments):
                for i in range(n):
                    nb = domain_bits(lb[i], ub[i])
                    for k in range(3):
                        assert t.bits[s_, i, k] == (int(assign[i] - lb[i]) >> k) & 1
                        assert t.mask[i, k] == (1.0 if k < nb else 0.0)

    def test_encode_then_decode_round_trips(self):
        """Every value of a finite domain with a 1- to 3-bit head encodes to
        bits that decode back to it."""
        for lb in (-3.0, 0.0, 2.0):
            for size in range(2, 9):
                ub = lb + size - 1
                inst = make_instance("r", c=[1.0], rows=[(0, 0, 1.0)], senses=[SENSE_LE],
                                     b=[20.0], lb=[lb], ub=[ub], integer=[0])
                g, _ = graph_for(inst)
                model = GraphNet(hidden=4, n_bits=3, seed=0)
                for v in np.arange(lb, ub + 1):
                    t = target_distribution([(np.array([v]), 0.0)], inst, 1.0, n_bits=3)
                    model.forward = _fixed_means(model, np.where(t.bits[0] > 0, 0.9, 0.1))
                    values, _ = model.predict(g)
                    assert values[0] == v, (lb, ub, v)


def _fixed_means(model, means):
    """A forward pass that returns ``means`` for the candidate rows."""
    import types

    return types.MethodType(
        lambda self, batch, train=False: (means, None), model)


class TestSerialization:
    def test_round_trip_bit_identical_eval(self, small_example, tmp_path):
        _, g, _ = small_example
        model = GraphNet(hidden=8, seed=7)
        p = tmp_path / "m.npz"
        save_model(model, p)
        back = load_model(p)
        a, _ = model.forward(make_batch([g]), train=False)
        b, _ = back.forward(make_batch([g]), train=False)
        np.testing.assert_array_equal(a, b)

    def test_version_mismatch_refused(self, tmp_path):
        model = GraphNet(hidden=4)
        p = tmp_path / "m.npz"
        save_model(model, p)
        import json as js

        import numpy as np2
        with np2.load(p, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = js.loads(str(arrays["meta"]))
        meta["feature_version"] = "v999"
        arrays["meta"] = np2.array(js.dumps(meta))
        np2.savez(p, **arrays)
        with pytest.raises(ValueError):
            load_model(p)

    def test_feature_count_mismatch_refused(self, tmp_path):
        import json

        p = tmp_path / "m.npz"
        save_model(GraphNet(hidden=4), p)
        with np.load(p, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["n_var_feats"] += 1
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match="feature counts"):
            load_model(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a.pop("meta"), "no meta field"),
        (lambda a: a.pop("p_out_w2"), "p_out_w2"),
        (lambda a: a.update(p_conv_vc_w=np.zeros((4, 5))), r"p_conv_vc_w has shape \(4, 5\)"),
    ], ids=["no-meta", "missing-weight", "wrong-shape"])
    def test_incomplete_checkpoint_refused(self, edit, message, tmp_path):
        p = tmp_path / "m.npz"
        save_model(GraphNet(hidden=4), p)
        with np.load(p, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match=r"m\.npz.*" + message):
            load_model(p)


class TestTraining:
    def test_loss_decreases_on_toy_corpus(self):
        # 20 instances with single-solution pools: >= 50% decrease within
        # 100 epochs, loss nonnegative throughout
        examples = []
        for seed in range(20):
            inst = generate(GeneratorConfig("set-cover", seed=seed, rows=5, cols=8,
                                            density=0.35))
            g, _ = graph_for(inst)
            res = branch_and_bound(inst, SolveConfig(pool_capacity=1))
            t = target_distribution(res.pool.solutions(), inst, temperature=1.0)
            examples.append(TrainExample(g, t))
        model = GraphNet(hidden=16, seed=0)
        cfg = TrainingConfig(epochs=100, lr=3e-3, batch_size=8, seed=0)
        result = train_model(model, examples, None, cfg)
        first = result.history[0][1]
        assert result.best_val <= 0.5 * first
        for _, tl, vl in result.history:
            assert tl >= -1e-9

    def test_training_deterministic(self):
        def run():
            examples = []
            for seed in range(4):
                inst = generate(GeneratorConfig("set-cover", seed=seed, rows=4, cols=7,
                                                density=0.4))
                g, _ = graph_for(inst)
                res = branch_and_bound(inst, SolveConfig(pool_capacity=2))
                t = target_distribution(res.pool.solutions(), inst, temperature=1.5)
                examples.append(TrainExample(g, t))
            model = GraphNet(hidden=8, seed=0)
            train_model(model, examples, None, TrainingConfig(epochs=5, seed=0))
            return model

        a, b = run(), run()
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
