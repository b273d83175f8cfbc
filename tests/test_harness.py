import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divekit.graphnet import TrainingConfig
from divekit.harness import (
    BnbEvalConfig,
    BnbRunSpec,
    CollectConfig,
    DiveEvalConfig,
    TuneConfig,
    collect_corpus,
    eval_bnb,
    eval_dives,
    generate_batch,
    load_corpus,
    lp_oracle_suite,
    primal_dual_gap,
    primal_dual_integral,
    primal_gap,
    tighten_set_suite,
    read_csv_rows,
    train_from_corpus,
    tune_ensemble,
    write_csv,
)


class TestMetricFixtures:
    """Hand-computed values, exact to 1e-12."""

    def test_gap_equal_bounds_is_zero(self):
        assert abs(primal_dual_gap(5.0, 5.0) - 0.0) <= 1e-12

    def test_gap_half(self):
        assert abs(primal_dual_gap(2.0, 1.0) - 0.5) <= 1e-12

    def test_gap_sentinel_on_sign_change(self):
        assert primal_dual_gap(1.0, -1.0) == 1.0

    def test_gap_sentinel_on_zero_product(self):
        assert primal_dual_gap(0.0, 0.0) == 1.0
        assert primal_dual_gap(3.0, 0.0) == 1.0

    def test_gap_sentinel_on_missing_bounds(self):
        assert primal_dual_gap(np.inf, 1.0) == 1.0
        assert primal_dual_gap(2.0, -np.inf) == 1.0

    def test_integral_step_fixture(self):
        # gap 1 on [0,2), 0.5 on [2,4): integral to 4 is 3
        points = [(2.0, 2.0, 1.0)]  # gap (2-1)/2 = 0.5 from t=2
        assert abs(primal_dual_integral(points, 4.0) - 3.0) <= 1e-12

    def test_integral_solved_at_zero(self):
        points = [(0.0, 7.0, 7.0)]
        assert abs(primal_dual_integral(points, 10.0) - 0.0) <= 1e-12

    def test_integral_empty_trace(self):
        assert abs(primal_dual_integral([], 10.0) - 10.0) <= 1e-12

    def test_primal_gap_fixtures(self):
        assert primal_gap(5.0, 5.0) == 0.0
        assert abs(primal_gap(8.0, 5.0) - 3.0) <= 1e-12

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_gap_range_when_bounds_ordered(self, dual, width):
        primal = dual + abs(width)
        g = primal_dual_gap(primal, dual)
        assert 0.0 <= g <= 1.0 + 1e-12

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(1, 50), st.floats(0.5, 50)),
                    max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_integral_bounded_by_horizon(self, raw):
        pts = sorted((t, max(p, d), min(p, d)) for t, p, d in raw)
        val = primal_dual_integral(pts, 100.0)
        assert -1e-9 <= val <= 100.0 + 1e-9


class TestCsv:
    def test_deterministic_bytes(self, tmp_path):
        rows = [("a", 1, 0.5), ("b", 2, np.inf)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, {"seed": 0}, ("x", "y", "z"), rows)
        write_csv(p2, {"seed": 0}, ("x", "y", "z"), rows)
        assert p1.read_bytes() == p2.read_bytes()
        header, data = read_csv_rows(p1)
        assert header == ["x", "y", "z"]
        assert data[1][2] == "inf"


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A small generated+collected corpus shared by the harness tests; the
    generator parameters keep most root LPs fractional."""
    root = tmp_path_factory.mktemp("world")
    generate_batch("set-cover", 8, 300, root / "inst",
                   params={"rows": 40, "cols": 50, "density": 0.12, "max_cost": 5})
    cfg = CollectConfig(node_limit=150, pool_capacity=5, jobs=1)
    manifest = collect_corpus(root / "inst", root / "corpus", cfg)
    assert len(manifest["entries"]) >= 3
    return root, manifest


class TestCollect:
    def test_root_integral_instances_dropped(self, tiny_world):
        root, manifest = tiny_world
        reasons = {s["reason"] for s in manifest["skipped"]}
        assert len(manifest["entries"]) >= 1
        if manifest["skipped"]:
            assert reasons <= {"solved_at_root", "no_solution"}

    def test_corpus_reproducible_bytes(self, tiny_world, tmp_path):
        root, manifest = tiny_world
        cfg = CollectConfig(node_limit=150, pool_capacity=5, jobs=1)
        again = collect_corpus(root / "inst", tmp_path / "corpus2", cfg)
        for e1, e2 in zip(manifest["entries"], again["entries"]):
            p1 = (root / "corpus" / e1["pool"]).read_bytes()
            p2 = (tmp_path / "corpus2" / e2["pool"]).read_bytes()
            assert p1 == p2

    def test_pool_entries_share_reference(self, tiny_world):
        root, manifest = tiny_world
        for e in manifest["entries"]:
            doc = json.loads((root / "corpus" / e["pool"]).read_text())
            zs = [entry["z"] for entry in doc["entries"]]
            assert min(zs) == doc["z_ref"]
            assert zs == sorted(zs)


class TestEvalDives:
    def test_duplicate_divers_rejected(self, tiny_world):
        root, _ = tiny_world
        cfg = DiveEvalConfig(divers=("lower", "lower"))
        with pytest.raises(ValueError):
            eval_dives(root / "corpus", cfg, root / "out_dup")

    def test_budget_parity_and_rows(self, tiny_world):
        root, manifest = tiny_world
        cfg = DiveEvalConfig(divers=("fractional", "lower", "upper", "random"),
                             d_max=40, seed=0, jobs=1)
        res = eval_dives(root / "corpus", cfg, root / "dive_out")
        rows = res["rows"]
        n_entries = len(manifest["entries"])
        assert len(rows) == 4 * n_entries
        for r in rows:
            assert r[5] <= 40  # depth within the shared budget
            assert r[1] in cfg.divers
        # summary covers every diver in the registry order requested
        assert sorted(r[0] for r in res["summary_rows"]) == sorted(set(cfg.divers))

    def test_lp_failure_ends_one_dive(self, tiny_world, tmp_path, monkeypatch):
        """The dives' second LP solve raises: eval_dives still returns every
        row and records the failure as the termination of that one dive."""
        from divekit import diving
        from divekit.simplex import NumericalBreakdown

        real = diving.solve_lp
        calls = {"n": 0}

        def solve_lp(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericalBreakdown("injected failure")
            return real(*a, **kw)

        monkeypatch.setattr(diving, "solve_lp", solve_lp)
        root, manifest = tiny_world
        cfg = DiveEvalConfig(divers=("fractional", "lower"), d_max=20, jobs=1)
        res = eval_dives(root / "corpus", cfg, tmp_path / "out")
        assert calls["n"] > 2
        assert len(res["rows"]) == 2 * len(manifest["entries"])
        assert [r[6] for r in res["rows"]].count("lp_error") == 1
        _, rows = read_csv_rows(tmp_path / "out" / "dives_per_instance.csv")
        assert [r[6] for r in rows].count("lp_error") == 1

    def test_identical_seeds_identical_tables(self, tiny_world, tmp_path):
        root, _ = tiny_world
        cfg = DiveEvalConfig(divers=("fractional", "lower"), d_max=20, seed=0, jobs=1)
        a = eval_dives(root / "corpus", cfg, tmp_path / "o1")
        b = eval_dives(root / "corpus", cfg, tmp_path / "o2")
        assert (tmp_path / "o1" / "dives_per_instance.csv").read_bytes() == \
               (tmp_path / "o2" / "dives_per_instance.csv").read_bytes()


class TestEvalBnb:
    def test_wins_sum_to_instances(self, tiny_world):
        root, manifest = tiny_world
        specs = (
            BnbRunSpec(name="no-diving", members=()),
            BnbRunSpec(name="fractional", members=(("fractional", None, 0),)),
        )
        cfg = BnbEvalConfig(specs=specs, tick_limit=3000.0, node_limit=60,
                            seeds=(0, 1), jobs=1)
        res = eval_bnb(root / "corpus", cfg, root / "bnb_out")
        wins = {name: w for name, _, _, w in res["summary_rows"]}
        n = len(manifest["entries"])
        # ties award a win to both configs, so the sum is at least n
        assert sum(wins.values()) >= n
        header, rows = read_csv_rows(root / "bnb_out" / "bnb_per_run.csv")
        assert len(rows) == n * len(specs) * 2

    def test_seed_invariant_configs_run_once(self, tiny_world, tmp_path, monkeypatch):
        """A config whose divers ignore the seed runs once per instance and
        its row is reported under every seed; the rows equal those of
        separate single-seed evaluations."""
        import divekit.harness as harness

        root, manifest = tiny_world
        specs = (
            BnbRunSpec(name="no-diving", members=()),
            BnbRunSpec(name="fractional", members=(("fractional", None, 0),), d_max=10),
            BnbRunSpec(name="random", members=(("random", None, 0),), d_max=10),
        )

        def cfg(seeds, save_traces=False):
            return BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20,
                                 seeds=seeds, jobs=1, save_traces=save_traces)

        single = []
        for seed in (0, 1, 2):
            single += eval_bnb(root / "corpus", cfg((seed,), True),
                               tmp_path / f"s{seed}")["rows"]
        real = harness.branch_and_bound
        calls = {"n": 0}

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(harness, "branch_and_bound", counting)
        res = eval_bnb(root / "corpus", cfg((0, 1, 2), True), tmp_path / "all")
        n = len(manifest["entries"])
        assert calls["n"] == n * (2 + 1 * 3)
        assert res["rows"] == sorted(single, key=lambda r: (r[0], r[1], r[2]))
        traces = sorted(p.name for p in (tmp_path / "all" / "traces").glob("*.csv"))
        assert len(traces) == n * len(specs) * 3
        for name in traces:
            seed = name[-5]
            assert (tmp_path / "all" / "traces" / name).read_bytes() == \
                (tmp_path / f"s{seed}" / "traces" / name).read_bytes()

    def test_integral_within_horizon(self, tiny_world):
        root, _ = tiny_world
        specs = (BnbRunSpec(name="no-diving", members=()),)
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=30, seeds=(0,), jobs=1)
        res = eval_bnb(root / "corpus", cfg, root / "bnb_out2")
        for r in res["rows"]:
            assert 0.0 <= r[3] <= 500.0 + 1e-9

    def test_trace_csv_export(self, tiny_world):
        root, manifest = tiny_world
        specs = (BnbRunSpec(name="no-diving", members=()),)
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20,
                            seeds=(0,), jobs=1, save_traces=True)
        eval_bnb(root / "corpus", cfg, root / "bnb_tr")
        traces = sorted((root / "bnb_tr" / "traces").glob("*.csv"))
        assert len(traces) == len(manifest["entries"])
        lines = traces[0].read_text().splitlines()
        assert lines[0] == "t,primal_bound,dual_bound"
        assert len(lines) >= 2


class TestTraining:
    def test_train_writes_model_and_history(self, tiny_world):
        root, _ = tiny_world
        report = train_from_corpus(
            root / "corpus", root / "model.npz",
            TrainingConfig(epochs=8, batch_size=4, seed=0), jobs=1)
        assert (root / "model.npz").exists()
        header, rows = read_csv_rows(report["history"])
        assert header == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 8 + 1  # epoch-0 row plus one per epoch
        losses = [float(r[1]) for r in rows]
        assert all(v >= -1e-9 for v in losses)

    def test_l2dive_eval_with_model(self, tiny_world):
        root, _ = tiny_world
        cfg = DiveEvalConfig(divers=("l2dive", "lower"), d_max=30, seed=0,
                             jobs=1, model_path=str(root / "model.npz"))
        res = eval_dives(root / "corpus", cfg, root / "dive_l2")
        names = {r[1] for r in res["rows"]}
        assert names == {"l2dive", "lower"}


class TestTune:
    def test_returns_default_unless_beaten(self, tiny_world):
        root, _ = tiny_world
        tcfg = TuneConfig(divers=("fractional", "lower"), samples=2, seed=0,
                          base_period=10, d_max=20)
        ecfg = BnbEvalConfig(specs=(), tick_limit=2000.0, node_limit=40,
                             seeds=(0,), jobs=1)
        report = tune_ensemble(root / "corpus", tcfg, ecfg, root / "tune.json")
        assert report["scores"][report["best_name"]] <= report["scores"]["default"]
        assert report["solver_calls"] == (2 + 1) * len(load_corpus(root / "corpus")) * 1
        assert (root / "tune.json").exists()

    def test_sample_space(self, rng):
        from divekit.harness import sample_ensemble
        cfg = TuneConfig(divers=("a", "b", "c", "d"), base_period=20)
        seen_off = seen_periods = False
        for _ in range(20):
            members = sample_ensemble(rng, cfg)
            names = [m[0] for m in members]
            assert len(names) == len(set(names))
            periods = {m[1] for m in members}
            if len(members) < 4:
                seen_off = True
            if periods & {10, 20, 40}:
                seen_periods = True
            for _, period, offset in members:
                assert period in (10, 20, 40)
                assert offset in (0, period // 2)
        assert seen_off and seen_periods


class TestVerificationSuites:
    def test_lp_oracle_suite_small(self):
        rep = lp_oracle_suite(count=25, seed=3)
        assert rep["ok"], rep["failures"]
        assert rep["max_scaled_gap"] <= 1e-8

    def test_tighten_set_suite_small(self):
        rep = tighten_set_suite(count=20, seed=3)
        assert rep["ok"], rep["failures"]
        assert rep["count"] >= 20


class TestAllFamilies:
    def test_collect_and_dive_every_family(self, tmp_path):
        """gen -> collect -> eval-dive works for each of the four families."""
        fams = (
            ("set-cover", {"rows": 40, "cols": 50, "density": 0.12, "max_cost": 5}),
            ("comb-auction", {"items": 15, "bids": 30}),
            ("facility-location", {"customers": 6, "facilities": 5}),
            ("indep-set", {"nodes": 25, "affinity": 3}),
        )
        for fam, params in fams:
            gen_dir = tmp_path / fam / "inst"
            generate_batch(fam, 6, 500, gen_dir, params=params)
            corpus = tmp_path / fam / "corpus"
            manifest = collect_corpus(gen_dir, corpus,
                                      CollectConfig(node_limit=120, pool_capacity=4,
                                                    jobs=1))
            if not manifest["entries"]:
                continue  # every draw solved at the root: nothing to dive on
            cfg = DiveEvalConfig(divers=("fractional", "lower"), d_max=25,
                                 seed=0, jobs=1)
            res = eval_dives(corpus, cfg, tmp_path / fam / "out")
            assert res["rows"], fam
