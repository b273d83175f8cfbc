import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mps_without_bounds, write_mps_instances
from divekit.diving import HEURISTIC_DIVERS
from divekit.graphnet import TrainingConfig
from divekit.instances import SENSE_GE, GeneratorConfig, generate, make_instance, write_instance
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
    instance_paths,
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


def count_cold_solves(monkeypatch):
    """The LPs of the warm-less ``solve_lp`` calls made through the ``bnb``
    and ``harness`` bindings."""
    import divekit.bnb as bnb
    import divekit.harness as harness

    cold = []
    for module in (bnb, harness):
        def counting(lp, *a, _real=module.solve_lp, **kw):
            if (a[0] if a else kw.get("warm")) is None:
                cold.append(lp)
            return _real(lp, *a, **kw)

        monkeypatch.setattr(module, "solve_lp", counting)
    return cold


class TestCollect:
    def test_one_root_solve_per_instance(self, tiny_world, tmp_path, monkeypatch):
        """The root solve of ``solve_root`` is the only cold LP solve that
        collection makes per instance."""
        root, manifest = tiny_world
        cold = count_cold_solves(monkeypatch)
        cfg = CollectConfig(node_limit=150, pool_capacity=5, jobs=1)
        again = collect_corpus(root / "inst", tmp_path / "corpus", cfg)
        assert len(cold) == 8 == len(again["entries"]) + len(again["skipped"])
        assert ([(e["name"], e["nodes"], e["ticks"]) for e in again["entries"]]
                == [(e["name"], e["nodes"], e["ticks"]) for e in manifest["entries"]])

    def test_skipped_instances_are_relative_paths(self, tmp_path):
        """A skipped instance is recorded relative to the corpus, as an entry
        is, so one instance set collected under two parent directories gives
        the same manifest bytes."""
        # min x0 + 2 x1 s.t. x0 + x1 >= 1: the root LP point (1, 0) is integral
        easy = make_instance("easy", c=[1.0, 2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                             senses=[SENSE_GE], b=[1.0], lb=[0, 0], ub=[1, 1],
                             integer=[0, 1])
        cfg = CollectConfig(node_limit=60, pool_capacity=5, jobs=1)
        manifests = []
        for parent in (tmp_path / "a", tmp_path / "b" / "c"):
            (parent / "inst").mkdir(parents=True)
            write_instance(easy, parent / "inst" / "easy.json")
            for s in range(2):
                write_instance(generate(GeneratorConfig("set-cover", seed=s, rows=25, cols=50,
                                                        density=0.1)),
                               parent / "inst" / f"cover{s}.json")
            manifest = collect_corpus(parent / "inst", parent / "corpus", cfg)
            assert manifest["skipped"] == [{"instance": "../inst/easy.json",
                                            "reason": "solved_at_root"}]
            manifests.append((parent / "corpus" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_no_branch_and_bound_on_a_root_integral_instance(self, tmp_path,
                                                             monkeypatch):
        import divekit.harness as harness

        runs = TestNoRepeatedWork.count_calls(monkeypatch, harness, "branch_and_bound")
        (tmp_path / "inst").mkdir()
        write_instance(make_instance("easy", c=[1.0, 2.0], rows=[(0, 0, 1.0), (0, 1, 1.0)],
                                     senses=[SENSE_GE], b=[1.0], lb=[0, 0], ub=[1, 1],
                                     integer=[0, 1]), tmp_path / "inst" / "easy.json")
        manifest = collect_corpus(tmp_path / "inst", tmp_path / "corpus",
                                  CollectConfig(node_limit=60, jobs=1))
        assert [s["reason"] for s in manifest["skipped"]] == ["solved_at_root"]
        assert runs == []

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

    def test_worker_count_leaves_the_config_hash(self, tiny_world, tmp_path):
        """``jobs`` is recorded but not hashed: the pools do not depend on it."""
        root, _ = tiny_world
        cfg = CollectConfig(node_limit=150, pool_capacity=5, jobs=1)
        serial = collect_corpus(root / "inst", tmp_path / "serial", cfg)
        forked = collect_corpus(root / "inst", tmp_path / "forked", replace(cfg, jobs=2))
        assert (serial["config"]["jobs"], forked["config"]["jobs"]) == (1, 2)
        assert forked["config_hash"] == serial["config_hash"]
        assert forked["entries"] == serial["entries"]
        for e in serial["entries"]:
            assert ((tmp_path / "forked" / e["pool"]).read_bytes()
                    == (tmp_path / "serial" / e["pool"]).read_bytes())

    def test_pool_entries_share_reference(self, tiny_world):
        root, manifest = tiny_world
        for e in manifest["entries"]:
            doc = json.loads((root / "corpus" / e["pool"]).read_text())
            zs = [entry["z"] for entry in doc["entries"]]
            assert min(zs) == doc["z_ref"]
            assert zs == sorted(zs)


    def test_pools_named_after_the_instance_file(self, tmp_path):
        """Four MPS files whose NAME lines all read ``cover`` keep four pools,
        each holding its own instance's solutions."""
        from divekit.instances import read_instance

        inst_dir = write_mps_instances(tmp_path / "inst", 4, name="cover")
        corpus = tmp_path / "corpus"
        manifest = collect_corpus(inst_dir, corpus, CollectConfig(node_limit=60, jobs=1))
        entries = manifest["entries"]
        assert len(entries) + len(manifest["skipped"]) == 4 and len(entries) >= 2
        assert len(list((corpus / "pools").iterdir())) == len(entries)
        for e in entries:
            stem = e["instance"].rsplit("/", 1)[-1].removesuffix(".mps")
            assert e["name"] == stem and e["pool"] == f"pools/{stem}.pool.json"
            inst = read_instance(corpus / e["instance"])
            assert inst.name == "cover"
            doc = json.loads((corpus / e["pool"]).read_text())
            assert doc["z_ref"] == e["z_ref"]
            for sol in doc["entries"]:
                x = np.asarray(sol["x"])
                assert inst.is_feasible(x) and float(inst.c @ x) == sol["z"]

    def test_directory_without_manifest_lists_json_and_mps(self, tmp_path):
        inst_dir = tmp_path / "inst"
        inst_dir.mkdir()
        for s in range(3):
            cover = generate(GeneratorConfig("set-cover", seed=s, rows=25, cols=50, density=0.1))
            if s == 1:
                write_instance(cover, inst_dir / f"cover{s}.json")
            else:
                (inst_dir / f"cover{s}.mps").write_text(mps_without_bounds(cover))
        assert [p.name for p in instance_paths(inst_dir)] == \
            ["cover0.mps", "cover1.json", "cover2.mps"]

    def test_enumerate_keeps_the_continuous_completion(self, tmp_path):
        """On facility-location only the facility columns are divable: each
        enumerated optimal assignment is stored with the continuous columns
        its leaf LP completes it with, so the pool holds the optimal face,
        not the branch-and-bound pool it would fall back to."""
        from conftest import reference_feasible
        from divekit.bnb import FACE_TOL, OPTIMAL_PROVEN
        from divekit.instances import read_instance

        generate_batch("facility-location", 3, 0, tmp_path / "inst",
                       params={"customers": 5, "facilities": 4})
        manifest = collect_corpus(tmp_path / "inst", tmp_path / "corpus",
                                  CollectConfig(augment="enumerate", jobs=1))
        assert len(manifest["entries"]) == 3
        for e in manifest["entries"]:
            assert e["status"] == OPTIMAL_PROVEN
            inst = read_instance(tmp_path / "inst" / "instances" / f"{e['name']}.json")
            assert inst.divable_index.size < inst.n
            pool = json.loads((tmp_path / "corpus" / e["pool"]).read_text())
            keys = set()
            for entry in pool["entries"]:
                x = np.asarray(entry["x"])
                assert reference_feasible(inst, x)
                assert entry["z"] == float(inst.c @ x)
                assert abs(entry["z"] - pool["bound"]) <= 2 * FACE_TOL
                keys.add(tuple(x[inst.divable_index]))
            assert len(keys) == len(pool["entries"]) >= 1

    def test_enumerate_completions_sit_at_the_optimum(self, tmp_path):
        """The continuous completion of each enumerated assignment is taken
        at the optimum, not on the face LP's lower row FACE_TOL below it."""
        from conftest import reference_feasible
        from divekit.bnb import branch_and_bound
        from divekit.instances import read_instance

        generate_batch("facility-location", 6, 0, tmp_path / "inst",
                       params={"customers": 5, "facilities": 4})
        manifest = collect_corpus(tmp_path / "inst", tmp_path / "corpus",
                                  CollectConfig(augment="enumerate", jobs=1))
        assert len(manifest["entries"]) == 6
        for e in manifest["entries"]:
            inst = read_instance(tmp_path / "inst" / "instances" / f"{e['name']}.json")
            z_opt = branch_and_bound(inst).objective
            pool = json.loads((tmp_path / "corpus" / e["pool"]).read_text())
            assert pool["entries"]
            for entry in pool["entries"]:
                x = np.asarray(entry["x"])
                assert reference_feasible(inst, x)
                assert abs(float(inst.c @ x) - z_opt) <= 1e-9

    def test_files_sharing_a_stem_are_refused(self, tmp_path):
        inst_dir = write_mps_instances(tmp_path / "inst", 2, name="cover")
        for k, sub in enumerate(("a", "b")):
            (inst_dir / "instances" / sub).mkdir()
            (inst_dir / "instances" / f"cover{k}.mps").rename(
                inst_dir / "instances" / sub / "cover.mps")
        (inst_dir / "manifest.json").write_text(
            json.dumps({"instances": ["a/cover.mps", "b/cover.mps"]}))
        with pytest.raises(ValueError, match=r"a/cover\.mps and .*b/cover\.mps"):
            collect_corpus(inst_dir, tmp_path / "corpus", CollectConfig(node_limit=60, jobs=1))


@pytest.mark.parametrize("make, message", [
    (lambda: CollectConfig(augment="enumrate"), "unknown augment mode 'enumrate'"),
    (lambda: CollectConfig(enum_node_limit=0, augment="enumerate"),
     "enum_node_limit must be positive"),
    (lambda: TuneConfig(objective="tick"), "unknown tune objective 'tick'"),
    (lambda: DiveEvalConfig(lp_iter_limit=-5), "lp_iter_limit must be >= 0"),
    (lambda: BnbEvalConfig(specs=(), seeds=(0, 1, 0)),
     r"seeds \[0, 1, 0\] must be nonempty, with no seed repeated"),
    (lambda: BnbEvalConfig(specs=(), seeds=()), r"seeds \[\] must be nonempty"),
], ids=["collect-augment", "collect-enum-nodes", "tune-objective", "dive-iter-limit",
        "bnb-repeated-seed", "bnb-no-seed"])
def test_configs_refuse_bad_values(make, message):
    """A config refuses a value it cannot run when it is built, before any
    work, instead of running something else or failing midway."""
    with pytest.raises(ValueError, match=message):
        make()


class TestEvalDives:
    def test_duplicate_divers_rejected(self, tiny_world):
        root, _ = tiny_world
        with pytest.raises(ValueError, match="duplicate diver names"):
            eval_dives(root / "corpus", DiveEvalConfig(divers=("lower", "lower")),
                       root / "out_dup")

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

    def test_every_heuristic_diver_on_mps_defaults(self, tmp_path):
        """Integer columns read from MPS without BOUNDS are [0, inf): every
        heuristic diver completes its dives, ``upper`` by fixing at the
        lower bound."""
        inst_dir = write_mps_instances(tmp_path / "inst", 3)
        manifest = collect_corpus(inst_dir, tmp_path / "corpus",
                                  CollectConfig(node_limit=60, jobs=1))
        assert manifest["entries"]
        cfg = DiveEvalConfig(d_max=20, jobs=1)
        assert cfg.divers == HEURISTIC_DIVERS
        res = eval_dives(tmp_path / "corpus", cfg, tmp_path / "out")
        assert len(res["rows"]) == len(HEURISTIC_DIVERS) * len(manifest["entries"])
        assert any(r[1] == "upper" and r[5] > 0 for r in res["rows"])

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

    @pytest.mark.parametrize("member", [
        ("fractionl", 10, 0),  # no such diver
        ("fractional", 0, 0),
        ("fractional", -3, -1),
        ("fractional", 10, 15),  # the offset is never reached
        ("fractional", 10, -1),
        ("fractional", None, 3),  # root only: there is no call to offset
    ])
    def test_unrunnable_schedules_rejected(self, member):
        with pytest.raises(ValueError):
            BnbRunSpec(name="bad", members=(member,))

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

    def test_forked_workers_write_the_same_files(self, tiny_world, tmp_path):
        """Per-instance tasks in two worker processes write the same tables
        and traces, byte for byte, as one process."""
        root, manifest = tiny_world
        specs = (BnbRunSpec(name="fractional:10", members=(("fractional", 10, 0),), d_max=10),
                 BnbRunSpec(name="random:5", members=(("random", 5, 0),), d_max=10))
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1),
                            jobs=1, save_traces=True)
        outs = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            eval_bnb(root / "corpus", replace(cfg, jobs=jobs), out)
            outs[jobs] = {str(f.relative_to(out)): f.read_bytes()
                          for f in sorted(out.rglob("*")) if f.is_file()}
        traces = [name for name in outs[1] if name.startswith("traces/")]
        assert len(traces) == len(manifest["entries"]) * 2 * 2
        assert outs[2] == outs[1]

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


class TestRunCounts:
    """The counts in the outputs say what ran: ``dives`` the dives, and
    ``solver_calls`` the branch-and-bound runs."""

    @staticmethod
    def count_calls(monkeypatch, name):
        import divekit.harness as harness

        real = getattr(harness, name)
        calls = {"n": 0}

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(harness, name, counting)
        return calls

    def test_dives_column_counts_dives(self, tiny_world, tmp_path, monkeypatch):
        root, _ = tiny_world
        calls = self.count_calls(monkeypatch, "dive")
        specs = (BnbRunSpec(name="fractional:10", members=(("fractional", 10, 0),), d_max=10),)
        cfg = BnbEvalConfig(specs=specs, tick_limit=2000.0, node_limit=60, seeds=(0,), jobs=1)
        res = eval_bnb(root / "corpus", cfg, tmp_path / "bnb")
        assert calls["n"] > 0
        assert sum(r[10] for r in res["rows"]) == calls["n"]
        _, rows = read_csv_rows(tmp_path / "bnb" / "bnb_per_run.csv")
        assert sum(int(r[10]) for r in rows) == calls["n"]

    def test_solver_calls_counts_runs(self, tiny_world, tmp_path, monkeypatch):
        root, manifest = tiny_world
        calls = self.count_calls(monkeypatch, "branch_and_bound")
        tcfg = TuneConfig(divers=("fractional", "lower", "random"), samples=3, seed=0,
                          d_max=10)
        ecfg = BnbEvalConfig(specs=(), tick_limit=500.0, node_limit=20, seeds=(0, 1), jobs=1)
        report = tune_ensemble(root / "corpus", tcfg, ecfg, tmp_path / "tune.json")
        assert report["solver_calls"] == calls["n"]
        # one sampled config has no seed-reading diver and runs once
        assert calls["n"] < 4 * len(manifest["entries"]) * 2


class TestNoRepeatedWork:
    """A command loads the checkpoint once, and collecting with enumeration
    runs one branch and bound per instance."""

    @staticmethod
    def count_calls(monkeypatch, module, name, calls=None):
        real = getattr(module, name)
        calls = [] if calls is None else calls

        def counting(*a, **kw):
            calls.append(a)
            return real(*a, **kw)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_eval_bnb_and_tune_solve_each_root_once(self, tiny_world, tmp_path,
                                                   monkeypatch):
        """However many configs and seed groups run on an instance, its root
        LP is solved cold once; the B&B runs themselves are not merged."""
        import divekit.harness as harness

        root, manifest = tiny_world
        n = len(manifest["entries"])
        cold = count_cold_solves(monkeypatch)
        runs = self.count_calls(monkeypatch, harness, "branch_and_bound")
        specs = tuple(BnbRunSpec(name=name, members=(("random", None, 0),) + extra, d_max=10)
                      for name, extra in (("random", ()),
                                          ("random+fractional", (("fractional", 10, 0),)),
                                          ("random+lower", (("lower", 10, 0),))))
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1), jobs=1)
        eval_bnb(root / "corpus", cfg, tmp_path / "bnb")
        assert len(runs) == 3 * 2 * n
        assert len(cold) == n
        cold.clear()
        tcfg = TuneConfig(divers=("fractional", "lower", "random"), samples=3, seed=0,
                          d_max=10)
        report = tune_ensemble(root / "corpus", tcfg, replace(cfg, specs=()),
                               tmp_path / "tune.json")
        assert report["solver_calls"] > n
        assert len(cold) == n

    def test_eval_bnb_and_tune_read_each_instance_once(self, tiny_world, tmp_path,
                                                      monkeypatch):
        """One task per instance reads its file once and hands the instance,
        its standard form and its root to every run."""
        import divekit.harness as harness

        root, manifest = tiny_world
        n = len(manifest["entries"])
        reads = self.count_calls(monkeypatch, harness, "read_instance")
        runs = self.count_calls(monkeypatch, harness, "branch_and_bound")
        specs = (BnbRunSpec(name="none"),
                 BnbRunSpec(name="random:5", members=(("random", 5, 0),), d_max=10))
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1), jobs=1)
        eval_bnb(root / "corpus", cfg, tmp_path / "bnb")
        assert len(runs) == 3 * n
        assert len(reads) == len({str(a[0]) for a in reads}) == n
        reads.clear()
        tcfg = TuneConfig(divers=("fractional", "random"), samples=2, seed=0, d_max=10)
        tune_ensemble(root / "corpus", tcfg, replace(cfg, specs=()), tmp_path / "tune.json")
        assert len(reads) == len({str(a[0]) for a in reads}) == n

    def test_every_command_solves_each_root_once_through_harness(self, tiny_world, tmp_path,
                                                                 monkeypatch):
        """collect, train, eval-dive, eval-bnb and tune each solve every
        instance's root LP once, as ``harness.solve_lp(lp)``, and hand it on:
        branch and bound makes no cold solve."""
        import divekit.bnb as bnb
        import divekit.harness as harness

        root, manifest = tiny_world
        corpus = root / "corpus"
        roots, cold = [], []
        real_root, real_bnb = harness.solve_lp, bnb.solve_lp

        def root_solve(lp, *a, **kw):
            assert not a and not kw
            roots.append(lp.c.tobytes() + lp.A.data.tobytes())
            return real_root(lp)

        def bnb_solve(lp, warm=None, **kw):
            if warm is None:
                cold.append(lp)
            return real_bnb(lp, warm=warm, **kw)

        monkeypatch.setattr(harness, "solve_lp", root_solve)
        monkeypatch.setattr(bnb, "solve_lp", bnb_solve)
        specs = (BnbRunSpec(name="none"),
                 BnbRunSpec(name="random:5", members=(("random", 5, 0),), d_max=10))
        ecfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1), jobs=1)
        n = len(manifest["entries"])
        commands = {
            "collect": (8, lambda: collect_corpus(
                root / "inst", tmp_path / "corpus",
                CollectConfig(node_limit=150, pool_capacity=5, jobs=1))),
            "train": (n, lambda: train_from_corpus(
                corpus, tmp_path / "model.npz", TrainingConfig(epochs=1), hidden=8)),
            "eval-dive": (n, lambda: eval_dives(
                corpus, DiveEvalConfig(divers=("fractional", "lower"), d_max=10, jobs=1),
                tmp_path / "dives")),
            "eval-bnb": (n, lambda: eval_bnb(corpus, ecfg, tmp_path / "bnb")),
            "tune": (n, lambda: tune_ensemble(
                corpus, TuneConfig(divers=("fractional", "random"), samples=2, d_max=10),
                replace(ecfg, specs=()), tmp_path / "tune.json")),
        }
        for name, (count, run) in commands.items():
            roots.clear()
            run()
            assert len(roots) == len(set(roots)) == count, name
        assert cold == []

    def test_eval_bnb_and_tune_solve_each_node_lp_once(self, tiny_world, tmp_path,
                                                       monkeypatch):
        """The runs on one instance share one table of node LP solutions, so
        ``bnb.solve_lp`` runs once per distinct node path: the union of the
        paths the configs reach when each runs on its own.  ``collect``
        shares no table."""
        import divekit.bnb as bnb
        import divekit.harness as harness

        root, manifest = tiny_world
        corpus = root / "corpus"
        solves = self.count_calls(monkeypatch, bnb, "solve_lp")
        real = harness.branch_and_bound
        tables, nodes = {}, []

        def capturing(inst, *a, solved=None, **kw):
            tables.setdefault(inst.name, []).append(solved)
            res = real(inst, *a, solved=solved, **kw)
            nodes.append(res.nodes)
            return res

        monkeypatch.setattr(harness, "branch_and_bound", capturing)
        specs = (BnbRunSpec(name="none"),
                 BnbRunSpec(name="fractional:10", members=(("fractional", 10, 0),), d_max=10),
                 BnbRunSpec(name="random:5", members=(("random", 5, 0),), d_max=10))
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1), jobs=1)
        eval_bnb(corpus, cfg, tmp_path / "bnb")
        assert len(tables) == len(manifest["entries"])
        # none and fractional:10 run once, random:5 once per seed
        assert all(len(ts) == 4 and all(t is ts[0] for t in ts) for ts in tables.values())
        shared = {name: set(ts[0]) for name, ts in tables.items()}
        # every node below a given root is looked up or solved
        assert len(solves) == sum(map(len, shared.values())) < sum(nodes) - len(nodes)

        alone = {name: set() for name in shared}
        for spec in specs:
            tables.clear()
            eval_bnb(corpus, replace(cfg, specs=(spec,)), tmp_path / spec.name.replace(":", "_"))
            for name, ts in tables.items():
                alone[name].update(*ts)
        assert alone == shared

        solves.clear()
        tables.clear()
        tcfg = TuneConfig(divers=("fractional", "random"), samples=2, seed=0, d_max=10)
        tune_ensemble(corpus, tcfg, replace(cfg, specs=()), tmp_path / "tune.json")
        assert len(solves) == sum(len(ts[0]) for ts in tables.values())
        assert all(all(t is ts[0] for t in ts) for ts in tables.values())

        tables.clear()
        collect_corpus(root / "inst", tmp_path / "corpus",
                       CollectConfig(node_limit=150, pool_capacity=5, jobs=1))
        assert tables and all(t is None for ts in tables.values() for t in ts)

    @staticmethod
    def first_entries(tiny_world, dest, k):
        """A corpus of the first ``k`` entries of the shared one."""
        root, manifest = tiny_world
        corpus = root / "corpus"
        entries = [dict(e, instance=str((corpus / e["instance"]).resolve()),
                        pool=str(corpus / e["pool"])) for e in manifest["entries"][:k]]
        assert len(entries) == k
        dest.mkdir()
        (dest / "manifest.json").write_text(json.dumps({"entries": entries}))
        return dest

    @pytest.fixture
    def model_path(self, tmp_path):
        from divekit.graphnet import GraphNet, save_model

        path = tmp_path / "model.npz"
        save_model(GraphNet(hidden=8, seed=0), path)
        return str(path)

    def test_eval_dive_loads_the_model_once(self, tiny_world, tmp_path, model_path,
                                            monkeypatch):
        import divekit.harness as harness

        corpus = self.first_entries(tiny_world, tmp_path / "c4", 4)
        cfg = DiveEvalConfig(divers=("l2dive", "lower"), d_max=10, jobs=1,
                             model_path=model_path)
        forked = eval_dives(corpus, replace(cfg, jobs=2), tmp_path / "forked")
        calls = self.count_calls(monkeypatch, harness, "load_model")
        res = eval_dives(corpus, cfg, tmp_path / "out")
        assert len(calls) == 1
        assert len(res["rows"]) == 4 * 2
        assert res["rows"] == forked["rows"]

    def test_eval_bnb_loads_the_model_once(self, tiny_world, tmp_path, model_path,
                                           monkeypatch):
        import divekit.harness as harness

        corpus = self.first_entries(tiny_world, tmp_path / "c2", 2)
        calls = self.count_calls(monkeypatch, harness, "load_model")
        specs = (BnbRunSpec(name="none", members=()),
                 BnbRunSpec(name="l2dive:20", members=(("l2dive", 20, 0),), d_max=10))
        cfg = BnbEvalConfig(specs=specs, tick_limit=500.0, node_limit=20, seeds=(0, 1, 2),
                            jobs=1, model_path=model_path)
        res = eval_bnb(corpus, cfg, tmp_path / "bnb")
        assert len(calls) == 1
        assert len(res["rows"]) == 2 * 2 * 3

    def test_enumerate_collect_runs_one_bnb_per_instance(self, tiny_world, tmp_path,
                                                         monkeypatch):
        import divekit.bnb as bnb
        import divekit.harness as harness
        from divekit.bnb import OPTIMAL_PROVEN

        root, _ = tiny_world
        runs = self.count_calls(monkeypatch, bnb, "branch_and_bound")
        self.count_calls(monkeypatch, harness, "branch_and_bound", runs)
        walks = self.count_calls(monkeypatch, harness, "enumerate_optimal_face")
        cfg = CollectConfig(node_limit=150, pool_capacity=5, augment="enumerate",
                            enum_node_limit=300, jobs=1)
        manifest = collect_corpus(root / "inst", tmp_path / "corpus", cfg)
        # only an instance with a fractional root LP reaches branch and bound
        reasons = [s["reason"] for s in manifest["skipped"]]
        assert len(manifest["entries"]) + len(reasons) == 8
        assert len(runs) == len(manifest["entries"]) + reasons.count("no_solution")
        proven = [e for e in manifest["entries"] if e["status"] == OPTIMAL_PROVEN]
        assert proven and len(walks) == len(proven)

    def test_eval_dive_computes_locks_once_per_instance(self, tiny_world, tmp_path,
                                                        model_path, monkeypatch):
        """Locks and column degrees are computed once per instance, however
        many divers dive on it."""
        from divekit.diving import SCORERS
        from divekit.instances import MilpInstance

        corpus = self.first_entries(tiny_world, tmp_path / "c3", 3)
        real = MilpInstance.column_counts
        fills = []

        def counting(inst):
            if inst._counts_cache is None:
                fills.append(inst.name)
            return real(inst)

        monkeypatch.setattr(MilpInstance, "column_counts", counting)
        cfg = DiveEvalConfig(divers=tuple(sorted(SCORERS)), d_max=10, jobs=1,
                             model_path=model_path)
        res = eval_dives(corpus, cfg, tmp_path / "out")
        assert len(SCORERS) == 9 and len(res["rows"]) == 3 * 9
        assert len(fills) == len(set(fills)) == 3


class TestEnsembleHook:
    def test_pseudocosts_live_for_one_run(self, tiny_world, monkeypatch):
        """A member's scorer is built once per branch-and-bound run, so a
        later dive of the run reads the pseudocosts an earlier dive observed."""
        import divekit.diving as diving
        from divekit.bnb import SolveConfig, branch_and_bound
        from divekit.harness import _ensemble_hook
        from divekit.instances import read_instance

        built = []

        class Spy(diving.PseudocostScorer):
            def __init__(self):
                super().__init__()
                self.dive_no = 0
                self.first_seen = {}  # (var, up?) -> dive of its first observation
                self.cross_dive_reads = 0
                built.append(self)

            def begin_dive(self, ctx):
                self.dive_no += 1

            def observe(self, j, up, moved, degradation):
                self.first_seen.setdefault((int(j), bool(up)), self.dive_no)
                super().observe(j, up, moved, degradation)

            def estimate(self, ctx, j):
                for k in j:
                    for up in (False, True):
                        seen = self.first_seen.get((int(k), up))
                        self.cross_dive_reads += seen is not None and seen < self.dive_no
                return super().estimate(ctx, j)

        monkeypatch.setattr(diving, "PseudocostScorer", Spy)
        root, _ = tiny_world
        entries = load_corpus(root / "corpus")
        for entry in entries:
            hook = _ensemble_hook((("pseudocost", 1, 0),), None, 10, 0)
            res = branch_and_bound(read_instance(entry["instance_path"]),
                                   SolveConfig(node_limit=100, diver=hook))
            assert res.dives == built[-1].dive_no
        assert len(built) == len(entries)
        assert sum(s.cross_dive_reads for s in built) > 0


class TestRootLpFailure:
    """A root LP that raises costs that instance only; each command finishes
    and records the failure."""

    @staticmethod
    def fail_first_solve(monkeypatch, module):
        from divekit.simplex import NumericalBreakdown

        real = module.solve_lp
        calls = {"n": 0}

        def solve_lp(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NumericalBreakdown("injected failure")
            return real(*a, **kw)

        monkeypatch.setattr(module, "solve_lp", solve_lp)
        return calls

    def test_collect_skips_the_instance(self, tiny_world, tmp_path, monkeypatch):
        import divekit.harness as harness

        root, _ = tiny_world
        calls = self.fail_first_solve(monkeypatch, harness)
        manifest = collect_corpus(root / "inst", tmp_path / "corpus",
                                  CollectConfig(node_limit=150, pool_capacity=5, jobs=1))
        assert calls["n"] > 1
        reasons = [s["reason"] for s in manifest["skipped"]]
        assert reasons.count("root_lp_error") == 1
        assert len(manifest["entries"]) + len(reasons) == 8

    def test_eval_dive_marks_every_diver(self, tiny_world, tmp_path, monkeypatch):
        import divekit.harness as harness

        root, manifest = tiny_world
        self.fail_first_solve(monkeypatch, harness)
        cfg = DiveEvalConfig(divers=("fractional", "lower"), d_max=20, jobs=1)
        res = eval_dives(root / "corpus", cfg, tmp_path / "out")
        assert len(res["rows"]) == 2 * len(manifest["entries"])
        failed = [r for r in res["rows"] if r[6] == "lp_error"]
        assert sorted(r[1] for r in failed) == ["fractional", "lower"]
        assert len({r[0] for r in failed}) == 1
        assert all(r[4] and r[3] == np.inf for r in failed)

    def test_eval_dive_rows_for_an_infeasible_root(self, tiny_world, tmp_path, monkeypatch):
        """A root LP that ends non-optimal without raising still gives every
        diver a failed row."""
        import divekit.harness as harness

        root, manifest = tiny_world
        real = harness.solve_lp
        calls = {"n": 0}

        def solve_lp(lp, *a, **kw):
            calls["n"] += 1
            if calls["n"] > 1:
                return real(lp, *a, **kw)
            lo, hi = lp.lb.copy(), lp.ub.copy()
            lo[0], hi[0] = 1.0, 0.0  # crossing bounds: infeasible at once
            return real(lp, lower=lo, upper=hi)

        monkeypatch.setattr(harness, "solve_lp", solve_lp)
        cfg = DiveEvalConfig(divers=("fractional", "lower"), d_max=20, jobs=1)
        res = eval_dives(root / "corpus", cfg, tmp_path / "out")
        assert len(res["rows"]) == 2 * len(manifest["entries"])
        failed = [r for r in res["rows"] if r[6] == "infeasible" and r[5] == 0]
        assert sorted(r[1] for r in failed) == ["fractional", "lower"]
        assert len({r[0] for r in failed}) == 1
        assert all(r[4] and r[3] == np.inf for r in failed)

    def test_train_drops_the_example(self, tiny_world, monkeypatch):
        import divekit.harness as harness
        from divekit.harness import build_examples

        root, manifest = tiny_world
        self.fail_first_solve(monkeypatch, harness)
        examples, _, _ = build_examples(load_corpus(root / "corpus"))
        assert len(examples) == len(manifest["entries"]) - 1

    def test_eval_bnb_writes_one_row_per_seed(self, tiny_world, tmp_path, monkeypatch):
        """The shared root solve of the first instance raises, and so does the
        run's retry of it: the only cold solves branch and bound makes are
        such retries."""
        import divekit.bnb as bnb
        import divekit.harness as harness
        from divekit.simplex import NumericalBreakdown

        root, manifest = tiny_world
        self.fail_first_solve(monkeypatch, harness)
        real = bnb.solve_lp
        retries = []

        def solve_lp(lp, warm=None, **kw):
            if warm is None:
                retries.append(lp)
                raise NumericalBreakdown("injected failure")
            return real(lp, warm=warm, **kw)

        monkeypatch.setattr(bnb, "solve_lp", solve_lp)
        cfg = BnbEvalConfig(specs=(BnbRunSpec(name="none"),), tick_limit=500.0,
                            node_limit=20, seeds=(0, 1), jobs=1, save_traces=True)
        res = eval_bnb(root / "corpus", cfg, tmp_path / "bnb")
        assert len(res["rows"]) == 2 * len(manifest["entries"])
        failed = [r for r in res["rows"] if r[7] == "lp_error"]
        assert [r[2] for r in failed] == [0, 1]
        # the trace holds only the final (0, inf, -inf) point: gap 1 over
        # the whole horizon
        assert all(r[3] == 500.0 and r[4] == 1.0 for r in failed)
        assert len(list((tmp_path / "bnb" / "traces").glob("*.csv"))) == len(res["rows"])
        trace = (tmp_path / "bnb" / "traces" / f"{failed[0][0]}_none_s0.csv").read_text()
        assert trace.splitlines()[1:] == ["0.0,inf,-inf"]
        assert len(retries) == 1


class TestTraining:
    def test_checkpoint_directory_is_created_before_any_work(self, tiny_world, tmp_path,
                                                              monkeypatch):
        import divekit.harness as harness

        root, _ = tiny_world
        out = tmp_path / "new" / "dir" / "model.npz"
        seen = []
        real = harness.build_examples

        def spy(*a, **kw):
            seen.append(out.parent.is_dir())
            return real(*a, **kw)

        monkeypatch.setattr(harness, "build_examples", spy)
        train_from_corpus(root / "corpus", out, TrainingConfig(epochs=1, batch_size=4, seed=0),
                          jobs=1)
        assert seen == [True]
        assert out.exists() and (out.parent / "model.npz.history.csv").exists()

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

    def test_checkpoints_in_one_directory_keep_their_histories(self, tiny_world, tmp_path):
        """The history is named after the whole checkpoint name, so two
        checkpoints that differ only in their last suffix keep their own."""
        root, _ = tiny_world
        reports = [train_from_corpus(root / "corpus", tmp_path / f"m.v{seed}",
                                     TrainingConfig(epochs=1, batch_size=4, seed=seed), jobs=1)
                   for seed in (1, 2)]
        assert [r["history"] for r in reports] == \
            [str(tmp_path / "m.v1.history.csv"), str(tmp_path / "m.v2.history.csv")]
        for seed, report in zip((1, 2), reports):
            assert f"# seed: {seed}\n" in Path(report["history"]).read_text()

    def test_validation_never_takes_every_example(self, tiny_world, tmp_path, monkeypatch):
        import divekit.harness as harness

        root, _ = tiny_world
        seen = []
        real = harness.train_model

        def spy(model, examples, val_examples, cfg):
            seen.append((examples, val_examples))
            return real(model, examples, val_examples, cfg)

        monkeypatch.setattr(harness, "train_model", spy)
        train_from_corpus(root / "corpus", tmp_path / "m.npz",
                          TrainingConfig(epochs=1, batch_size=4, seed=0),
                          val_fraction=0.99, jobs=1)
        [(tr, val)] = seen
        assert len(tr) == 1 and len(val) >= 2
        assert not {id(e) for e in tr} & {id(e) for e in val}

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
        tcfg = TuneConfig(divers=("fractional", "lower"), samples=2, seed=0, d_max=20)
        ecfg = BnbEvalConfig(specs=(), tick_limit=2000.0, node_limit=40,
                             seeds=(0,), jobs=1)
        report = tune_ensemble(root / "corpus", tcfg, ecfg, root / "tune.json")
        assert report["scores"][report["best_name"]] <= report["scores"]["default"]
        assert report["solver_calls"] == (2 + 1) * len(load_corpus(root / "corpus")) * 1
        assert (root / "tune.json").exists()
        assert (root / "tune_runs" / "bnb_per_run.csv").exists()

    def test_reports_in_one_directory_keep_their_run_tables(self, tiny_world, tmp_path):
        root, _ = tiny_world
        ecfg = BnbEvalConfig(specs=(), tick_limit=1000.0, node_limit=20, seeds=(0,), jobs=1)
        for name, divers in (("a", ("fractional",)), ("b", ("lower",))):
            tune_ensemble(root / "corpus", TuneConfig(divers=divers, samples=1, d_max=10),
                          ecfg, tmp_path / f"{name}.json")
        a = (tmp_path / "a_runs" / "bnb_per_run.csv").read_text()
        b = (tmp_path / "b_runs" / "bnb_per_run.csv").read_text()
        assert '"fractional"' in a and '"lower"' not in a
        assert '"lower"' in b and '"fractional"' not in b

    def test_sample_space(self, rng):
        from divekit.harness import sample_ensemble
        cfg = TuneConfig(divers=("fractional", "lower", "upper", "random"))
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
