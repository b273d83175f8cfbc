import functools
import inspect
import json

import pytest

from conftest import write_mps_instances
from divekit import cli, harness
from divekit.cli import main
from divekit.diving import HEURISTIC_DIVERS
from divekit.graphnet import TrainingConfig
from divekit.harness import (
    BnbEvalConfig,
    BnbRunSpec,
    CollectConfig,
    DiveEvalConfig,
    TuneConfig,
    read_csv_rows,
)
from divekit.instances import GeneratorConfig, generate, read_instance, write_instance


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(["gen", "--family", "set-cover", "--count", "6", "--seed", "400",
               "--out", str(root / "inst"),
               "--param", "rows=40", "--param", "cols=50",
               "--param", "density=0.12", "--param", "max_cost=5"])
    assert rc == 0
    rc = main(["collect", "--instances", str(root / "inst"),
               "--out", str(root / "corpus"), "--node-limit", "120",
               "--jobs", "1"])
    assert rc == 0
    return root


def test_gen_writes_manifest_and_instances(workspace):
    manifest = json.loads((workspace / "inst" / "manifest.json").read_text())
    assert manifest["count"] == 6
    inst = read_instance(workspace / "inst" / "instances" / manifest["instances"][0])
    assert inst.n == 50 and inst.m == 40


def test_train_eval_dive_and_bnb(workspace):
    rc = main(["train", "--corpus", str(workspace / "corpus"),
               "--out", str(workspace / "model.npz"), "--epochs", "5",
               "--batch-size", "4", "--jobs", "1", "--seed", "0"])
    assert rc == 0
    rc = main(["eval-dive", "--corpus", str(workspace / "corpus"),
               "--out", str(workspace / "dives"),
               "--model", str(workspace / "model.npz"),
               "--divers", "l2dive,fractional,lower", "--d-max", "25",
               "--jobs", "1", "--seed", "0"])
    assert rc == 0
    header, rows = read_csv_rows(workspace / "dives" / "dives_summary.csv")
    assert [r[0] for r in rows] == sorted(["l2dive", "fractional", "lower"])
    rc = main(["eval-bnb", "--corpus", str(workspace / "corpus"),
               "--out", str(workspace / "bnb"), "--divers", "fractional:10",
               "--tick-limit", "2000", "--node-limit", "40", "--seeds", "0",
               "--jobs", "1"])
    assert rc == 0
    header, rows = read_csv_rows(workspace / "bnb" / "bnb_summary.csv")
    assert {r[0] for r in rows} == {"no-diving", "fractional:10"}


def test_checkpoint_at_a_path_without_npz_suffix(workspace, tmp_path):
    """``train --out`` writes the checkpoint at exactly the given path, so
    ``eval-dive --model`` reads it back from the same path."""
    rc = main(["train", "--corpus", str(workspace / "corpus"),
               "--out", str(tmp_path / "m.ckpt"), "--epochs", "1",
               "--batch-size", "4", "--jobs", "1"])
    assert rc == 0 and (tmp_path / "m.ckpt").is_file()
    rc = main(["eval-dive", "--corpus", str(workspace / "corpus"),
               "--out", str(tmp_path / "dives"), "--divers", "l2dive",
               "--model", str(tmp_path / "m.ckpt"), "--d-max", "10", "--jobs", "1"])
    assert rc == 0


def test_tune_command(workspace):
    rc = main(["tune", "--corpus", str(workspace / "corpus"),
               "--out", str(workspace / "tune.json"),
               "--divers", "fractional,lower", "--samples", "1",
               "--tick-limit", "1500", "--node-limit", "30", "--seeds", "0",
               "--jobs", "1", "--seed", "0"])
    assert rc == 0
    report = json.loads((workspace / "tune.json").read_text())
    assert "best" in report and "solver_calls" in report


def test_verify_command_passes():
    assert main(["verify", "--lp-count", "15", "--tighten-count", "10", "--seed", "1"]) == 0


def test_gen_rejects_bad_param():
    with pytest.raises(SystemExit):
        main(["gen", "--family", "set-cover", "--count", "1", "--seed", "0",
              "--out", "/tmp/x", "--param", "rows"])


def test_mps_pipeline_without_bounds(tmp_path):
    """collect -> train -> eval-dive with all nine divers -> eval-bnb on
    set-cover written as MPS without BOUNDS, so every integer column is
    [0, inf)."""
    inst = write_mps_instances(tmp_path / "inst", 4)
    corpus, model = str(tmp_path / "corpus"), str(tmp_path / "model.npz")
    assert main(["collect", "--instances", str(inst), "--out", corpus,
                 "--node-limit", "60", "--jobs", "1"]) == 0
    assert main(["train", "--corpus", corpus, "--out", model, "--epochs", "3",
                 "--jobs", "1"]) == 0
    assert main(["eval-dive", "--corpus", corpus, "--out", str(tmp_path / "dives"),
                 "--model", model, "--divers", ",".join(HEURISTIC_DIVERS + ("l2dive",)),
                 "--d-max", "20", "--jobs", "1"]) == 0
    assert main(["eval-bnb", "--corpus", corpus, "--out", str(tmp_path / "bnb"),
                 "--model", model, "--divers", "upper:5,l2dive:20", "--tick-limit", "1500",
                 "--node-limit", "30", "--seeds", "0", "--jobs", "1"]) == 0
    _, rows = read_csv_rows(tmp_path / "dives" / "dives_summary.csv")
    assert len(rows) == len(HEURISTIC_DIVERS) + 1


def test_collect_reads_mps_files_without_a_manifest(tmp_path):
    inst = write_mps_instances(tmp_path / "inst", 2)
    assert main(["collect", "--instances", str(inst / "instances"),
                 "--out", str(tmp_path / "corpus"), "--node-limit", "60", "--jobs", "1"]) == 0


def test_collect_refuses_a_json_instance_without_a_field(tmp_path):
    """A JSON instance that lacks a field ends ``collect`` with one line
    that names the file and the field."""
    (tmp_path / "inst").mkdir()
    path = tmp_path / "inst" / "cover.json"
    write_instance(generate(GeneratorConfig("set-cover", rows=10, cols=20, density=0.2)), path)
    doc = json.loads(path.read_text())
    del doc["m"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match=r"^collect: .*cover\.json: missing field 'm'$"):
        main(["collect", "--instances", str(tmp_path / "inst"),
              "--out", str(tmp_path / "corpus"), "--jobs", "1"])


def test_eval_bnb_refuses_seed(capsys):
    """eval-bnb reads only --seeds; --seed is refused, not taken as an
    abbreviation of --seeds."""
    with pytest.raises(SystemExit) as exc:
        main(["eval-bnb", "--corpus", "c", "--out", "o", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("divers", ["fractional:10:15", "fractional:0", "fractional:-3:-1",
                                    "fractionl:10", "fractional:x"])
def test_eval_bnb_rejects_unrunnable_schedules(divers):
    with pytest.raises(SystemExit, match=f"bad --divers entry '{divers}'"):
        main(["eval-bnb", "--corpus", "c", "--out", "o", "--divers", divers])


@pytest.mark.parametrize("argv, message", [
    (["eval-dive", "--divers", "fractionl"], "eval-dive: unknown diver 'fractionl'"),
    (["tune", "--divers", "fractional,lowr"], "tune: unknown diver 'lowr'"),
    (["eval-dive", "--divers", "lower,l2dive"], "eval-dive: the l2dive diver needs"),
    (["eval-bnb", "--divers", "l2dive:20"], "eval-bnb: the l2dive diver needs"),
    (["tune", "--divers", "l2dive,lower"], "tune: the l2dive diver needs"),
], ids=["eval-dive-name", "tune-name", "eval-dive-model", "eval-bnb-model", "tune-model"])
def test_bad_divers_exit_before_any_work(argv, message, monkeypatch):
    """A bad diver name, or l2dive without --model, ends the command with one
    line before it reads the corpus."""
    monkeypatch.setattr(harness, "load_corpus", lambda *a: pytest.fail("corpus read"))
    with pytest.raises(SystemExit, match=message):
        main(argv[:1] + ["--corpus", "c", "--out", "o"] + argv[1:])


@pytest.mark.parametrize("argv, message", [
    (["eval-dive", "--divers", "fractional,fractional"], "eval-dive: duplicate diver names"),
    (["eval-bnb", "--divers", "fractional:10,fractional:10"],
     "eval-bnb: duplicate config names"),
    (["train", "--epochs", "0"], "train: bad training configuration"),
    (["train", "--hidden", "0"], "train: hidden must be >= 1"),
    (["train", "--val-fraction", "1"], r"train: .* val_fraction in \[0, 1\)"),
    (["tune", "--seeds", "x"], "tune: invalid literal"),
    (["eval-dive", "--d-max", "-1"], "eval-dive: d_max must be >= 0"),
    (["eval-bnb", "--d-max", "-1"], "eval-bnb: d_max must be >= 0"),
    (["collect", "--node-limit", "0"], "collect: node_limit must be positive"),
    (["eval-bnb", "--seeds", "0,0"], r"eval-bnb: seeds \[0, 0\] must be nonempty, with no "),
    (["tune", "--seeds", "1,2,1"], r"tune: seeds \[1, 2, 1\] must be nonempty, with no "),
], ids=["eval-dive-duplicate", "eval-bnb-duplicate", "train-epochs", "train-hidden",
        "train-val-fraction", "tune-seeds", "eval-dive-depth", "eval-bnb-depth",
        "collect-nodes", "eval-bnb-repeated-seed", "tune-repeated-seed"])
def test_bad_arguments_exit_with_one_line(argv, message, monkeypatch, tmp_path):
    """A bad argument ends the command with one ``<command>: <reason>`` line
    before it reads its input or writes anything."""
    monkeypatch.chdir(tmp_path)
    for name in ("load_corpus", "instance_paths"):
        monkeypatch.setattr(harness, name, lambda *a: pytest.fail("input read"))
    source = "--instances" if argv[0] == "collect" else "--corpus"
    with pytest.raises(SystemExit, match=message):
        main(argv[:1] + [source, "c", "--out", "o"] + argv[1:])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["collect", "--instances", "{tmp}/nope"], "collect: .*nope"),
    (["eval-dive", "--corpus", "{tmp}/nope"], "eval-dive: .*nope"),
    (["eval-dive", "--corpus", "{corpus}", "--divers", "l2dive", "--model", "{tmp}/missing.npz"],
     "eval-dive: .*missing.npz"),
    (["train", "--corpus", "{tmp}/nope"], "train: .*nope"),
], ids=["collect", "eval-dive-corpus", "eval-dive-model", "train"])
def test_missing_input_path_exits_with_one_line(argv, message, workspace, tmp_path):
    """A missing input path ends the command with one line that names it."""
    argv = [a.format(tmp=tmp_path, corpus=workspace / "corpus") for a in argv]
    with pytest.raises(SystemExit, match=message):
        main(argv + ["--out", str(tmp_path / "out"), "--jobs", "1"])


def test_train_on_a_corpus_without_usable_entries_exits_with_one_line(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "manifest.json").write_text(json.dumps({"entries": []}))
    with pytest.raises(SystemExit, match="train: corpus .* has no usable entries"):
        main(["train", "--corpus", str(tmp_path / "corpus"),
              "--out", str(tmp_path / "model.npz"), "--jobs", "1"])


@pytest.mark.parametrize("args, message", [
    (["--param", "rows=0"], "gen: rows must be >= 1"),
    (["--param", "colour=1"], "gen: .*unexpected keyword argument 'colour'"),
    (["--count", "-2"], "gen: count must be >= 1"),
], ids=["out-of-range", "unknown", "count"])
def test_gen_refuses_bad_params_before_writing(args, message, tmp_path):
    with pytest.raises(SystemExit, match=message):
        main(["gen", "--family", "set-cover", "--out", str(tmp_path / "out"), *args])
    assert not (tmp_path / "out").exists()


def test_parser_defaults_are_the_defaults_they_fill(monkeypatch):
    """Every command run without optional flags passes exactly the defaults
    of the configs and functions it fills."""
    calls = {}
    results = {
        "collect_corpus": {"entries": [{}], "skipped": []},
        "train_from_corpus": dict.fromkeys(
            ("model", "best_epoch", "best_val", "temperature", "n_examples"), 0),
        "eval_dives": {"summary_rows": []},
        "eval_bnb": {"summary_rows": []},
        "tune_ensemble": {"best_name": "default", "scores": {"default": 0.0},
                          "solver_calls": 0},
        "run_verification": True,
    }
    for name in results:
        real = getattr(harness, name)

        @functools.wraps(real)
        def spy(*args, _name=name, **kwargs):
            calls[_name] = (args, kwargs)
            return results[_name]

        monkeypatch.setattr(cli, name, spy)

    def defaults(fn):
        return {k: p.default for k, p in inspect.signature(fn).parameters.items()
                if p.default is not inspect.Parameter.empty}

    assert main(["collect", "--instances", "i", "--out", "o"]) == 0
    cfg = calls["collect_corpus"][0][2]
    assert cfg == CollectConfig(jobs=cfg.jobs)

    assert main(["train", "--corpus", "c", "--out", "m"]) == 0
    args, kwargs = calls["train_from_corpus"]
    assert args[2] == TrainingConfig()
    expect = defaults(harness.train_from_corpus)
    assert {k: kwargs[k] for k in ("val_fraction", "hidden")} == \
        {k: expect[k] for k in ("val_fraction", "hidden")}

    assert main(["eval-dive", "--corpus", "c", "--out", "o"]) == 0
    cfg = calls["eval_dives"][0][1]
    assert cfg == DiveEvalConfig(jobs=cfg.jobs)

    assert main(["eval-bnb", "--corpus", "c", "--out", "o"]) == 0
    cfg = calls["eval_bnb"][0][1]
    assert cfg.specs == (BnbRunSpec(name="no-diving"),)
    assert cfg == BnbEvalConfig(specs=cfg.specs, jobs=cfg.jobs)

    assert main(["tune", "--corpus", "c", "--out", "o"]) == 0
    _, tcfg, ecfg, _ = calls["tune_ensemble"][0]
    assert tcfg == TuneConfig()
    assert ecfg == BnbEvalConfig(specs=(), seeds=(0,), jobs=ecfg.jobs)

    assert main(["verify"]) == 0
    assert calls["run_verification"][1] == defaults(harness.run_verification)
