import json

import pytest

from divekit.cli import main
from divekit.harness import read_csv_rows
from divekit.instances import read_instance


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
