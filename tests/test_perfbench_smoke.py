"""The benchmark at smoke size: every traced binding in ``src/`` must still
exist and the benchmark's correctness gate must pass."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
