"""divekit benchmark: four pipeline workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload dive-cover --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each run sets its workload up from ``--seed`` at least three times
(reporting the median as ``setup_s``).  The input comes in chunks, each a complete input
of the timed harness call.  With ``--trace 0`` passes over all chunks
repeat until ``--seconds`` have passed (at least two), and ``wall_s`` and
``cpu_s`` sum each chunk's fastest repetition.  With ``--trace 1`` the
first half of the chunks run untraced and then traced; the per-layer
metrics cover the traced calls, with the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Any failed correctness or determinism check makes the
run exit 1 and report no numbers.

BLAS is pinned to one thread before numpy loads: LP iteration counts
depend on the thread count, so every figure is taken at the one count the
environment block states.  Scratch files go under ``.perfbench/`` in the
repository root; a record per workload and seed lets the next run with the
same sources and thread count check that it reproduced the same outputs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# set-up runs at least N_SETUPS times, and a cheap one until SETUP_SECONDS
# have passed, so that the median ``setup_s`` of a 0.1 s set-up is steady
N_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 10
# Identical calls on the 2-core VM this was tuned on ran 1.1 s in quiet
# phases and up to 2.3 s in busy ones, which last 10-30 s; the fastest of
# at least two repetitions per chunk is steadier than their median.
MIN_PASSES = 2
MAX_ERRORS_SHOWN = 20


class BenchFailure(RuntimeError):
    """A correctness or determinism check failed."""


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, read through ctypes."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.with_name(f"{pkg.__name__}.libs")
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    from divekit import kernels

    h = hashlib.sha256()
    lines = 0
    for f in sorted((SRC / "divekit").glob("*.py")):
        data = f.read_bytes()
        h.update(f.name.encode() + data)
        lines += data.count(b"\n")
    bench = hashlib.sha256()
    for f in sorted(HERE.glob("*.py")):
        bench.update(f.name.encode() + f.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernels_backend": kernels.backend(),
        "git_commit": git_commit(),
        "src_lines": lines,
        "src_digest": h.hexdigest()[:16],
        "bench_digest": bench.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# checks run inside a traced repetition
# ---------------------------------------------------------------------------

class LpCertificate:
    """Every optimal solve must pass the slackness certificate and have a
    dual objective equal to its primal objective, at the solver's own
    tolerance."""

    def __init__(self):
        from divekit import simplex

        self.simplex = simplex
        self.errors = []

    def __call__(self, sol, lp, lower, upper):
        sx = self.simplex
        if sol.status != sx.OPTIMAL:
            return
        cs = sx.check_complementary_slackness(sol.x, sol.duals, lp, tol=sx.DUAL_GAP_TOL,
                                              lower=lower, upper=upper)
        gap = abs(sol.objective - sx.dual_objective(sol.duals, lp, lower, upper))
        if not cs["holds"] or gap > sx.DUAL_GAP_TOL * (1.0 + abs(sol.objective)):
            self.errors.append(f"LP certificate: slackness {cs['max_violation']:.3g}, "
                               f"duality gap {gap:.3g}")


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed loop of the kind of work divekit does (small LU solves,
    small numpy operations, a Python loop) that uses no divekit code.

    The machine this was tuned on drifted by up to 2x over minutes, and
    both divekit and this loop slowed with it: over 15 s windows the
    fastest call of a fixed divekit input varied with a CV of 20%, its
    ratio to the fastest loop time with a CV of 8.5%.  Timed metrics are
    therefore reported at a reference speed, scaled by ``REFERENCE_S`` over
    the fastest loop time of the run; the loop runs before every set-up and
    every untraced call."""

    REFERENCE_S = 0.008

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.A = rng.normal(size=(60, 60)) + 60.0 * np.eye(60)
        self.x = rng.normal(size=60)
        self.samples = []

    def sample(self):
        import scipy.linalg as sla

        np, A, x = self.np, self.A, self.x
        t0 = time.perf_counter()
        for _ in range(150):
            y = sla.lu_solve(sla.lu_factor(A, check_finite=False), x, check_finite=False)
            total = 0.0
            for v in np.maximum(A @ y, 0.0)[:40]:
                total += v
        self.samples.append(time.perf_counter() - t0)

    def factor(self):
        """Multiply a measured time by this to get it at reference speed."""
        return self.REFERENCE_S / min(self.samples)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def check_record(tag, env, chunks):
    """Compare each chunk's output digest and counters with the last run of
    this workload, size and seed, if that run had the same sources,
    benchmark and BLAS thread count; then update the record."""
    path = STATE / "records" / f"{tag}.json"
    rec = {"src_digest": env["src_digest"], "bench_digest": env["bench_digest"],
           "blas_threads": env["blas_threads"], "chunks": chunks}
    if path.exists():
        old = json.loads(path.read_text())
        if (old.get("src_digest"), old.get("bench_digest")) != (env["src_digest"],
                                                                env["bench_digest"]):
            pass  # different program or benchmark: nothing to compare
        elif old.get("blas_threads") != rec["blas_threads"]:
            print(f"note: not comparing with the previous run of {tag}: "
                  f"BLAS threads {old.get('blas_threads')} != {rec['blas_threads']}",
                  file=sys.stderr)
        else:
            for k in sorted(set(old["chunks"]) & set(chunks)):
                if old["chunks"][k] != chunks[k]:
                    raise BenchFailure(f"{tag} chunk {k}: outputs differ from the previous "
                                       f"run of the same sources ({old['chunks'][k][1]} vs "
                                       f"{chunks[k][1]})")
            rec["chunks"] = {**old["chunks"], **chunks}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rec, sort_keys=True) + "\n")


def run(name, seed, seconds, trace, smoke=False):
    """Set up, measure and check one workload; returns (result, env).

    Untraced: passes over all chunks repeat while time is left, at least
    two; ``wall_s`` sums each chunk's fastest time.  Traced: the first half
    of the chunks each run untraced and then traced."""
    import workloads
    from spans import Patcher, Tracer, install
    from workloads import Capture

    env = environment()
    wl = workloads.make(name, smoke=smoke)
    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=STATE / "work"))
    try:
        calibration = Calibration()
        setup_s, inputs = [], []
        while len(setup_s) < N_SETUPS or (sum(setup_s) < SETUP_SECONDS
                                          and len(setup_s) < MAX_SETUPS):
            k = len(setup_s)
            calibration.sample()
            t0 = time.perf_counter()
            made = wl.setup(seed, work / f"setup{k}")
            setup_s.append(time.perf_counter() - t0)
            inputs.append(workloads.tree_digest(work / f"setup{k}", work))
            if k == 0:
                st = made  # the timed calls read the first set-up's files
        if len(set(inputs)) != 1:
            raise BenchFailure("set-ups from one seed produced different inputs or models")
        if wl.first_instance_digest(seed) == wl.first_instance_digest(seed + 1):
            raise BenchFailure(f"seeds {seed} and {seed + 1} generate the same input")

        root = f"harness.{wl.entry}"
        tracer = Tracer() if trace else None
        certificate = LpCertificate()
        reps = []
        seen = {}  # chunk -> (digest, counters, quality) of its first run

        def execute(k, traced):
            out = work / f"rep{len(reps)}"
            capture = Capture()
            with Patcher() as patcher:
                if traced:
                    install(patcher, tracer, check_lp=certificate)
                capture.install(patcher)
                gc.collect()
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    if traced:
                        result = tracer.call(root, wl.call, st, k, out)
                    else:
                        result = wl.call(st, k, out)
                except Exception:
                    traceback.print_exc()
                    result = None
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if result is None:
                outcome, key = wl.aborted(st, k), None
            else:
                outcome = wl.outcome(st, k, out, result)
                key = (workloads.tree_digest(out, work), outcome.counters, outcome.quality)
            shutil.rmtree(out, ignore_errors=True)
            errors = outcome.errors + capture.check(st["highs"]) + certificate.errors
            if errors:
                shown = "\n  ".join(errors[:MAX_ERRORS_SHOWN])
                raise BenchFailure(f"{len(errors)} correctness failures:\n  {shown}")
            if key is not None and seen.setdefault(k, key) != key:
                raise BenchFailure(f"chunk {k} gave different outputs when repeated")
            reps.append({"chunk": k, "traced": traced, "wall": wall, "cpu": cpu,
                         "outcome": outcome, "ok": key is not None})

        deadline = time.perf_counter() + seconds
        if trace:
            for k in range((wl.chunks + 1) // 2):
                execute(k, False)
                execute(k, True)
        else:
            while (len(reps) < MIN_PASSES * wl.chunks
                   or time.perf_counter() + reps[-1]["wall"] <= deadline):
                calibration.sample()
                execute(len(reps) % wl.chunks, False)

        ran = sorted({r["chunk"] for r in reps})
        if sorted(seen) != ran:
            raise BenchFailure(f"chunks {sorted(set(ran) - set(seen))} never completed")
        check_record(f"{name}{'-smoke' if smoke else ''}-seed{seed}", env,
                     {str(k): [seen[k][0], seen[k][1]] for k in ran})
        counters, quality = {}, {}
        for k in ran:
            for c in seen[k][1]:
                counters[c] = counters.get(c, 0) + seen[k][1][c]
            for q in seen[k][2]:
                quality.setdefault(q, []).append(seen[k][2][q])
        quality = {q: float(statistics.fmean(v)) for q, v in quality.items()}
        attempted = sum(r["outcome"].attempted for r in reps)
        failed = sum(r["outcome"].failed for r in reps)

        if not trace:
            def per_pass(field):
                return sum(min(r[field] for r in reps if r["chunk"] == k and r["ok"])
                           for k in ran)
            speed = calibration.factor()
            raw = {"wall_s": per_pass("wall"), "cpu_s": per_pass("cpu"),
                   "setup_s": statistics.median(setup_s)}
            metrics = {
                "wall_s": raw["wall_s"] * speed,
                "cpu_s": raw["cpu_s"] * speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": raw["setup_s"] * speed,
            }
            print(f"# speed factor {speed:.4f} (reference {Calibration.REFERENCE_S} s, fastest "
                  f"of {len(calibration.samples)} calibration loops "
                  f"{min(calibration.samples):.5f} s); unscaled "
                  + json.dumps({k: round(v, 4) for k, v in raw.items()}))
        else:
            metrics = traced_metrics(tracer, root, reps, quality, attempted, failed)
        result = {"correct": True, "attempted": attempted, "failed": failed,
                  "metrics": metrics, "counters": counters,
                  "rep_walls": [round(r["wall"], 3) for r in reps]}
        return result, env
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_metrics(tracer, root, reps, quality, attempted, failed):
    from metrics import per_layer

    if not all(r["ok"] for r in reps):
        raise BenchFailure("a repetition of the traced run raised")
    summary = tracer.summary()
    negative = {k: v["min_self_s"] for k, v in summary.items()
                if not k.startswith("_") and v["min_self_s"] < -1e-9}
    if negative:
        raise BenchFailure(f"negative self time: {negative}")
    if summary["_top"] != [root]:
        raise BenchFailure(f"spans outside the harness call: {summary['_top']}")
    wall = sum(r["wall"] for r in reps if r["traced"])
    untraced_wall = sum(r["wall"] for r in reps if not r["traced"])
    overhead = wall - untraced_wall
    unaccounted = wall - (summary["_children_of_top"] + summary[root]["self_s"])
    if abs(unaccounted) > abs(overhead) + 0.01:
        raise BenchFailure(f"trace does not account for the time: {unaccounted:.4f}s "
                           f"unaccounted, overhead {overhead:.4f}s")
    STATE.joinpath("traces").mkdir(parents=True, exist_ok=True)
    tracer.save(STATE / "traces" / f"{root}.npz")
    extra = {
        "harness.self_s": summary[root]["self_s"],
        "harness.eval_bnb.unique_run_frac": quality.get("unique_run_frac", 0.0),
        "error_frac": failed / attempted if attempted else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": overhead,
        "trace.unaccounted_s": unaccounted,
    }
    for key in ("primal_gap_mean", "primal_gap_l2dive", "dive_solved_frac", "bnb_gap_mean",
                "pd_integral_mean", "train_loss_best"):
        extra[key] = quality.get(key, 0.0)
    return per_layer(summary, tracer.counters, extra)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def report(result, env, name, seed):
    from metrics import UNITS

    print(f"# divekit benchmark: workload {name}, seed {seed}, "
          f"repetitions of {result['rep_walls']} s")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# work counters " + json.dumps(result["counters"], sort_keys=True))
    for key, value in result["metrics"].items():
        print(f"{key:<40} {value:>16.6g} {UNITS[key]}")
    line = {k: result[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = {k: {"value": v, "unit": UNITS[k]} for k, v in result["metrics"].items()}
    print(json.dumps(line))


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; every metric the
    benchmark declares must be printed with its declared unit."""
    import workloads
    from metrics import END_TO_END, PER_LAYER, UNITS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for group, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = {m["name"]: m["unit"] for m in declared[group]}
        have = {name: unit for name, unit, *_ in spec}
        if want != have:
            problems.append(f"BENCHMARK.json {group} differs from perfbench/metrics.py: "
                            f"{sorted(set(want.items()) ^ set(have.items()))}")
    if {w["name"] for w in declared["workloads"]} != set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, _ = run(name, 0, 0, trace, smoke=True)
            want = END_TO_END if trace == 0 else PER_LAYER
            got = result["metrics"]
            missing = [m for m, *_ in want if m not in got]
            if missing or len(got) != len(want):
                problems.append(f"{name} trace {trace}: missing {missing}")
            print(f"smoke {name} trace {trace}: {len(got)} metrics with units "
                  f"{sorted({UNITS[m] for m in got})}, {time.perf_counter() - t0:.1f}s")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": 2 * len(workloads.WORKLOADS),
                      "failed": len(problems), "metrics": {}}))
    return 1 if problems else 0


def main(argv=None) -> int:
    if not (SRC / "divekit" / "__init__.py").is_file():
        print(f"perfbench: no divekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="'all' runs every workload, untraced and then traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size and check the metric names")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.workload == "all":
        jobs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    try:
        if args.smoke:
            return smoke()
        for name, trace in jobs:
            result, env = run(name, args.seed, args.seconds, trace)
            report(result, env, name, args.seed)
    except BenchFailure as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
