"""The four benchmark workloads, each driving one public harness function.

A workload builds its inputs from the seed in ``setup`` (instance files,
and where needed a collected corpus and a trained model), runs the timed
harness call in ``call``, and afterwards reads what the harness wrote:
a digest of every output file, deterministic work counters, quality
figures, and the correctness checks that need no tracing.  Everything runs
in one process with harness ``jobs=1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from divekit import harness
from divekit.graphnet import TrainingConfig
from divekit.instances import (
    INF_BOUND,
    INT_TOL,
    GeneratorConfig,
    generate,
    read_instance,
    to_standard_form,
    write_instance,
)
from divekit.oracles import check_feasible_reference

ALL_DIVERS = ("fractional", "coefficient", "linesearch", "vectorlength",
              "pseudocost", "lower", "upper", "random", "l2dive")
BNB_DEPTH = 10  # dive depth budget inside B&B (eval-bnb --d-max)
BNB_SPECS = (
    harness.BnbRunSpec("none", d_max=BNB_DEPTH),
    harness.BnbRunSpec("fractional:10", (("fractional", 10, 0),), d_max=BNB_DEPTH),
    harness.BnbRunSpec("l2dive:20", (("l2dive", 20, 0),), d_max=BNB_DEPTH),
)
BNB_SEEDS = (0, 1, 2)  # the CLI default
HIGHS_REL_TOL = 1e-7  # root LP objective vs HiGHS, relative to 1 + |z|
OBJ_REL_TOL = 1e-9  # recomputed objective of a stored solution


class Capture:
    """Thin wrappers at the harness call sites that keep what the harness
    does not return (root LP values, dive solutions, B&B incumbents), so it
    can be checked once the timed call is over."""

    def __init__(self):
        self.roots = []  # (lp key, status, objective)
        self.dives = []  # (instance, DiveResult)
        self.searches = []  # (instance, BnbResult)

    def install(self, patcher):
        solve_lp, dive, bnb = harness.solve_lp, harness.dive, harness.branch_and_bound

        def root_solve(lp, *a, **kw):
            sol = solve_lp(lp, *a, **kw)
            if not a and not kw:
                self.roots.append((lp_key(lp), sol.status, sol.objective))
            return sol

        def captured_dive(inst, *a, **kw):
            res = dive(inst, *a, **kw)
            self.dives.append((inst, res))
            return res

        def captured_bnb(inst, *a, **kw):
            res = bnb(inst, *a, **kw)
            self.searches.append((inst, res))
            return res

        patcher.set(harness, "solve_lp", root_solve)
        patcher.set(harness, "dive", captured_dive)
        patcher.set(harness, "branch_and_bound", captured_bnb)

    def check(self, highs: dict) -> list[str]:
        errors = []
        for key, status, z in self.roots:
            ref = highs.get(key)
            if ref is None:
                errors.append("root LP of an instance the benchmark did not generate")
            elif status != "optimal" or abs(z - ref) > HIGHS_REL_TOL * (1 + abs(ref)):
                errors.append(f"root LP {status} {z!r} differs from HiGHS {ref!r}")
        for inst, res in self.dives:
            for x in res.solutions:
                errors += check_solution(inst, x, None, "dive solution")
            if res.solutions:
                best = min(float(inst.c @ x) for x in res.solutions)
                if best != res.best_z:
                    errors.append(f"{inst.name}: dive best_z {res.best_z!r} != {best!r}")
        for inst, res in self.searches:
            if res.x is not None:
                errors += check_solution(inst, res.x, res.objective, "B&B incumbent")
            for x, z in res.pool.solutions():
                errors += check_solution(inst, x, z, "B&B pool entry")
        return errors


def check_solution(inst, x, z, what) -> list[str]:
    x = np.asarray(x, dtype=np.float64)
    if not check_feasible_reference(inst, x):
        return [f"{inst.name}: {what} is infeasible"]
    if z is not None and abs(float(inst.c @ x) - z) > OBJ_REL_TOL * (1 + abs(z)):
        return [f"{inst.name}: {what} objective {z!r} != c'x {float(inst.c @ x)!r}"]
    return []


def lp_key(lp) -> str:
    h = hashlib.sha1()
    for arr in (lp.c, lp.b, lp.lb, lp.A.indptr, lp.A.indices, lp.A.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def highs_root(lp):
    """Root LP optimum and point from scipy's HiGHS, an independent solver."""
    bounds = [(lo if lo > -INF_BOUND else None, hi if hi < INF_BOUND else None)
              for lo, hi in zip(lp.lb, lp.ub)]
    res = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve a generated root LP: {res.message}")
    return float(res.fun), res.x


def make_instances(family, params, count, base_seed, out_dir):
    """Write ``count`` generated instances, skipping those whose root LP
    (by HiGHS) is already integral; returns the HiGHS root objective per LP
    key."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True)
    highs = {}
    s = base_seed
    while len(highs) < count:
        if s - base_seed > 50 * count:
            raise RuntimeError(f"too few {family} instances with a fractional root")
        inst = generate(GeneratorConfig(family=family, seed=s, **params))
        s += 1
        lp = to_standard_form(inst)
        z, x = highs_root(lp)
        xi = x[inst.integer_index]
        if np.max(np.abs(xi - np.round(xi)), initial=0.0) <= INT_TOL:
            continue
        write_instance(inst, out_dir / f"{inst.name}.json")
        highs[lp_key(lp)] = z
    return highs


def tree_digest(path, scratch) -> str:
    """Digest of every file under ``path``, with ``path`` and then the
    ``scratch`` directory cut out of the contents (the harness records some
    absolute paths); checkpoints by their arrays, since the archive format
    stamps write times."""
    path = Path(path)
    prefixes = (str(path).encode(), str(scratch).encode())
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        if f.suffix == ".npz":
            with np.load(f, allow_pickle=False) as data:
                for k in sorted(data.files):
                    h.update(k.encode())
                    h.update(np.ascontiguousarray(data[k]).tobytes())
        else:
            data = f.read_bytes()
            for prefix in prefixes:
                data = data.replace(prefix, b"")
            h.update(data)
    return h.hexdigest()


def corpus_size(corpus) -> int:
    """Entries of a collected corpus: instances solved at the root are
    dropped by collection and are no task of the later stages."""
    return len(harness.load_corpus(corpus))


def _seed_base(seed, offset):
    return int(seed) * 10_000_000 + offset


@dataclass
class Outcome:
    """What one timed harness call produced, read back after timing."""

    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


class Workload:
    """Inputs come in ``chunks``: disjoint sets of instances, each a
    complete input of the harness call, so that one pass covers many
    instances while each call stays short."""

    name = ""
    why = ""
    entry = ""  # the harness function the timed call runs
    family = ""
    offset = 0

    def __init__(self, sizes: dict):
        self.sizes = sizes
        self.chunks = sizes.get("chunks", 1)

    def instances(self, seed, out_dir, count, offset=0):
        return make_instances(self.family, self.sizes.get("params", {}), count,
                              _seed_base(seed, self.offset + offset), out_dir)

    def first_instance_digest(self, seed) -> str:
        """Digest of the first generated input, to show the seed reaches
        the generator."""
        inst = generate(GeneratorConfig(family=self.family, seed=_seed_base(seed, self.offset),
                                        **self.sizes.get("params", {})))
        h = hashlib.sha256()
        for arr in (inst.c, inst.A.indptr, inst.A.indices, inst.A.data, inst.b):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def collect(self, inst_dir, out_dir, node_limit):
        return harness.collect_corpus(inst_dir, out_dir, harness.CollectConfig(
            node_limit=node_limit, jobs=1))

    def train(self, corpus, model, epochs):
        return harness.train_from_corpus(corpus, model, TrainingConfig(epochs=epochs, seed=0),
                                         jobs=1)

    def setup(self, seed, d: Path) -> dict:
        """Inputs for every chunk; ``st["chunks"][k]`` holds chunk k's."""
        raise NotImplementedError

    def call(self, st: dict, k: int, out: Path):
        raise NotImplementedError

    def outcome(self, st: dict, k: int, out: Path, result) -> Outcome:
        raise NotImplementedError

    def tasks(self, st: dict, k: int) -> int:
        raise NotImplementedError

    def aborted(self, st: dict, k: int) -> Outcome:
        """A harness call that raised fails every task it had."""
        n = self.tasks(st, k)
        return Outcome(attempted=n, failed=n)


class CollectIndep(Workload):
    name = "collect-indep"
    why = ("collect_corpus on indep-set (m~446): large dense simplex solves, "
           "refactorization and pricing; graphnet and diving never run")
    entry = "collect_corpus"
    family = "indep-set"
    offset = 1_000_000

    def setup(self, seed, d):
        highs, chunks = {}, []
        for k in range(self.chunks):
            inst = d / f"chunk{k}"
            highs.update(self.instances(seed, inst, self.sizes["count"], offset=10_000 * k))
            chunks.append(inst)
        return {"chunks": chunks, "highs": highs}

    def tasks(self, st, k):
        return self.sizes["count"]

    def call(self, st, k, out):
        return harness.collect_corpus(st["chunks"][k], out, harness.CollectConfig(
            node_limit=self.sizes["node_limit"], tick_limit=self.sizes["tick_limit"], jobs=1))

    def outcome(self, st, k, out, manifest):
        entries = manifest["entries"]
        errors = []
        gaps = []
        for e in entries:
            pool = json.loads((out / e["pool"]).read_text())
            inst = read_instance(out / e["instance"])
            for p in pool["entries"]:
                errors += check_solution(inst, p["x"], p["z"], "pool entry")
            gaps.append(harness.primal_dual_gap(pool["z_ref"], pool["bound"]))
        failed = sum(1 for s in manifest["skipped"] if s["reason"].startswith("root_"))
        return Outcome(
            attempted=len(entries) + len(manifest["skipped"]), failed=failed,
            counters={"nodes": sum(e["nodes"] for e in entries),
                      "ticks": sum(e["ticks"] for e in entries),
                      "pool_entries": sum(len(json.loads(p.read_text())["entries"])
                                          for p in (out / "pools").glob("*.json"))},
            quality={"bnb_gap_mean": float(np.mean(gaps)) if gaps else 1.0},
            errors=errors,
        )


class DiveCover(Workload):
    name = "dive-cover"
    why = ("eval_dives with all 9 divers on set-cover corpora: warm resolves "
           "after one bound change plus scorer and l2dive time")
    entry = "eval_dives"
    family = "set-cover"
    offset = 2_000_000

    def setup(self, seed, d):
        s = self.sizes
        highs = self.instances(seed, d / "train", s["train_count"])
        self.collect(d / "train", d / "train_corpus", s["collect_nodes"])
        self.train(d / "train_corpus", d / "model.npz", s["epochs"])
        chunks = []
        for k in range(self.chunks):
            highs.update(self.instances(seed, d / f"test{k}", s["test_count"],
                                        offset=10_000 * (k + 1)))
            self.collect(d / f"test{k}", d / f"test_corpus{k}", s["collect_nodes"])
            chunks.append(d / f"test_corpus{k}")
        return {"chunks": chunks, "model": d / "model.npz", "highs": highs}

    def tasks(self, st, k):
        return corpus_size(st["chunks"][k]) * len(ALL_DIVERS)

    def call(self, st, k, out):
        return harness.eval_dives(st["chunks"][k], harness.DiveEvalConfig(
            divers=ALL_DIVERS, d_max=self.sizes["d_max"],
            lp_iter_limit=self.sizes["lp_iter_limit"], jobs=1,
            model_path=str(st["model"])), out)

    def outcome(self, st, k, out, result):
        rows = result["rows"]
        solved = [r for r in rows if not r[4]]
        l2 = [r[3] for r in solved if r[1] == "l2dive"]
        return Outcome(
            attempted=len(rows), failed=self.tasks(st, k) - len(rows),
            counters={"lp_iterations": sum(r[7] for r in rows),
                      "depth": sum(r[5] for r in rows)},
            quality={
                "primal_gap_mean": float(np.mean([r[3] for r in solved])) if solved else 0.0,
                "primal_gap_l2dive": float(np.mean(l2)) if l2 else 0.0,
                "dive_solved_frac": len(solved) / max(len(rows), 1),
            },
        )


class TrainCover(Workload):
    name = "train-cover"
    why = ("train_from_corpus on set-cover: GNN forward/backward, message "
           "scatter and ADAM; the LP only solves the roots")
    entry = "train_from_corpus"
    family = "set-cover"
    offset = 3_000_000

    def setup(self, seed, d):
        s = self.sizes
        highs, chunks = {}, []
        for k in range(self.chunks):
            highs.update(self.instances(seed, d / f"instances{k}", s["count"],
                                        offset=10_000 * k))
            self.collect(d / f"instances{k}", d / f"corpus{k}", s["collect_nodes"])
            chunks.append(d / f"corpus{k}")
        return {"chunks": chunks, "highs": highs}

    def tasks(self, st, k):
        return corpus_size(st["chunks"][k])

    def call(self, st, k, out):
        out.mkdir(parents=True)
        return harness.train_from_corpus(
            st["chunks"][k], out / "model.npz",
            TrainingConfig(epochs=self.sizes["epochs"], seed=0), jobs=1)

    def outcome(self, st, k, out, result):
        _, hist = harness.read_csv_rows(result["history"])
        losses = np.array([[float(v) for v in row[1:]] for row in hist])
        errors = [] if np.all(np.isfinite(losses)) else ["non-finite training loss"]
        n = self.tasks(st, k)
        return Outcome(
            attempted=n, failed=n - result["n_examples"],
            counters={"examples": result["n_examples"], "best_epoch": result["best_epoch"]},
            quality={"train_loss_best": float(result["loss_best"])},
            errors=errors,
        )


class BnbAuction(Workload):
    name = "bnb-auction"
    why = ("eval_bnb on comb-auction (m=50) with none, fractional:10 and "
           "l2dive:20: small LPs, per-node overhead, divers inside B&B")
    entry = "eval_bnb"
    family = "comb-auction"
    offset = 4_000_000

    def setup(self, seed, d):
        s = self.sizes
        highs = self.instances(seed, d / "train", s["train_count"])
        self.collect(d / "train", d / "train_corpus", s["collect_nodes"])
        self.train(d / "train_corpus", d / "model.npz", s["epochs"])
        chunks = []
        for k in range(self.chunks):
            highs.update(self.instances(seed, d / f"test{k}", s["count"],
                                        offset=10_000 * (k + 1)))
            self.collect(d / f"test{k}", d / f"test_corpus{k}", s["collect_nodes"])
            chunks.append(d / f"test_corpus{k}")
        return {"chunks": chunks, "model": d / "model.npz", "highs": highs}

    def tasks(self, st, k):
        return corpus_size(st["chunks"][k]) * len(BNB_SPECS) * len(BNB_SEEDS)

    def call(self, st, k, out):
        return harness.eval_bnb(st["chunks"][k], harness.BnbEvalConfig(
            specs=BNB_SPECS, tick_limit=self.sizes["tick_limit"], seeds=BNB_SEEDS,
            jobs=1, model_path=str(st["model"])), out)

    def outcome(self, st, k, out, result):
        rows = result["rows"]
        # a run is repeated when another seed gave the same row
        distinct = {(r[0], r[1]) + tuple(r[3:]) for r in rows}
        return Outcome(
            attempted=len(rows), failed=self.tasks(st, k) - len(rows),
            counters={"nodes": sum(r[8] for r in rows), "ticks": sum(r[9] for r in rows),
                      "dives": sum(r[10] for r in rows)},
            quality={"pd_integral_mean": float(np.mean([r[3] for r in rows])),
                     "unique_run_frac": len(distinct) / max(len(rows), 1)},
        )


# Sizes: "full" for measurement, "smoke" for the seconds-long name check.
# One pass over all chunks takes about 5 s on a 2-core x86 VM with the numpy
# kernels, so a 20 s run makes about four.  Budgets keep the work of a pass
# nearly the same for every seed: tick limits for B&B, a depth budget for
# dives inside B&B, and depth and per-resolve iteration budgets for single
# dives.  Set cover runs at m=50 so that a pass covers 30 instances.
COVER = {"rows": 50, "cols": 100, "density": 0.1}
SIZES = {
    "collect-indep": {
        "full": {"chunks": 4, "count": 1, "node_limit": 100_000, "tick_limit": 700},
        "smoke": {"chunks": 2, "count": 1, "node_limit": 100_000, "tick_limit": 50,
                  "params": {"nodes": 30}},
    },
    "dive-cover": {
        "full": {"chunks": 6, "train_count": 6, "test_count": 5, "collect_nodes": 1,
                 "epochs": 3, "d_max": 5, "lp_iter_limit": 60, "params": COVER},
        "smoke": {"chunks": 2, "train_count": 2, "test_count": 1, "collect_nodes": 1,
                  "epochs": 1, "d_max": 5, "lp_iter_limit": 60,
                  "params": {"rows": 20, "cols": 40, "density": 0.1}},
    },
    "train-cover": {
        "full": {"chunks": 1, "count": 24, "collect_nodes": 1, "epochs": 30, "params": COVER},
        "smoke": {"chunks": 1, "count": 2, "collect_nodes": 1, "epochs": 2,
                  "params": {"rows": 20, "cols": 40, "density": 0.1}},
    },
    "bnb-auction": {
        "full": {"chunks": 6, "count": 1, "train_count": 4, "collect_nodes": 1, "epochs": 3,
                 "tick_limit": 300},
        "smoke": {"chunks": 2, "count": 1, "train_count": 1, "collect_nodes": 1, "epochs": 1,
                  "tick_limit": 60, "params": {"items": 10, "bids": 20}},
    },
}

WORKLOADS = {cls.name: cls for cls in (CollectIndep, DiveCover, TrainCover, BnbAuction)}


def make(name: str, smoke: bool = False) -> Workload:
    return WORKLOADS[name](SIZES[name]["smoke" if smoke else "full"])
