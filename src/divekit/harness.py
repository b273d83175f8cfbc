"""Benchmark harness: metrics, data collection, training, single-dive and
branch-and-bound evaluation, ensemble tuning, and the verification suites.

All table outputs are CSV files with a ``#``-prefixed metadata header
(seeds, package version, config hash) and deterministically ordered rows,
so identical seeds reproduce byte-identical files.  The progress clock is
the deterministic LP-iteration tick count from the solver, not wall time.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from . import __version__, simplex
from .bnb import OPTIMAL_PROVEN, SolveConfig, branch_and_bound, enumerate_optimal_face
from .diving import DEFAULT_DEPTH, HEURISTIC_DIVERS, SEEDED_SCORERS, TERM_LP_ERROR, dive
from .diving import DiveResult, check_diver_names, check_model, make_scorer
from .graphnet import (
    GraphNet,
    TrainExample,
    TrainingConfig,
    default_temperature,
    extract_graph,
    load_model,
    save_model,
    target_distribution,
    train_model,
)
from .instances import (
    FAMILIES,
    GeneratorConfig,
    generate,
    read_instance,
    to_standard_form,
    write_instance,
)
from .l2dive import verify_tightening_optimality
from .oracles import enumerate_basic_solutions, feasible_binary_points
from .simplex import SimplexError, check_complementary_slackness, dual_objective, solve_lp

SYMMETRIC_FAMILIES = ("set-cover", "indep-set")
FAILED_GAP = np.inf
#: the tuner's default diving period; sampled periods halve or double it
BASE_PERIOD = 20


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def primal_dual_gap(primal: float, dual: float) -> float:
    """Relative gap between an upper and a lower bound; the sentinel value 1
    covers missing/infinite bounds and bounds of differing sign."""
    if not np.isfinite(primal) or not np.isfinite(dual):
        return 1.0
    prod = primal * dual
    if not (0.0 < prod < np.inf):
        return 1.0
    return (primal - dual) / max(abs(primal), abs(dual))


def primal_dual_integral(points, horizon: float) -> float:
    """Integral of the piecewise-constant gap implied by trace ``points``
    (sorted (t, primal, dual) triples) from 0 to ``horizon``; before the
    first event the gap is 1."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    total = 0.0
    prev_t = 0.0
    gap = 1.0
    for t, p, d in points:
        t = float(t)
        if t >= horizon:
            break
        if t > prev_t:
            total += gap * (t - prev_t)
            prev_t = t
        gap = primal_dual_gap(p, d)
    total += gap * (horizon - prev_t)
    return total


def primal_gap(primal: float, reference: float) -> float:
    """Unnormalized difference to the reference objective."""
    return primal - reference


# ---------------------------------------------------------------------------
# deterministic file output
# ---------------------------------------------------------------------------

def config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, meta: dict, columns, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# divekit {__version__}\n")
        for key in sorted(meta):
            fh.write(f"# {key}: {meta[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv_rows(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    parsed = list(csv.reader(rows))
    return parsed[0], parsed[1:]


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def generate_batch(family: str, count: int, seed: int, out_dir,
                   params: dict | None = None) -> dict:
    """Write ``count`` instances with consecutive seeds plus a manifest."""
    if count < 1:
        raise ValueError("count must be >= 1")
    params = dict(params or {})
    # the seed is the only field that differs between the instances
    GeneratorConfig(family=family, seed=seed, **params).validate()
    out_dir = Path(out_dir)
    (out_dir / "instances").mkdir(parents=True, exist_ok=True)
    names = []
    for k in range(count):
        inst = generate(GeneratorConfig(family=family, seed=seed + k, **params))
        fname = f"{inst.name}.json"
        write_instance(inst, out_dir / "instances" / fname)
        names.append(fname)
    manifest = {
        "family": family,
        "seed": seed,
        "count": count,
        "params": params,
        "instances": names,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
        fh.write("\n")
    return manifest


def instance_paths(instances_dir) -> list[Path]:
    """The instance files its ``manifest.json`` lists under ``instances/``,
    or without a manifest the directory's JSON and MPS files, sorted."""
    p = Path(instances_dir)
    if p.is_dir():
        mf = p / "manifest.json"
        if mf.exists():
            manifest = json.loads(mf.read_text())
            return [p / "instances" / name for name in manifest["instances"]]
        return sorted([*p.glob("*.json"), *p.glob("*.mps")])
    raise FileNotFoundError(f"no instance directory {str(p)!r}")


def solve_root(path):
    """``(inst, lp, root)`` for the instance file ``path``: the instance, its
    standard form and its root LP solved cold at the LP's own bounds, or
    None for ``root`` when that solve raised.  Every command solves its
    roots here and hands them on."""
    inst = read_instance(path)
    lp = to_standard_form(inst)
    try:
        return inst, lp, solve_lp(lp)
    except SimplexError:
        return inst, lp, None


# ---------------------------------------------------------------------------
# data collection
# ---------------------------------------------------------------------------

@dataclass
class CollectConfig:
    node_limit: int = 1200
    tick_limit: float | None = None
    pool_capacity: int = 10
    augment: str = "auto"  # auto | pool | top1 | enumerate
    enum_node_limit: int = 20_000
    jobs: int = 1

    def __post_init__(self):
        SolveConfig(node_limit=self.node_limit, tick_limit=self.tick_limit,
                    pool_capacity=self.pool_capacity)  # refuses bad limits
        if self.augment not in ("auto", "pool", "top1", "enumerate"):
            raise ValueError(f"unknown augment mode {self.augment!r}")
        if self.augment == "enumerate" and self.enum_node_limit < 1:
            raise ValueError("enum_node_limit must be positive")


def _family_of(name: str) -> str:
    for fam in FAMILIES:
        if name.startswith(fam):
            return fam
    return "unknown"


def _collect_one(task):
    path, cfg = task
    inst, lp, root = solve_root(path)
    if root is None:
        return {"instance": str(path), "skip": "root_lp_error"}
    if root.status != simplex.OPTIMAL:
        return {"instance": str(path), "skip": f"root_{root.status}"}
    if inst.is_integral(root.x):
        return {"instance": str(path), "skip": "solved_at_root"}
    res = branch_and_bound(inst, SolveConfig(
        node_limit=cfg.node_limit, tick_limit=cfg.tick_limit,
        pool_capacity=cfg.pool_capacity,
    ), lp=lp, root_sol=root)
    if len(res.pool) == 0:
        return {"instance": str(path), "skip": "no_solution"}
    family = _family_of(inst.name)
    symmetric = family in SYMMETRIC_FAMILIES
    mode = cfg.augment
    if mode == "auto":
        mode = "pool" if symmetric else "top1"
    entries = []
    if mode == "enumerate" and res.status == OPTIMAL_PROVEN:
        enum = enumerate_optimal_face(inst, res.objective, SolveConfig(
            node_limit=cfg.enum_node_limit, pool_capacity=cfg.pool_capacity,
        ))
        entries = [(x, float(inst.c @ x)) for x in enum.points if inst.is_feasible(x)]
    if not entries:
        sols = res.pool.solutions()
        entries = sols if mode in ("pool", "enumerate") else sols[:1]
    z_ref = min(z for _, z in entries)
    return {
        "instance": str(path),
        "name": Path(path).stem,
        "family": family,
        "status": res.status,
        "z_ref": z_ref,
        "bound": float(res.bound),
        "nodes": res.nodes,
        "ticks": res.ticks,
        "pool": [{"z": float(z), "x": [float(v) for v in sx]} for sx, z in entries],
    }


def _pmap(fn, tasks, jobs):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    ctx = get_context("fork")
    with ctx.Pool(processes=jobs) as pool:
        return pool.map(fn, tasks, chunksize=1)


def collect_corpus(instances_dir, out_dir, cfg: CollectConfig) -> dict:
    """Solve every instance under the collection budget and store its
    solution pool; instances already integral at the root are dropped before
    any branch and bound, which is handed the root (``solve_root``), so each
    root LP is solved once.
    Pools and corpus entries are named after the instance file's stem, so two
    files with the same stem are refused."""
    paths = instance_paths(instances_dir)
    stems = {}
    for p in paths:
        if p.stem in stems:
            raise ValueError(f"instance files {stems[p.stem]} and {p} share the name "
                             f"{p.stem!r}; collect names each pool after its file")
        stems[p.stem] = p
    out_dir = Path(out_dir)
    (out_dir / "pools").mkdir(parents=True, exist_ok=True)
    results = _pmap(_collect_one, [(p, cfg) for p in paths], cfg.jobs)
    results.sort(key=lambda r: r["instance"])
    entries = []
    skipped = []
    for r in results:
        if "skip" in r:
            skipped.append({"instance": os.path.relpath(r["instance"], out_dir),
                            "reason": r["skip"]})
            continue
        pool_name = f"{r['name']}.pool.json"
        with open(out_dir / "pools" / pool_name, "w") as fh:
            json.dump({
                "name": r["name"], "z_ref": r["z_ref"], "status": r["status"],
                "bound": r["bound"], "entries": r["pool"],
            }, fh, sort_keys=True)
            fh.write("\n")
        entries.append({
            "instance": os.path.relpath(r["instance"], out_dir),
            "pool": f"pools/{pool_name}",
            "name": r["name"],
            "family": r["family"],
            "status": r["status"],
            "z_ref": r["z_ref"],
            "nodes": r["nodes"],
            "ticks": r["ticks"],
        })
    manifest = {
        "config": asdict(cfg),
        # the worker count does not change the pools, so it stays out of the hash
        "config_hash": config_hash({k: v for k, v in asdict(cfg).items() if k != "jobs"}),
        "entries": entries,
        "skipped": skipped,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def load_corpus(corpus_dir):
    corpus_dir = Path(corpus_dir)
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    out = []
    for e in manifest["entries"]:
        out.append({
            "instance_path": (corpus_dir / e["instance"]).resolve(),
            "pool_path": corpus_dir / e["pool"],
            "name": e["name"],
            "family": e["family"],
            "z_ref": float(e["z_ref"]),
        })
    return out


def load_pool_solutions(pool_path):
    doc = json.loads(Path(pool_path).read_text())
    return [(np.asarray(e["x"], dtype=np.float64), float(e["z"])) for e in doc["entries"]]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def _example_task(entry):
    inst, _, root = solve_root(entry["instance_path"])
    if root is None or root.status != simplex.OPTIMAL:
        return None
    graph = extract_graph(inst, root)
    sols = load_pool_solutions(entry["pool_path"])
    zs = [z for _, z in sols]
    spread = max(zs) - min(zs) if zs else 0.0
    return entry["name"], inst, graph, sols, spread, int(graph.cand_bits.max(initial=1))


def build_examples(corpus_entries, temperature=None, jobs=1):
    """Graphs plus target distributions for a corpus; the temperature
    defaults to the scale-aware corpus value and the head count is the
    widest candidate's."""
    raw = _pmap(_example_task, list(corpus_entries), jobs)
    raw = [r for r in raw if r is not None]
    raw.sort(key=lambda r: r[0])
    spreads = [r[4] for r in raw]
    tau = temperature if temperature is not None else default_temperature(spreads)
    bits = max((r[5] for r in raw), default=1)
    examples = []
    for name, inst, graph, sols, _, _ in raw:
        target = target_distribution(sols, inst, tau, n_bits=bits)
        examples.append(TrainExample(graph=graph, target=target))
    return examples, tau, bits


def train_from_corpus(corpus_dir, model_path, cfg: TrainingConfig | None = None,
                      val_fraction: float = 0.2, hidden: int = 64,
                      jobs: int = 1) -> dict:
    """Train a fresh model on a collected corpus; writes the checkpoint and,
    next to it, its loss history as ``<checkpoint>.history.csv``."""
    cfg = cfg or TrainingConfig()
    if hidden < 1 or not 0.0 <= val_fraction < 1.0:
        raise ValueError("hidden must be >= 1 and val_fraction in [0, 1)")
    Path(model_path).parent.mkdir(parents=True, exist_ok=True)
    entries = load_corpus(corpus_dir)
    examples, tau, bits = build_examples(entries, temperature=cfg.temperature, jobs=jobs)
    if not examples:
        raise ValueError(f"corpus {str(corpus_dir)!r} has no usable entries")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(examples))
    # keep one example out of validation, so training never validates on its own set
    n_val = min(int(round(val_fraction * len(examples))), len(examples) - 1)
    val = [examples[i] for i in order[:n_val]]
    tr = [examples[i] for i in order[n_val:]]
    model = GraphNet(hidden=hidden, n_bits=bits, seed=cfg.seed)
    result = train_model(model, tr, val or None, cfg)
    save_model(model, model_path)
    hist_path = Path(f"{model_path}.history.csv")
    meta = {
        "command": "train",
        "seed": cfg.seed,
        "temperature": tau,
        "n_bits": bits,
        "examples": len(examples),
        "config_hash": config_hash({"cfg": asdict(cfg), "val_fraction": val_fraction,
                                    "hidden": hidden}),
    }
    write_csv(hist_path, meta, ("epoch", "train_loss", "val_loss"), result.history)
    return {
        "model": str(model_path),
        "history": str(hist_path),
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "temperature": tau,
        "n_bits": bits,
        "n_examples": len(examples),
        "loss_first": result.history[0][1],
        "loss_best": result.best_val,
    }


# ---------------------------------------------------------------------------
# single-dive evaluation
# ---------------------------------------------------------------------------

@dataclass
class DiveEvalConfig:
    divers: tuple = HEURISTIC_DIVERS
    d_max: int = DEFAULT_DEPTH
    lp_iter_limit: int | None = None
    seed: int = 0
    jobs: int = 1
    model_path: str | None = None

    def __post_init__(self):
        check_diver_names(self.divers)
        if len(set(self.divers)) != len(self.divers):
            raise ValueError("duplicate diver names in one comparison table")
        if self.d_max < 0:
            raise ValueError("d_max must be >= 0")
        if self.lp_iter_limit is not None and self.lp_iter_limit < 0:
            raise ValueError("lp_iter_limit must be >= 0")
        check_model(self.divers, self.model_path)


def _eval_dive_one(task):
    entry, cfg, model = task
    inst, lp, root = solve_root(entry["instance_path"])
    rows = []
    for name in cfg.divers:
        if root is None:
            res = DiveResult(termination=TERM_LP_ERROR)
        else:
            scorer = make_scorer(name, seed=cfg.seed, model=model)
            res = dive(inst, scorer, d_max=cfg.d_max, lp_iter_limit=cfg.lp_iter_limit,
                       lp=lp, root_sol=root)
        failed = len(res.solutions) == 0
        gap = FAILED_GAP if failed else primal_gap(res.best_z, entry["z_ref"])
        rows.append((entry["name"], name, cfg.seed, gap, failed,
                     res.depth_reached, res.termination, res.lp_iterations,
                     np.inf if failed else res.best_z, entry["z_ref"]))
    return rows


DIVE_COLUMNS = ("instance", "diver", "seed", "primal_gap", "failed", "depth",
                "termination", "lp_iterations", "best_objective", "reference")


def eval_dives(corpus_dir, cfg: DiveEvalConfig, out_dir) -> dict:
    """One dive per instance and diver under a shared budget; reports the
    primal gap against the corpus reference objective."""
    entries = load_corpus(corpus_dir)
    model = load_model(cfg.model_path) if cfg.model_path and "l2dive" in cfg.divers else None
    tasks = [(e, cfg, model) for e in entries]
    all_rows = [r for rows in _pmap(_eval_dive_one, tasks, cfg.jobs) for r in rows]
    all_rows.sort(key=lambda r: (r[0], r[1]))
    meta = {
        "command": "eval-dive",
        "seed": cfg.seed,
        "d_max": cfg.d_max,
        "divers": ",".join(cfg.divers),
        # paths are volatile across reruns and stay out of the hash
        "config_hash": config_hash({"divers": list(cfg.divers), "d_max": cfg.d_max,
                                    "lp_iter_limit": cfg.lp_iter_limit, "seed": cfg.seed}),
    }
    out_dir = Path(out_dir)
    write_csv(out_dir / "dives_per_instance.csv", meta, DIVE_COLUMNS, all_rows)

    summary = []
    for name in sorted(set(cfg.divers)):
        rows = [r for r in all_rows if r[1] == name]
        gaps = np.array([r[3] for r in rows if not r[4]], dtype=np.float64)
        failed = sum(1 for r in rows if r[4])
        mean = float(gaps.mean()) if gaps.size else np.inf
        stderr = float(gaps.std(ddof=1) / np.sqrt(gaps.size)) if gaps.size > 1 else 0.0
        depth = float(np.mean([r[5] for r in rows])) if rows else 0.0
        summary.append((name, len(rows), len(rows) - failed, failed, mean, stderr, depth))
    write_csv(out_dir / "dives_summary.csv", meta,
              ("diver", "instances", "solved", "failed", "mean_primal_gap",
               "stderr", "mean_depth"), summary)
    return {
        "per_instance": str(out_dir / "dives_per_instance.csv"),
        "summary": str(out_dir / "dives_summary.csv"),
        "rows": all_rows,
        "summary_rows": summary,
    }


# ---------------------------------------------------------------------------
# branch-and-bound evaluation
# ---------------------------------------------------------------------------

@dataclass
class BnbRunSpec:
    name: str
    members: tuple = ()  # (diver_name, period, offset); period None = root only
    d_max: int = DEFAULT_DEPTH

    def __post_init__(self):
        check_diver_names(m[0] for m in self.members)
        if self.d_max < 0:
            raise ValueError("d_max must be >= 0")
        for name, period, offset in self.members:
            if not ((period is None or period >= 1) and 0 <= offset < (period or 1)):
                raise ValueError(f"diver {name!r}: period {period}, offset {offset} cannot run; "
                                 "a period is None (root only, offset 0) or >= 1 with an "
                                 "offset in [0, period)")

    def describe(self):
        return {"name": self.name, "members": list(map(list, self.members)),
                "d_max": self.d_max}


@dataclass
class BnbEvalConfig:
    specs: tuple
    tick_limit: float = 200_000.0
    node_limit: int = 100_000
    seeds: tuple = (0, 1, 2)
    jobs: int = 1
    model_path: str | None = None
    save_traces: bool = False

    def __post_init__(self):
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate config names in one comparison table")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds {list(self.seeds)} must be nonempty, with no seed repeated")
        SolveConfig(node_limit=self.node_limit, tick_limit=self.tick_limit)  # refuses bad limits
        check_model([m[0] for spec in self.specs for m in spec.members], self.model_path)


def _ensemble_hook(members, model, d_max, seed):
    """Diver callback, called at every node with a fractional LP point; it owns
    the schedule: every member dives at the root (call 0), and a member with
    period p and offset o also at the calls numbered o (mod p).  Each member's
    scorer is built once, so its state (pseudocosts, the random stream)
    lives for the whole branch-and-bound run."""
    counter = {"n": -1}
    scorers = [(make_scorer(name, seed=seed, model=model), period, offset)
               for name, period, offset in members]

    def hook(inst, lp, sol, lo, hi):
        counter["n"] += 1
        results = []
        for scorer, period, offset in scorers:
            at_root = counter["n"] == 0
            scheduled = period is not None and counter["n"] % period == offset
            if not (at_root or scheduled):
                continue
            results.append(dive(inst, scorer, d_max=d_max, lp=lp, root_sol=sol,
                                lower=lo, upper=hi))
        return results

    return hook


def _eval_bnb_entry(task):
    """Every run of ``runs`` on one corpus entry, from one read, one standard
    form and one root LP solve (None after a root solve that raised: each
    run then retries it).  The runs share one table of node LP solutions
    (``branch_and_bound``'s ``solved``), so a node LP that several runs
    reach is solved once; the table lives until the task returns.  A run's
    rows go under every seed of its group (more than one only for configs
    no seed can change); the rows come sorted by config, then seed, the
    order the win count averages them in."""
    entry, runs, cfg, model, trace_dir = task
    inst, lp, root = solve_root(entry["instance_path"])
    solved = {}
    rows = []
    for spec, seeds in runs:
        diver = _ensemble_hook(spec.members, model, spec.d_max, seeds[0]) if spec.members else None
        res = branch_and_bound(inst, SolveConfig(
            node_limit=cfg.node_limit, tick_limit=cfg.tick_limit, diver=diver,
        ), lp=lp, root_sol=root, solved=solved)
        safe = spec.name.replace(":", "_").replace("/", "_")
        integral = primal_dual_integral(res.trace.points, cfg.tick_limit)
        gap = primal_dual_gap(*res.trace.final())
        for seed in seeds:
            if trace_dir is not None:
                res.trace.to_csv(Path(trace_dir) / f"{entry['name']}_{safe}_s{seed}.csv")
            rows.append((entry["name"], spec.name, seed, integral, gap,
                         res.objective, res.bound, res.status, res.nodes, res.ticks, res.dives))
    return sorted(rows, key=lambda r: (r[1], r[2]))


def _run_seeds(spec, seeds):
    """Seed groups that each need one B&B run: one group per seed when a
    member diver reads the seed, otherwise a single group of all seeds."""
    if any(m[0] in SEEDED_SCORERS for m in spec.members):
        return [(s,) for s in seeds]
    return [tuple(seeds)]


BNB_COLUMNS = ("instance", "config", "seed", "pd_integral", "pd_gap_final",
               "objective", "bound", "status", "nodes", "ticks", "dives")


def eval_bnb(corpus_dir, cfg: BnbEvalConfig, out_dir) -> dict:
    entries = load_corpus(corpus_dir)
    trace_dir = None
    if cfg.save_traces:
        trace_dir = Path(out_dir) / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
    model = load_model(cfg.model_path) if cfg.model_path and any(
        m[0] == "l2dive" for spec in cfg.specs for m in spec.members) else None
    # One task per instance: it solves the root LP once and makes every run.
    runs = [(spec, seeds) for spec in cfg.specs for seeds in _run_seeds(spec, cfg.seeds)]
    tasks = [(e, runs, cfg, model, trace_dir) for e in entries] if runs else []
    per_entry = _pmap(_eval_bnb_entry, tasks, cfg.jobs)
    rows = sorted((r for rs in per_entry for r in rs), key=lambda r: (r[0], r[1], r[2]))
    meta = {
        "command": "eval-bnb",
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "tick_limit": cfg.tick_limit,
        "configs": json.dumps([s.describe() for s in cfg.specs], sort_keys=True),
        "config_hash": config_hash([s.describe() for s in cfg.specs]),
        "win_rule": "best mean pd_integral per instance; ties award a win to every tied config",
    }
    out_dir = Path(out_dir)
    write_csv(out_dir / "bnb_per_run.csv", meta, BNB_COLUMNS, rows)

    wins = {s.name: 0 for s in cfg.specs}
    for rs in per_entry:
        means = {s.name: float(np.mean([r[3] for r in rs if r[1] == s.name]))
                 for s in cfg.specs}
        best = min(means.values())
        for name, m in means.items():
            if m <= best + 1e-12:
                wins[name] += 1
    summary = []
    for s in cfg.specs:
        per_seed = {seed: [r[3] for r in rows if r[1] == s.name and r[2] == seed]
                    for seed in cfg.seeds}
        seed_means = np.array([np.mean(v) for v in per_seed.values() if v])
        mean = float(seed_means.mean()) if seed_means.size else np.inf
        stderr = float(seed_means.std(ddof=1) / np.sqrt(seed_means.size)) \
            if seed_means.size > 1 else 0.0
        summary.append((s.name, mean, stderr, wins[s.name]))
    write_csv(out_dir / "bnb_summary.csv", meta,
              ("config", "mean_pd_integral", "stderr_over_seeds", "wins"), summary)
    return {
        "per_run": str(out_dir / "bnb_per_run.csv"),
        "summary": str(out_dir / "bnb_summary.csv"),
        "rows": rows,
        "summary_rows": summary,
        "runs": len(tasks) * len(runs),
    }


# ---------------------------------------------------------------------------
# ensemble tuning (random search over diver schedules)
# ---------------------------------------------------------------------------

@dataclass
class TuneConfig:
    divers: tuple = HEURISTIC_DIVERS
    samples: int = 8
    seed: int = 0
    objective: str = "integral"  # or "ticks" (work to best solution)
    d_max: int = DEFAULT_DEPTH

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if self.objective not in ("integral", "ticks"):
            raise ValueError(f"unknown tune objective {self.objective!r}")
        check_diver_names(self.divers)


def sample_ensemble(rng, cfg: TuneConfig):
    """Per diver: frequency off / doubled / default / halved with equal
    probability, and offset 0 or half a period with equal probability."""
    members = []
    for name in cfg.divers:
        choice = rng.integers(0, 4)
        if choice == 0:
            continue  # off
        period = {1: BASE_PERIOD // 2, 2: BASE_PERIOD, 3: BASE_PERIOD * 2}[int(choice)]
        offset = int(rng.integers(0, 2)) * (period // 2)
        members.append((name, period, offset))
    return tuple(members)


def tune_ensemble(corpus_dir, tune_cfg: TuneConfig, eval_cfg: BnbEvalConfig,
                  out_path) -> dict:
    """Uniform random search over diver schedules, evaluated on the full
    validation corpus; returns the sampled configuration only if it beats
    the default ensemble.  The run tables go to ``<report stem>_runs/``
    next to the report."""
    rng = np.random.default_rng(tune_cfg.seed)
    default_members = tuple((name, BASE_PERIOD, 0) for name in tune_cfg.divers)
    specs = [BnbRunSpec(name="default", members=default_members, d_max=tune_cfg.d_max)]
    for k in range(tune_cfg.samples):
        specs.append(BnbRunSpec(name=f"sample_{k}", members=sample_ensemble(rng, tune_cfg),
                                d_max=tune_cfg.d_max))
    cfg = replace(eval_cfg, specs=tuple(specs), save_traces=False)
    # per report, so reports that share a directory keep their own tables
    out_path = Path(out_path)
    result = eval_bnb(corpus_dir, cfg, out_path.with_name(f"{out_path.stem}_runs"))
    if tune_cfg.objective == "ticks":
        # work to completion, censored at the tick limit for unproven runs
        scores = {}
        for s in specs:
            vals = [r[9] if r[7] == OPTIMAL_PROVEN else cfg.tick_limit
                    for r in result["rows"] if r[1] == s.name]
            scores[s.name] = float(np.mean(vals)) if vals else np.inf
    else:
        scores = {name: mean for name, mean, _, _ in result["summary_rows"]}
    best_name = min(sorted(scores), key=lambda n: scores[n])
    if scores[best_name] >= scores["default"]:
        best_name = "default"
    best_spec = next(s for s in specs if s.name == best_name)
    report = {
        "best": best_spec.describe(),
        "best_name": best_name,
        "objective": tune_cfg.objective,
        "scores": {k: scores[k] for k in sorted(scores)},
        "solver_calls": result["runs"],
        "samples": tune_cfg.samples,
        "seed": tune_cfg.seed,
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# verification suites (the `verify` command)
# ---------------------------------------------------------------------------

def random_bounded_lp(rng):
    """Random LP with finite bounds and at most 6 rows, sized so that
    basic-solution enumeration of its equality form stays cheap; roughly
    half the draws are all-equality instances and a fifth are shifted into
    infeasibility."""
    m = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        n = int(rng.integers(m + 1, 11))
        senses = [2] * m  # all equality rows
    else:
        n = int(rng.integers(m + 1, max(m + 2, 12 - m + 1)))
        senses = [int(rng.integers(0, 3)) for _ in range(m)]
    A = rng.normal(size=(m, n)).round(3)
    x0 = rng.uniform(0.0, 2.0, size=n).round(3)
    slack_room = np.array([0.3 if s == 0 else (-0.3 if s == 1 else 0.0) for s in senses])
    b = (A @ x0 + slack_room).round(3)
    if rng.random() < 0.2:
        b = (b + rng.uniform(5.0, 10.0, size=m)).round(3)  # often infeasible
    c = rng.normal(size=n).round(3)
    lb = np.zeros(n)
    ub = np.full(n, round(float(rng.uniform(2.0, 4.0)), 3))
    return A, senses, b, c, lb, ub


def lp_oracle_suite(count=200, seed=0) -> dict:
    """Simplex vs exhaustive basic-solution enumeration, plus the duality
    invariants, on random bounded LPs."""
    from .instances import make_instance

    rng = np.random.default_rng(seed)
    failures = []
    max_gap = 0.0
    max_cs = 0.0
    max_dual_resid = 0.0
    n_opt = 0
    for trial in range(count):
        A, senses, b, c, lb, ub = random_bounded_lp(rng)
        m, n = A.shape
        inst = make_instance(
            f"lp{trial}", c=c,
            rows=[(i, j, A[i, j]) for i in range(m) for j in range(n) if A[i, j] != 0.0],
            senses=senses,
            b=b, lb=lb, ub=ub, integer=[],
        )
        lp = to_standard_form(inst)
        # the oracle gets only the movable columns (a column fixed at zero
        # adds nothing but work) and finite slack bounds: any value above the
        # largest attainable |slack| keeps the feasible region unchanged
        keep = lp.lb < lp.ub
        A_keep = lp.dense()[:, keep]
        slack_hi = (np.abs(A_keep).sum(axis=1).max() * float(np.max(np.abs(ub)))
                    + float(np.max(np.abs(b), initial=0.0)) + 10.0)
        o_ub = np.where(np.isfinite(lp.ub[keep]), lp.ub[keep], slack_hi)
        status, z_ref, _ = enumerate_basic_solutions(A_keep, lp.b, lp.c[keep], lp.lb[keep], o_ub)
        sol = solve_lp(lp)
        if status == "infeasible":
            if sol.status != simplex.INFEASIBLE:
                failures.append((trial, "expected infeasible", sol.status))
            continue
        n_opt += 1
        if sol.status != simplex.OPTIMAL:
            failures.append((trial, "expected optimal", sol.status))
            continue
        if abs(sol.objective - z_ref) > 1e-6 * (1 + abs(z_ref)):
            failures.append((trial, "objective mismatch", sol.objective, z_ref))
            continue
        gap = abs(sol.objective - dual_objective(sol.duals, lp)) / (1 + abs(sol.objective))
        cs = check_complementary_slackness(sol.x, sol.duals, lp, tol=1e-8)
        resid = float(np.max(np.abs(
            lp.dense().T @ sol.duals.y_b + sol.duals.y_lb + sol.duals.y_ub - lp.c
        )))
        max_gap = max(max_gap, gap)
        max_cs = max(max_cs, cs["max_violation"])
        max_dual_resid = max(max_dual_resid, resid)
        if gap > 1e-8 or not cs["holds"] or resid > 1e-8:
            failures.append((trial, "duality", gap, cs["max_violation"], resid))
    return {
        "count": count,
        "optimal": n_opt,
        "failures": failures,
        "max_scaled_gap": max_gap,
        "max_cs_violation": max_cs,
        "max_dual_residual": max_dual_resid,
        "ok": not failures,
    }


def small_binary_instance(rng):
    fam = ["set-cover", "indep-set", "comb-auction"][int(rng.integers(0, 3))]
    seed = int(rng.integers(0, 2 ** 31))
    if fam == "set-cover":
        cfg = GeneratorConfig(fam, seed=seed, rows=6, cols=10, density=0.3)
    elif fam == "indep-set":
        cfg = GeneratorConfig(fam, seed=seed, nodes=10, affinity=2)
    else:
        cfg = GeneratorConfig(fam, seed=seed, items=7, bids=11)
    return generate(cfg)


def tighten_set_suite(count=100, seed=0) -> dict:
    """Tightening the slackness-violation set of an enumerated feasible
    point must make it LP-optimal, on every sampled pair."""
    rng = np.random.default_rng(seed)
    checked = 0
    failures = []
    while checked < count:
        inst = small_binary_instance(rng)
        feas = feasible_binary_points(inst)
        if feas.shape[0] == 0:
            continue
        take = min(10, count - checked, feas.shape[0])
        picks = rng.choice(feas.shape[0], size=take, replace=False)
        for k in picks:
            rep = verify_tightening_optimality(inst, feas[k])
            checked += 1
            if not rep["holds"]:
                failures.append((inst.name, feas[k].tolist(), rep))
    return {"count": checked, "failures": failures, "ok": not failures}


def run_verification(seed=0, lp_count=200, tighten_count=100) -> bool:
    """Run both suites and print their verdicts; True when both pass."""
    lp_rep = lp_oracle_suite(count=lp_count, seed=seed)
    tighten_rep = tighten_set_suite(count=tighten_count, seed=seed)
    print(f"lp-oracle: {'PASS' if lp_rep['ok'] else 'FAIL'} "
          f"({lp_rep['count']} LPs, max scaled gap {lp_rep['max_scaled_gap']:.2e}, "
          f"max slackness violation {lp_rep['max_cs_violation']:.2e})")
    print(f"tighten-set optimality: {'PASS' if tighten_rep['ok'] else 'FAIL'} "
          f"({tighten_rep['count']} pairs)")
    for f in (lp_rep["failures"] + tighten_rep["failures"])[:10]:
        print("  failure:", f)
    return lp_rep["ok"] and tighten_rep["ok"]
