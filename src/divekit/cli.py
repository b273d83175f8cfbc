"""Command-line interface.

Commands: gen, collect, train, eval-dive, eval-bnb, tune, verify.
Every command exits 0 only when all requested work completed.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from .diving import check_model
from .graphnet import TrainingConfig
from .harness import (
    BnbEvalConfig,
    BnbRunSpec,
    CollectConfig,
    DiveEvalConfig,
    TuneConfig,
    collect_corpus,
    eval_bnb,
    eval_dives,
    generate_batch,
    run_verification,
    train_from_corpus,
    tune_ensemble,
)
from .instances import FAMILIES


def _default(fn, name):
    """The default of parameter ``name`` of ``fn``."""
    return inspect.signature(fn).parameters[name].default


def _default_jobs():
    return max(1, min(8, os.cpu_count() or 1))


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=_default_jobs())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="divekit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate benchmark instances")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--param", action="append", default=[],
                   help="family size override, e.g. --param rows=50 (repeatable)")

    c = sub.add_parser("collect", help="solve instances and store solution pools")
    c.add_argument("--instances", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--node-limit", type=int, default=CollectConfig.node_limit)
    c.add_argument("--tick-limit", type=float, default=CollectConfig.tick_limit)
    c.add_argument("--pool-capacity", type=int, default=CollectConfig.pool_capacity)
    c.add_argument("--augment", default=CollectConfig.augment,
                   choices=["auto", "pool", "top1", "enumerate"])
    c.add_argument("--jobs", type=int, default=_default_jobs())

    t = sub.add_parser("train", help="train the generative diving model")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="checkpoint path, written at exactly this name")
    t.add_argument("--epochs", type=int, default=TrainingConfig.epochs)
    t.add_argument("--lr", type=float, default=TrainingConfig.lr)
    t.add_argument("--batch-size", type=int, default=TrainingConfig.batch_size)
    t.add_argument("--temperature", type=float, default=TrainingConfig.temperature)
    t.add_argument("--hidden", type=int, default=_default(train_from_corpus, "hidden"))
    t.add_argument("--val-fraction", type=float,
                   default=_default(train_from_corpus, "val_fraction"))
    _add_common(t)

    d = sub.add_parser("eval-dive", help="single-dive benchmark at a shared budget")
    d.add_argument("--corpus", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--divers", default=",".join(DiveEvalConfig.divers))
    d.add_argument("--d-max", type=int, default=DiveEvalConfig.d_max)
    d.add_argument("--lp-iter-limit", type=int, default=DiveEvalConfig.lp_iter_limit)
    d.add_argument("--model", default=None)
    _add_common(d)

    # no abbreviations, so that --seed is not read as --seeds
    b = sub.add_parser("eval-bnb", help="branch-and-bound evaluation", allow_abbrev=False)
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--divers", default="",
                   help="comma list; each config 'name' or 'name:period[:offset]'; "
                        "empty for a no-diving run")
    b.add_argument("--tick-limit", type=float, default=BnbEvalConfig.tick_limit)
    b.add_argument("--node-limit", type=int, default=BnbEvalConfig.node_limit)
    b.add_argument("--seeds", default=",".join(map(str, BnbEvalConfig.seeds)))
    b.add_argument("--d-max", type=int, default=BnbRunSpec.d_max)
    b.add_argument("--model", default=None)
    b.add_argument("--save-traces", action="store_true",
                   help="write one (t, primal_bound, dual_bound) CSV per run")
    b.add_argument("--jobs", type=int, default=_default_jobs())

    u = sub.add_parser("tune", help="random-search the diving ensemble")
    u.add_argument("--corpus", required=True)
    u.add_argument("--out", required=True, help="report path (.json)")
    u.add_argument("--divers", default=",".join(TuneConfig.divers))
    u.add_argument("--samples", type=int, default=TuneConfig.samples)
    u.add_argument("--objective", default=TuneConfig.objective, choices=["integral", "ticks"])
    u.add_argument("--d-max", type=int, default=TuneConfig.d_max)
    u.add_argument("--tick-limit", type=float, default=BnbEvalConfig.tick_limit)
    u.add_argument("--node-limit", type=int, default=BnbEvalConfig.node_limit)
    u.add_argument("--seeds", default="0")
    u.add_argument("--model", default=None)
    _add_common(u)

    v = sub.add_parser("verify", help="run the LP-oracle and tighten-set suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--lp-count", type=int, default=_default(run_verification, "lp_count"))
    v.add_argument("--tighten-count", type=int,
                   default=_default(run_verification, "tighten_count"))

    return ap


def _parse_params(pairs):
    out = {}
    for p in pairs:
        key, _, val = p.partition("=")
        if not val:
            raise ValueError(f"bad --param {p!r}; expected key=value")
        try:
            out[key] = int(val)
        except ValueError:
            out[key] = float(val)
    return out


def _parse_bnb_specs(text, d_max):
    specs = [BnbRunSpec(name="no-diving", members=(), d_max=d_max)]
    for item in [s for s in text.split(",") if s]:
        parts = item.split(":")
        name = parts[0]
        try:
            period = int(parts[1]) if len(parts) > 1 else None
            offset = int(parts[2]) if len(parts) > 2 else 0
            specs.append(BnbRunSpec(name=item, members=((name, period, offset),), d_max=d_max))
        except ValueError as exc:
            raise ValueError(f"bad --divers entry {item!r}: {exc}") from None
    return tuple(specs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, TypeError, OSError) as exc:  # an OSError names its path
        raise SystemExit(f"{args.command}: {exc}") from None


def _run(args) -> int:
    """Run one command; each builds and checks its configs before any work."""
    if args.command == "gen":
        manifest = generate_batch(args.family, args.count, args.seed, args.out,
                                  _parse_params(args.param))
        print(f"wrote {manifest['count']} {args.family} instances to {args.out}")
        return 0

    if args.command == "collect":
        cfg = CollectConfig(
            node_limit=args.node_limit, tick_limit=args.tick_limit,
            pool_capacity=args.pool_capacity, augment=args.augment, jobs=args.jobs,
        )
        manifest = collect_corpus(args.instances, args.out, cfg)
        n_ok, n_skip = len(manifest["entries"]), len(manifest["skipped"])
        print(f"collected {n_ok} pools ({n_skip} skipped) into {args.out}")
        return 0 if n_ok > 0 else 1

    if args.command == "train":
        cfg = TrainingConfig(temperature=args.temperature, lr=args.lr,
                             epochs=args.epochs, batch_size=args.batch_size,
                             seed=args.seed)
        report = train_from_corpus(args.corpus, args.out, cfg,
                                   val_fraction=args.val_fraction,
                                   hidden=args.hidden, jobs=args.jobs)
        print(json.dumps({k: report[k] for k in
                          ("model", "best_epoch", "best_val", "temperature", "n_examples")},
                         default=float))
        return 0

    if args.command == "eval-dive":
        cfg = DiveEvalConfig(
            divers=tuple(args.divers.split(",")), d_max=args.d_max,
            lp_iter_limit=args.lp_iter_limit, seed=args.seed, jobs=args.jobs,
            model_path=args.model,
        )
        res = eval_dives(args.corpus, cfg, args.out)
        for row in res["summary_rows"]:
            print(f"{row[0]:>14s}  n={row[1]:<4d} solved={row[2]:<4d} failed={row[3]:<4d} "
                  f"mean gap={row[4]:.4f} (se {row[5]:.4f})")
        return 0

    if args.command == "eval-bnb":
        cfg = BnbEvalConfig(
            specs=_parse_bnb_specs(args.divers, args.d_max),
            tick_limit=args.tick_limit, node_limit=args.node_limit,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            jobs=args.jobs, model_path=args.model,
            save_traces=args.save_traces,
        )
        res = eval_bnb(args.corpus, cfg, args.out)
        for name, mean, stderr, wins in res["summary_rows"]:
            print(f"{name:>24s}  integral={mean:.1f} (se {stderr:.1f}) wins={wins}")
        return 0

    if args.command == "tune":
        tcfg = TuneConfig(divers=tuple(args.divers.split(",")), samples=args.samples,
                          seed=args.seed, objective=args.objective, d_max=args.d_max)
        check_model(tcfg.divers, args.model)
        ecfg = BnbEvalConfig(
            specs=(), tick_limit=args.tick_limit, node_limit=args.node_limit,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            jobs=args.jobs, model_path=args.model,
        )
        report = tune_ensemble(args.corpus, tcfg, ecfg, args.out)
        print(f"best: {report['best_name']} "
              f"(score {report['scores'][report['best_name']]:.2f}, "
              f"{report['solver_calls']} solver calls)")
        return 0

    if args.command == "verify":
        ok = run_verification(seed=args.seed, lp_count=args.lp_count,
                              tighten_count=args.tighten_count)
        return 0 if ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
