"""Command-line interface.

Commands: gen, collect, train, eval-dive, eval-bnb, tune, verify.
Every command exits 0 only when all requested work completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


def _default_jobs():
    return max(1, min(8, os.cpu_count() or 1))


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=_default_jobs())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="divekit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate benchmark instances")
    g.add_argument("--family", required=True,
                   choices=["set-cover", "comb-auction", "facility-location", "indep-set"])
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--param", action="append", default=[],
                   help="family size override, e.g. --param rows=50 (repeatable)")

    c = sub.add_parser("collect", help="solve instances and store solution pools")
    c.add_argument("--instances", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--node-limit", type=int, default=1200)
    c.add_argument("--tick-limit", type=float, default=None)
    c.add_argument("--pool-capacity", type=int, default=10)
    c.add_argument("--augment", default="auto",
                   choices=["auto", "pool", "top1", "enumerate"])
    c.add_argument("--jobs", type=int, default=_default_jobs())

    t = sub.add_parser("train", help="train the generative diving model")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="checkpoint path (.npz)")
    t.add_argument("--epochs", type=int, default=100)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--batch-size", type=int, default=16)
    t.add_argument("--temperature", type=float, default=None)
    t.add_argument("--hidden", type=int, default=64)
    t.add_argument("--val-fraction", type=float, default=0.2)
    _add_common(t)

    d = sub.add_parser("eval-dive", help="single-dive benchmark at a shared budget")
    d.add_argument("--corpus", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--divers", default="fractional,coefficient,linesearch,vectorlength,"
                                       "pseudocost,lower,upper,random")
    d.add_argument("--d-max", type=int, default=100)
    d.add_argument("--lp-iter-limit", type=int, default=None)
    d.add_argument("--model", default=None)
    _add_common(d)

    b = sub.add_parser("eval-bnb", help="branch-and-bound evaluation")
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--divers", default="",
                   help="comma list; each config 'name' or 'name:period[:offset]'; "
                        "empty for a no-diving run")
    b.add_argument("--tick-limit", type=float, default=200000.0)
    b.add_argument("--node-limit", type=int, default=100000)
    b.add_argument("--seeds", default="0,1,2")
    b.add_argument("--d-max", type=int, default=100)
    b.add_argument("--model", default=None)
    b.add_argument("--save-traces", action="store_true",
                   help="write one (t, primal_bound, dual_bound) CSV per run")
    _add_common(b)

    u = sub.add_parser("tune", help="random-search the diving ensemble")
    u.add_argument("--corpus", required=True)
    u.add_argument("--out", required=True, help="report path (.json)")
    u.add_argument("--divers", default="fractional,coefficient,linesearch,vectorlength,"
                                       "pseudocost,lower,upper,random")
    u.add_argument("--samples", type=int, default=8)
    u.add_argument("--objective", default="integral", choices=["integral", "ticks"])
    u.add_argument("--d-max", type=int, default=100)
    u.add_argument("--tick-limit", type=float, default=200000.0)
    u.add_argument("--node-limit", type=int, default=100000)
    u.add_argument("--seeds", default="0")
    u.add_argument("--model", default=None)
    _add_common(u)

    v = sub.add_parser("verify", help="run the LP-oracle and tighten-set suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--lp-count", type=int, default=200)
    v.add_argument("--tighten-count", type=int, default=100)

    return ap


def _parse_params(pairs):
    out = {}
    for p in pairs:
        key, _, val = p.partition("=")
        if not val:
            raise SystemExit(f"bad --param {p!r}; expected key=value")
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
        period = int(parts[1]) if len(parts) > 1 else None
        offset = int(parts[2]) if len(parts) > 2 else 0
        specs.append(BnbRunSpec(name=item, members=((name, period, offset),), d_max=d_max))
    return tuple(specs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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
