"""Command line front end.

Four subcommands: ``run`` sweeps the censoring benchmark over a CSV
dataset, ``train`` fits a single tree and can dump it as JSON,
``predict`` applies a dumped tree to new rows, ``bias`` runs the
leaf-estimate bias simulation. All of them exit 0 on success and
nonzero with a message on stderr for configuration or input problems.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .bench import ExperimentConfig, emit_csv, run_experiment
from .bias import BiasScenario, emit_bias_csv, run_bias
from .censor import SCENARIOS
from .data import NantreeError, Schema, load_csv, load_features, read_schema_file, write_columns
from .split import Strategy, check_strategy
from .tree import TrainConfig, TreeFormatError, deserialize, predict, render, serialize, train


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().lower().replace("-", "_")
        if not token:
            continue
        try:
            out.append(Strategy(token))
        except ValueError:
            check_strategy(token)  # raises, naming the valid strategies
    if not out:
        raise NantreeError("no strategies given")
    return tuple(out)


#: A start:stop:step range may give at most this many levels; the count is
#: checked before any level is built.
MAX_RANGE_LEVELS = 1000


def _parse_q_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ("0,0.3,0.5") or a start:stop:step range with
    inclusive endpoints ("0:0.9:0.1"); a range has no level above ``stop``
    and keeps ``stop`` when it lies on the grid within rounding."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise NantreeError(f"bad q grid {text!r}, expected start:stop:step")
        start, stop, step = (_q_number(p, text) for p in parts)
        if step <= 0 or stop < start:
            raise NantreeError(f"bad q grid {text!r}")
        last = (stop - start) / step + 1e-9  # the last level's index; inf for a tiny step
        if last >= MAX_RANGE_LEVELS:
            raise NantreeError(f"bad q grid {text!r}: a range gives at most {MAX_RANGE_LEVELS} levels")
        return tuple(round(start + i * step, 10) for i in range(math.floor(last) + 1))
    return tuple(round(_q_number(p, text), 10) for p in text.split(","))


def _q_number(token: str, text: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    raise NantreeError(f"bad q grid {text!r}: {token.strip()!r} is not a finite number")


def _schema_from_args(args) -> Schema:
    if args.schema:
        schema = read_schema_file(args.schema)
        if args.target:
            schema = replace(schema, target=args.target)
        if args.task:
            schema = replace(schema, task=args.task)
        return schema
    if not args.target:
        raise NantreeError("either --schema or --target is required")
    return Schema(target=args.target, task=args.task or "regression")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV with a header row")
    p.add_argument("--schema", help="JSON sidecar naming the target and column kinds")
    p.add_argument("--target", help="response column name (overrides the schema file)")
    p.add_argument("--task", choices=["regression", "classification"],
                   help="learning task (overrides the schema file)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nantree",
                                     description="decision trees with explicit missing-value handling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="cross-validated censoring benchmark")
    _add_data_args(p)
    p.add_argument("--strategies", default=",".join(s.value for s in Strategy),
                   help="comma list; hyphens and underscores are interchangeable")
    p.add_argument("--scenario", default="mcar", choices=list(SCENARIOS))
    p.add_argument("--q-grid", default="0:0.9:0.1",
                   help=f"censoring levels, as start:stop:step (at most {MAX_RANGE_LEVELS} levels) "
                        "or a comma list")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--max-depth", type=int, default=5,
                   help="largest depth tried when tuning the tree depth")
    p.add_argument("--min-samples", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="fit one tree on the full dataset")
    _add_data_args(p)
    p.add_argument("--strategy", default="majority")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--min-samples", type=int, default=5)
    p.add_argument("--dump-tree", help="write the fitted tree as JSON to this path")

    p = sub.add_parser("predict", help="apply a dumped tree to new rows")
    p.add_argument("--tree", required=True, help="tree JSON written by train --dump-tree")
    p.add_argument("--data", required=True, help="CSV with the tree's feature columns")
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("bias", help="Monte Carlo leaf-estimate bias demo")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=0.3)
    p.add_argument("--sigma", type=float, default=0.1)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="optional output CSV path")
    return parser


def _cmd_run(args) -> int:
    schema = _schema_from_args(args)
    strategies = _parse_strategies(args.strategies)
    q_grid = _parse_q_grid(args.q_grid)
    ds = load_csv(args.data, schema)
    name = os.path.splitext(os.path.basename(args.data))[0]
    cfg = ExperimentConfig(
        datasets=((name, ds),),
        strategies=strategies,
        scenario=args.scenario,
        q_grid=q_grid,
        folds=args.folds,
        depth_grid_max=args.max_depth,
        min_samples=args.min_samples,
        seed=args.seed,
    )
    records = run_experiment(cfg)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_train(args) -> int:
    strategies = _parse_strategies(args.strategy)
    if len(strategies) != 1:
        raise NantreeError(f"train takes one strategy, not {len(strategies)} ({args.strategy!r})")
    schema = _schema_from_args(args)
    ds = load_csv(args.data, schema)
    tree = train(ds, TrainConfig(strategies[0], max_depth=args.depth, min_samples=args.min_samples))
    print(render(tree))
    if args.dump_tree:
        with open(args.dump_tree, "w", encoding="utf-8") as fh:
            fh.write(serialize(tree))
        print(f"wrote tree to {args.dump_tree}")
    return 0


def _cmd_predict(args) -> int:
    try:
        with open(args.tree, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TreeFormatError(f"{args.tree}: not valid UTF-8 text ({exc.reason})") from None
    tree = deserialize(text)
    ds = load_features(args.data, tree.feature_names, tree.feature_kinds, tree.categories)
    preds = predict(tree, ds)
    if tree.loss.is_classification:
        # a document may omit the labels; class indices stand in for them
        labels = tree.response_labels or tuple(map(str, range(tree.loss.n_classes)))
        header = ["prediction"] + [f"p_{label}" for label in labels]
        columns = [list(map(labels.__getitem__, preds.argmax(axis=1).tolist()))]
        columns += [list(map(repr, probs)) for probs in preds.T.tolist()]
    else:
        header, columns = ["prediction"], [list(map(repr, preds.tolist()))]
    write_columns(args.out, header, columns)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


def _cmd_bias(args) -> int:
    sc = BiasScenario(a=args.a, b=args.b, p=args.p, q=args.q, sigma=args.sigma,
                      n_samples=args.n, replications=args.reps, seed=args.seed)
    results = run_bias(sc)
    print(f"{'strategy':<12} {'mean_a_hat':>12} {'se':>10} {'kappa_hat':>10} {'bound':>10}")
    for r in results:
        kappa = f"{r.kappa_hat:.4f}" if r.kappa_hat is not None else "-"
        print(f"{r.strategy:<12} {r.mean_a_hat:>12.6f} {r.se_a_hat:>10.6f} {kappa:>10} {r.bound:>10.6f}")
    if args.out:
        emit_bias_csv(results, args.out)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {"run": _cmd_run, "train": _cmd_train, "predict": _cmd_predict, "bias": _cmd_bias}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (NantreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
