"""Command line front end.

Four subcommands: ``run`` sweeps the censoring benchmark over a CSV
dataset, ``train`` fits a single tree and can dump it as JSON,
``predict`` applies a dumped tree to new rows, ``bias`` runs the
leaf-estimate bias simulation. All of them exit 0 on success and
nonzero with a message on stderr for configuration or input problems.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import ExperimentConfig, default_q_grid, emit_csv, run_experiment
from .bias import BiasScenario, emit_bias_csv, run_bias
from .censor import SCENARIOS
from .data import (
    CATEGORICAL,
    CLASSIFICATION,
    DEFAULT_MISSING_TOKENS,
    REAL,
    Dataset,
    FeatureColumn,
    NantreeError,
    ParseError,
    ResponseColumn,
    Schema,
    load_csv,
    parse_numeric,
    read_schema_file,
)
from .split import Strategy
from .tree import TrainConfig, deserialize, predict, render, serialize, train


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    out = []
    for token in text.split(","):
        token = token.strip().lower().replace("-", "_")
        if not token:
            continue
        try:
            out.append(Strategy(token))
        except ValueError:
            valid = ", ".join(s.value for s in Strategy)
            raise NantreeError(f"unknown strategy {token!r} (valid: {valid})") from None
    if not out:
        raise NantreeError("no strategies given")
    return tuple(out)


def _parse_q_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ("0,0.3,0.5") or a start:stop:step range with
    inclusive endpoints ("0:0.9:0.1")."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise NantreeError(f"bad q grid {text!r}, expected start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise NantreeError(f"bad q grid {text!r}")
        n = int(round((stop - start) / step))
        return tuple(round(start + i * step, 10) for i in range(n + 1))
    return tuple(round(float(p), 10) for p in text.split(","))


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


def _load_for_tree(path: str, tree) -> Dataset:
    """Read prediction input shaped by the tree's own feature spec.

    The response column is not needed and is ignored if present;
    category names the tree never saw in training map to missing.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        rows = [r for r in reader if r]
    index = {}
    for i, name in enumerate(header):
        if name in index:
            raise ParseError(f"{path}: duplicate column {name!r}")
        index[name] = i
    columns = []
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        if name not in index:
            raise ParseError(f"{path}: tree needs column {name!r}, not present")
        col = index[name]
        cells = []
        for r, row in enumerate(rows):
            if len(row) != len(header):
                raise ParseError(f"{path}: row {r + 2} has {len(row)} cells, header has {len(header)}")
            cells.append(row[col])
        if kind == CATEGORICAL:
            cats = tree.categories.get(j, ())
            code_of = {c: i for i, c in enumerate(cats)}
            values = np.array(
                [-1 if c in DEFAULT_MISSING_TOKENS else code_of.get(c, -1) for c in cells],
                dtype=np.int64,
            )
            columns.append(FeatureColumn(name, kind, values, cats))
        else:
            values = np.array(
                [np.nan if c in DEFAULT_MISSING_TOKENS else parse_numeric(c, r + 2, name)
                 for r, c in enumerate(cells)],
                dtype=np.float64,
            )
            columns.append(FeatureColumn(name, kind, values))
    dummy = ResponseColumn(REAL, np.zeros(len(rows)))
    return Dataset(tuple(columns), dummy)


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
                   help="censoring levels, as start:stop:step or a comma list")
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
    ds = load_csv(args.data, schema)
    name = os.path.splitext(os.path.basename(args.data))[0]
    cfg = ExperimentConfig(
        datasets=((name, ds),),
        strategies=_parse_strategies(args.strategies),
        scenario=args.scenario,
        q_grid=_parse_q_grid(args.q_grid) if args.q_grid else default_q_grid(),
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
    schema = _schema_from_args(args)
    ds = load_csv(args.data, schema)
    strategy = _parse_strategies(args.strategy)[0]
    tree = train(ds, TrainConfig(strategy, max_depth=args.depth, min_samples=args.min_samples))
    print(render(tree))
    if args.dump_tree:
        with open(args.dump_tree, "w", encoding="utf-8") as fh:
            fh.write(serialize(tree))
        print(f"wrote tree to {args.dump_tree}")
    return 0


def _cmd_predict(args) -> int:
    with open(args.tree, "r", encoding="utf-8") as fh:
        tree = deserialize(fh.read())
    ds = _load_for_tree(args.data, tree)
    preds = predict(tree, ds)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if tree.loss.is_classification:
            labels = tree.response_labels
            writer.writerow(["prediction"] + [f"p_{l}" for l in labels])
            for row in preds:
                writer.writerow([labels[int(row.argmax())]] + [repr(float(p)) for p in row])
        else:
            writer.writerow(["prediction"])
            for v in preds:
                writer.writerow([repr(float(v))])
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
    except NantreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
