"""Censoring benchmark: depth tuning, cross-validated sweeps, CSV output.

The protocol per dataset: fix a fold assignment, tune the tree depth once
on the fully observed data, compute the full-data test loss L0 per
strategy and fold, then for each censoring level q train on the censored
training folds and evaluate on the (possibly censored) test folds. The
reported excess loss is L_q / L0 - 1, so 0 means "as good as with
complete data". Everything except wall time is deterministic in the
config seed.

Each distinct tree is grown once. Depth tuning grows one majority tree
per fold at the largest depth and scores every smaller depth on its
truncation (:func:`nantree.tree.truncate`, a cut that refits nothing),
which is the tree growth would give at that depth. The sweep then walks
folds, levels q (q = 0 first) and strategies in that order, so each
(q, fold) pair is censored once for all strategies. Trees are kept per
fold and strategy for as long as censoring hands back the very training
``Dataset`` they were grown on (``mcar_test`` always does, as it censors
only the test side); a new training set drops them. On a training set
with no missing cell every strategy makes the same splits, and only the
missing routes and trinary's middle children differ, so one source tree
is grown there (trinary when a trinary strategy is swept, else majority)
and each strategy's tree is its projection (:func:`nantree.tree.project`):
the source itself for the trinary strategies, the source without middle
children and with the majority or fractional route for the others. A
record's ``wall_ms`` is its task's training plus evaluation time
(evaluation only for a reused tree, projection and evaluation for a
projected one), and its in-memory ``train_ms`` is the growth part: on a
complete training set, the first task that needs the source records its
growth, the others 0.0.

Folds are independent, so depth tuning and each dataset's sweep run their
folds across the usable CPUs through :func:`nantree.parallel.fork_map`,
the caller running a share and forked workers the rest; the trees grown
inside a fold grow in the process that runs it. The records are those of
a one-process run; ``wall_ms`` times each task in whichever process ran it.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .censor import SCENARIOS, CensorSpec, apply_scenario
from .data import (Dataset, FoldAssignment, ParseError, ValidationError, check_seed, read_rows,
                   stratified_kfold, write_columns)
from .parallel import fork_map
from .split import Strategy, check_strategy
from .tree import TrainConfig, Tree, evaluate, project, train, truncate

CSV_HEADER = ("dataset", "strategy", "scenario", "q", "fold", "loss", "excess_loss", "depth", "wall_ms")

#: fold index used for the per-(strategy, q) aggregate rows
AGGREGATE_FOLD = -1

ALL_STRATEGIES = tuple(Strategy)


def default_q_grid() -> tuple[float, ...]:
    return tuple(round(0.1 * i, 10) for i in range(10))


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[tuple[str, Dataset], ...]
    strategies: tuple[Strategy, ...] = ALL_STRATEGIES
    scenario: str = "mcar"
    q_grid: tuple[float, ...] = default_q_grid()
    folds: int = 10
    depth_grid_max: int = 5
    min_samples: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        if not self.datasets:
            raise ValidationError("no datasets configured")
        if len({name for name, _ in self.datasets}) != len(self.datasets):
            raise ValidationError("dataset names must not repeat")
        for name, _ in self.datasets:
            try:
                name.encode("utf-8")  # the records carry it, so check before the sweep
            except UnicodeEncodeError:
                raise ValidationError(f"dataset name {name!r} is not UTF-8 text") from None
        if self.depth_grid_max < 1:
            raise ValidationError("depth grid must reach at least 1")
        if self.folds < 2:
            raise ValidationError("cross-validation needs at least 2 folds")
        if self.min_samples < 1:
            raise ValidationError("min_samples must be at least 1")
        if not self.strategies:
            raise ValidationError("no strategies configured")
        for strategy in self.strategies:
            check_strategy(strategy)
        if len(set(self.strategies)) != len(self.strategies):
            raise ValidationError("strategies must not repeat")
        if not self.q_grid:
            raise ValidationError("no censoring levels configured")
        if len(set(self.q_grid)) != len(self.q_grid):
            raise ValidationError("censoring levels must not repeat")
        for q in self.q_grid:
            if not 0.0 <= q <= 0.9:
                raise ValidationError("censoring levels must lie in [0, 0.9]")
        check_seed(self.seed)


@dataclass(frozen=True)
class ExperimentRecord:
    dataset: str
    strategy: str
    scenario: str
    q: float
    fold: int
    loss: float
    excess_loss: float
    depth: int
    wall_ms: float
    misclass: float | None = None  # in-memory diagnostic, not part of the CSV
    train_ms: float = 0.0  # in-memory: the growth part of wall_ms, 0.0 for a reused or projected tree


def _fold_seed(seed: int, ds_index: int) -> int:
    return int(np.random.SeedSequence([seed, 100, ds_index]).generate_state(1)[0])


def _task_seed(seed: int, ds_index: int, scenario: str, q: float, fold: int) -> int:
    scen_code = SCENARIOS.index(scenario)
    return int(
        np.random.SeedSequence(
            [seed, 200, ds_index, scen_code, int(round(q * 1000)), fold]
        ).generate_state(1)[0]
    )


def _folds_for(ds: Dataset, cfg: ExperimentConfig, ds_index: int) -> FoldAssignment:
    return stratified_kfold(ds, cfg.folds, _fold_seed(cfg.seed, ds_index))


def _tune_fold(ds: Dataset, cfg: ExperimentConfig, folds: FoldAssignment, f: int) -> list[float]:
    """Fold f's test loss at each depth 1..depth_grid_max, from one majority tree grown at the largest."""
    train_ds = ds.subset(folds.train_rows(f))
    test_ds = ds.subset(folds.test_rows(f))
    deepest = train(train_ds, TrainConfig(Strategy.MAJORITY, cfg.depth_grid_max, cfg.min_samples))
    return [evaluate(truncate(deepest, depth), test_ds)[0] for depth in range(1, cfg.depth_grid_max + 1)]


def tune_depth(ds: Dataset, cfg: ExperimentConfig, ds_index: int = 0) -> int:
    """Pick a tree depth by k-fold cross-validation on the full data.

    Depths 1..depth_grid_max are scored with the majority strategy, and
    the winner serves every strategy: on complete data all strategies'
    split objectives coincide, though their trees still differ in where
    missing values go. The smallest depth wins ties.
    Each fold grows one tree at depth_grid_max and scores depth d on its
    cut at d, which refits nothing and equals the tree grown at depth d,
    so the fold losses are those of growing every depth separately.
    """
    folds = _folds_for(ds, cfg, ds_index)
    totals = [0.0] * cfg.depth_grid_max
    for losses in fork_map(lambda f: _tune_fold(ds, cfg, folds, f), cfg.folds):
        for depth, loss in enumerate(losses, start=1):
            totals[depth - 1] += loss
    best_depth, best_loss = None, None
    for depth, total in enumerate(totals, start=1):
        if best_loss is None or total < best_loss:
            best_depth, best_loss = depth, total
    return best_depth


def _sweep_fold(ds: Dataset, cfg: ExperimentConfig, folds: FoldAssignment, f: int, ds_index: int,
                depth: int) -> list:
    """Fold f's ((strategy, q), (loss, misclass, wall_ms, train_ms)) runs, in sweep order."""
    tr, te = ds.subset(folds.train_rows(f)), ds.subset(folds.test_rows(f))
    # q = 0 first: censoring at q = 0 is the identity, so its tree gives the
    # full-data reference loss and is the tree later levels may reuse
    levels = (0.0,) + tuple(q for q in cfg.q_grid if q != 0.0)
    # the tree grown on a complete training set, which every strategy's tree there projects
    source_strategy = (Strategy.TRINARY if {Strategy.TRINARY, Strategy.TRINARY_MIA} & set(cfg.strategies)
                       else Strategy.MAJORITY)
    runs = []
    # trees on the training set ``grown_on`` by strategy, and the
    # source tree when that set has no missing cell
    trees: dict[Strategy, Tree] = {}
    grown_on = source = None
    for q in levels:
        spec = CensorSpec(cfg.scenario, q, _task_seed(cfg.seed, ds_index, cfg.scenario, q, f))
        ctr, cte = apply_scenario(tr, te, spec)
        if ctr is not grown_on:
            trees.clear()
            grown_on, source = ctr, None
            complete = all(c.present_mask().all() for c in ctr.columns)
        for strategy in cfg.strategies:
            t0 = time.perf_counter()
            train_ms = 0.0
            tree = trees.get(strategy)
            if tree is None and not complete:
                tree = train(ctr, TrainConfig(strategy, depth, cfg.min_samples))
                train_ms = (time.perf_counter() - t0) * 1000.0
            elif tree is None:
                if source is None:
                    source = train(ctr, TrainConfig(source_strategy, depth, cfg.min_samples))
                    train_ms = (time.perf_counter() - t0) * 1000.0
                tree = project(source, strategy)
            trees[strategy] = tree
            loss, misclass = evaluate(tree, cte)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            runs.append(((strategy, q), (loss, misclass, wall_ms, train_ms)))
    return runs


def _excess(loss: float, base: float) -> float:
    if base == 0.0:
        return 0.0 if loss == 0.0 else math.inf
    return loss / base - 1.0


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the full sweep and return per-fold records plus per-(strategy, q)
    aggregates (fold = -1, losses and times summed over folds)."""
    records: list[ExperimentRecord] = []
    for ds_index, (name, ds) in enumerate(cfg.datasets):
        folds = _folds_for(ds, cfg, ds_index)
        depth = tune_depth(ds, cfg, ds_index)
        test_sizes = [len(folds.test_rows(f)) for f in range(cfg.folds)]

        # (strategy, q) -> per fold (loss, misclass, wall_ms, train_ms)
        runs: dict[tuple[Strategy, float], list[tuple[float, float | None, float, float]]] = {}
        for fold_runs in fork_map(lambda f: _sweep_fold(ds, cfg, folds, f, ds_index, depth), cfg.folds):
            for key, run in fold_runs:
                runs.setdefault(key, []).append(run)

        for strategy in cfg.strategies:
            base_losses = [run[0] for run in runs[(strategy, 0.0)]]
            for q in cfg.q_grid:
                fold_runs = runs[(strategy, q)]
                losses, misclasses, walls, trains = zip(*fold_runs)
                # the aggregate row: the folds' runs summed, misclassification weighted by test size
                summed = (sum(losses), None if misclasses[0] is None else
                          float(sum(m * n for m, n in zip(misclasses, test_sizes)) / sum(test_sizes)),
                          sum(walls), sum(trains))
                for fold, (loss, misclass, wall_ms, train_ms), base in zip(
                        [*range(cfg.folds), AGGREGATE_FOLD],
                        [*fold_runs, summed],
                        [*base_losses, sum(base_losses)]):
                    records.append(ExperimentRecord(
                        dataset=name, strategy=strategy.value, scenario=cfg.scenario, q=q, fold=fold,
                        loss=loss, excess_loss=_excess(loss, base), depth=depth,
                        wall_ms=wall_ms, misclass=misclass, train_ms=train_ms,
                    ))
    records.sort(key=lambda r: (r.dataset, r.strategy, r.q, r.fold))
    return records


def emit_csv(records: list[ExperimentRecord], path: str) -> None:
    """Write records with the fixed header; floats use their shortest
    round-tripping representation, so identical runs give identical bytes
    (wall_ms aside)."""
    floats = ("q", "loss", "excess_loss", "wall_ms")
    write_columns(path, CSV_HEADER, [
        [repr(float(getattr(r, name))) for r in records] if name in floats else
        [str(getattr(r, name)) for r in records] for name in CSV_HEADER])


def read_records(path: str) -> list[ExperimentRecord]:
    """Records from an :func:`emit_csv` file; a bad row, a cell longer than
    ``csv.field_size_limit()`` or text that is not UTF-8 raises ParseError.
    Its row number counts records, the header being row 1."""
    rows = read_rows(path)
    header = tuple(next(rows, ()))
    if header != CSV_HEADER:
        raise ValidationError(f"unexpected header {header!r}")
    out = []
    for number, row in enumerate(rows, 2):
        try:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{len(row)} cells, expected {len(CSV_HEADER)}")
            out.append(ExperimentRecord(
                dataset=row[0], strategy=row[1], scenario=row[2],
                q=float(row[3]), fold=int(row[4]),
                loss=float(row[5]), excess_loss=float(row[6]),
                depth=int(row[7]), wall_ms=float(row[8]),
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: row {number}: {exc}") from None
    return out


def aggregate_records(records: list[ExperimentRecord]) -> list[ExperimentRecord]:
    """Just the fold = -1 rows."""
    return [r for r in records if r.fold == AGGREGATE_FOLD]


def mean_excess_by_strategy(records: list[ExperimentRecord], q: float) -> dict[str, float]:
    """Unweighted mean of aggregate excess losses across datasets at one q."""
    per_strategy: dict[str, list[float]] = {}
    for r in aggregate_records(records):
        if r.q == q:
            per_strategy.setdefault(r.strategy, []).append(r.excess_loss)
    return {s: float(np.mean(v)) for s, v in per_strategy.items()}
