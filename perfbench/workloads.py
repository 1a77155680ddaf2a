"""The benchmark's workloads: inputs from a seed, timed units, checks.

Every timed call into nantree goes through a module attribute
(``tree.train``, ``bench.run_experiment``, ...), so the wrappers that
``perfbench.layers`` puts on those attributes see the benchmark's own calls
as well as the program's calls between its modules. Correctness checks call
the package-level names (``nantree.serialize``), which stay unwrapped.

``cv_sweep`` is the acceptance-criterion-5 configuration (both scenarios,
five strategies, q = 0.5, 10 folds, depths 1..5, min_samples 5) on a
500-row draw of the ``tree6`` generator instead of the bundled 2000 rows:
the full sweep takes about a minute here, too long for one timed run, and
500 rows keep the same character (most time goes into building candidate
``Partition`` objects that are never used).
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import os
import statistics
import time
from collections import defaultdict

import numpy as np

import nantree
from nantree import bench, censor, cli, data, datasets, split, tree
from nantree.data import CATEGORICAL, CLASS, NUMERIC, Dataset, FeatureColumn, ResponseColumn

from perfbench import layers
from perfbench.tracer import Tracer

STRATEGIES = bench.ALL_STRATEGIES
SCENARIOS = layers.SCENARIOS
CV_ROWS = 500
WIDE_ROWS = 2000
SCORE_TRAIN_ROWS = 2000
SCORE_ROWS = 50_000
ROW_CALLS = 1000  # predict_row calls per tree in score_batch; p99 keeps 10 beyond it


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def sha256(payload: str | bytes) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class Aborted(Exception):
    """An operation raised; the run cannot go on. Carries the outcome."""


class Outcome:
    """What one set-up or one unit did: timings, per-operation latencies,
    operations attempted and failed, and digests of its outputs.

    A digest key names the operation that produced the output, so a
    mismatch found later fails that operation. Times are raw; the
    aggregates below divide them by :attr:`slowdown`.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.seconds: dict[str, float] = defaultdict(float)
        self.op_ms: list[float] = []
        self.slowdown = 1.0  # host slowdown measured around it; see hostspeed
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.digests: dict[str, str] = {}

    def call(self, op: str, key: str, fn, *args):
        """Run one operation, adding its time to ``seconds[key]``."""
        self.attempted += 1
        t0 = self.clock()
        try:
            out = fn(*args)
        except Exception as exc:  # any failure of the program is a failed operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
            raise Aborted(self) from exc
        self.seconds[key] += self.clock() - t0
        return out

    def fail(self, op: str, message: str) -> None:
        self.failed.setdefault(op, message)

    def check(self, op: str, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    def rows(self, op: str, fn, trained, cells_list, expected: np.ndarray) -> None:
        """``predict_row`` on each row, timed one by one, against ``expected``."""
        for i, cells in enumerate(cells_list):
            self.attempted += 1
            t0 = self.clock()
            try:
                value = fn(trained, cells)
            except Exception as exc:
                self.fail(f"{op}[{i}]", f"{type(exc).__name__}: {exc}")
                raise Aborted(self) from exc
            dt = self.clock() - t0
            self.seconds["rows"] += dt
            self.op_ms.append(dt * 1000.0)
            if np.asarray(value, dtype=np.float64).tobytes() != expected[i].tobytes():
                self.fail(f"{op}[{i}]", "predict_row differs from predict")


def median_sum(reps: dict[str, list[Outcome]], key: str | None = None) -> float:
    """Sum over units of the median, over a unit's repetitions, of its
    time under ``key`` (all of its time when ``key`` is None), in
    host-speed-adjusted seconds."""
    return sum(
        statistics.median(
            (sum(o.seconds.values()) if key is None else o.seconds[key]) / o.slowdown for o in outs)
        for outs in reps.values()
    )


def op_ms(reps: dict[str, list[Outcome]]) -> list[float]:
    """Every operation latency, in host-speed-adjusted milliseconds."""
    return [ms / o.slowdown for outs in reps.values() for o in outs for ms in o.op_ms]


def row_latency(reps: dict[str, list[Outcome]]) -> dict[str, tuple[float, str]]:
    rows_us = [ms * 1000.0 for ms in op_ms(reps)]
    return {
        "predict_row_us_p50": (float(np.percentile(rows_us, 50)), "us"),
        "predict_row_us_p99": (float(np.percentile(rows_us, 99)), "us"),
        "predict_row_calls": (len(rows_us), "count"),
    }


def row_cells(ds: Dataset, n: int) -> list[list]:
    return [[col.values[i] for col in ds.columns] for i in range(n)]


# ---------------------------------------------------------------------------
# cv_sweep


def records_digest(records, path: str) -> str:
    """SHA-256 of the records CSV as ``emit_csv`` writes it, without wall_ms."""
    bench.emit_csv(records, path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    wall = rows[0].index("wall_ms")
    return sha256("\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows))


def records_problem(records, scenario: str) -> str | None:
    """Why a scenario's records are wrong, or None."""
    folds = [r for r in records if r.fold != bench.AGGREGATE_FOLD]
    expected = {(s.value, f) for s in STRATEGIES for f in range(10)}
    if sorted((r.strategy, r.fold) for r in folds) != sorted(expected):
        return f"{len(folds)} fold records, expected one per strategy and fold"
    aggregates = sorted(r.strategy for r in records if r.fold == bench.AGGREGATE_FOLD)
    if aggregates != sorted(s.value for s in STRATEGIES):
        return f"aggregate records for {aggregates}"
    if not all(np.isfinite(r.loss) for r in records):
        return "non-finite loss"
    if scenario == "mcar_test":
        # complete training data: mia routes like majority and trinary_mia
        # picks trinary, fold by fold
        loss = {(r.strategy, r.fold): r.loss for r in records}
        for a, b in (("mia", "majority"), ("trinary_mia", "trinary")):
            for f in [*range(10), bench.AGGREGATE_FOLD]:
                if loss[(a, f)] != loss[(b, f)]:
                    return f"{a} != {b} at fold {f}"
    return None


class CvSweep:
    """Both criterion-5 scenarios through ``run_experiment``."""

    name = "cv_sweep"
    tracer: Tracer | None = None  # set by a traced run, to label phases

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> Outcome:
        table_seed = datasets.BENCHMARK_SEED if self.seed == 0 else derive_seed(self.seed, 1)
        self.table = datasets.tree_structured_data(n_rows=CV_ROWS, seed=table_seed)
        return Outcome()

    def units(self):
        return [(scenario, functools.partial(self.sweep, scenario)) for scenario in SCENARIOS]

    def sweep(self, scenario: str, out: Outcome) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.phase = scenario
        cfg = bench.ExperimentConfig(
            datasets=(("tree6", self.table),), scenario=scenario, q_grid=(0.5,),
            folds=10, depth_grid_max=5, min_samples=5, seed=self.seed,
        )
        try:
            records = out.call(scenario, "sweep", bench.run_experiment, cfg)
        finally:
            if tracer is not None:
                tracer.phase = ""
        out.op_ms += [r.wall_ms for r in records if r.fold != bench.AGGREGATE_FOLD]
        problem = records_problem(records, scenario)
        if problem:
            out.fail(scenario, problem)
        out.digests[scenario] = records_digest(records, os.path.join(self.workdir, "records.csv"))

    def probe_input(self):
        censored, _ = censor.apply_scenario(self.table, self.table, censor.CensorSpec("im", 0.5))
        return censored, 5

    @staticmethod
    def details(reps: dict[str, list[Outcome]]) -> dict[str, tuple[float, str]]:
        tasks = op_ms(reps)
        return {
            "sweep_s": (median_sum(reps, "sweep"), "s"),
            "task_ms_p50": (float(np.percentile(tasks, 50)), "ms"),
            "task_ms_p90": (float(np.percentile(tasks, 90)), "ms"),
            "tasks": (len(tasks), "count"),
        }


# ---------------------------------------------------------------------------
# wide_trinary


def wide_tables(seed: int) -> tuple[Dataset, Dataset]:
    """Train and test tables: 8 numeric and 4 six-level categorical
    features, a three-class response cut at the tertiles of a noisy
    additive signal, 20% MCAR on every feature."""
    rng = np.random.default_rng(derive_seed(seed, 2))
    n = 2 * WIDE_ROWS
    x = rng.random((n, 8))
    g = rng.integers(0, 6, size=(n, 4))
    signal = x @ np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0]) + 0.3 * g.sum(axis=1)
    signal += rng.normal(0.0, 0.5, n)
    y = np.searchsorted(np.quantile(signal, [1 / 3, 2 / 3]), signal)
    levels = tuple(f"c{i}" for i in range(6))

    def table(rows: slice, tag: int) -> Dataset:
        columns = [FeatureColumn(f"x{j + 1}", NUMERIC, x[rows, j]) for j in range(8)]
        columns += [FeatureColumn(f"g{j + 1}", CATEGORICAL, g[rows, j], levels) for j in range(4)]
        ds = Dataset(tuple(columns), ResponseColumn(CLASS, y[rows], ("low", "mid", "high")))
        return censor.censor_mcar(ds, 0.2, derive_seed(seed, tag))

    return table(slice(0, WIDE_ROWS), 3), table(slice(WIDE_ROWS, n), 4)


class WideTrinary:
    """One large trinary classification tree: train, write, read, render,
    then score held-out rows in a batch and one by one."""

    name = "wide_trinary"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed

    def setup(self) -> Outcome:
        self.train_ds, self.test_ds = wide_tables(self.seed)
        self.cells = row_cells(self.test_ds, self.test_ds.n_rows)
        return Outcome()

    def units(self):
        return [("fit", self.fit), ("format", self.format), ("score", self.score)]

    def fit(self, out: Outcome) -> None:
        cfg = tree.TrainConfig(split.Strategy.TRINARY, max_depth=4, min_samples=5)
        self.fitted = out.call("train", "fit", tree.train, self.train_ds, cfg)

    def format(self, out: Outcome) -> None:
        doc = out.call("serialize", "write", tree.serialize, self.fitted)
        out.digests["train"] = sha256(doc)
        back = out.call("deserialize", "read", tree.deserialize, doc)
        out.check("deserialize", nantree.serialize(back) == doc, "serialize(deserialize(doc)) != doc")
        text = out.call("render", "render", tree.render, back)
        out.digests["render"] = sha256(text)

    def score(self, out: Outcome) -> None:
        preds = out.call("predict", "predict", tree.predict, self.fitted, self.test_ds)
        out.digests["predict"] = sha256(preds.tobytes())
        out.rows("predict_row", tree.predict_row, self.fitted, self.cells, preds)

    def probe_input(self):
        return self.train_ds, 5

    @staticmethod
    def details(reps: dict[str, list[Outcome]]) -> dict[str, tuple[float, str]]:
        return {
            "fit_s": (median_sum(reps, "fit"), "s"),
            "tree_write_s": (median_sum(reps, "write"), "s"),
            "tree_read_s": (median_sum(reps, "read"), "s"),
            "render_s": (median_sum(reps, "render"), "s"),
            **row_latency(reps),
        }


# ---------------------------------------------------------------------------
# score_batch


def read_cli_predictions(path: str) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([float(r[0]) for r in rows[1:]], dtype=np.float64)


def same_features(a: Dataset, b: Dataset) -> bool:
    return all(
        ca.name == cb.name and ca.kind == cb.kind and ca.categories == cb.categories
        and np.array_equal(ca.values, cb.values, equal_nan=ca.kind == NUMERIC)
        for ca, cb in zip(a.columns, b.columns, strict=True)
    )


class ScoreBatch:
    """Five depth-5 trees, one per strategy, each scoring 50k rows through
    ``predict``, ``predict_row`` and ``nantree predict`` on a CSV."""

    name = "score_batch"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "score.csv")

    def tree_path(self, strategy) -> str:
        return os.path.join(self.workdir, f"tree_{strategy.value}.json")

    def setup(self) -> Outcome:
        out = Outcome()
        self.trees = {}
        self.train_ds = train_ds = censor.censor_mcar(
            datasets.tree_structured_data(SCORE_TRAIN_ROWS, seed=derive_seed(self.seed, 5)),
            0.3, derive_seed(self.seed, 6))
        self.score_ds = censor.censor_mcar(
            datasets.tree_structured_data(SCORE_ROWS, seed=derive_seed(self.seed, 7)),
            0.3, derive_seed(self.seed, 8))
        for strategy in STRATEGIES:
            op = f"train.{strategy.value}"
            cfg = tree.TrainConfig(strategy, max_depth=5, min_samples=5)
            fitted = out.call(op, "train", tree.train, train_ds, cfg)
            doc = tree.serialize(fitted)
            out.check(op, nantree.serialize(nantree.deserialize(doc)) == doc, "serialize(deserialize(doc)) != doc")
            out.digests[op] = sha256(doc)
            with open(self.tree_path(strategy), "w", encoding="utf-8") as fh:
                fh.write(doc)
            self.trees[strategy] = fitted
        out.call("save_csv", "save_csv", data.save_csv, self.score_ds, self.csv_path)
        back = out.call("load_csv", "load_csv", data.load_csv, self.csv_path, data.schema_for(self.score_ds))
        out.check("load_csv", same_features(back, self.score_ds), "CSV round trip changed the rows")
        self.cells = row_cells(self.score_ds, ROW_CALLS)
        return out

    def cli_predict(self, strategy, out_path: str) -> int:
        argv = ["predict", "--tree", self.tree_path(strategy), "--data", self.csv_path, "--out", out_path]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def units(self):
        return [(s.value, functools.partial(self.score, s)) for s in self.trees]

    def score(self, strategy, out: Outcome) -> None:
        s = strategy.value
        fitted = self.trees[strategy]
        out_path = os.path.join(self.workdir, "predictions.csv")
        preds = out.call(f"predict.{s}", "predict", tree.predict, fitted, self.score_ds)
        out.digests[f"predict.{s}"] = sha256(preds.tobytes())
        out.rows(f"predict_row.{s}", tree.predict_row, fitted, self.cells, preds)
        rc = out.call(f"cli.{s}", "cli", self.cli_predict, strategy, out_path)
        out.check(f"cli.{s}", rc == 0, f"nantree predict exited {rc}")
        if rc == 0:
            got = read_cli_predictions(out_path)
            out.check(f"cli.{s}", got.tobytes() == preds.tobytes(), "CLI output differs from predict")

    def probe_input(self):
        return self.train_ds, 5

    @staticmethod
    def details(reps: dict[str, list[Outcome]]) -> dict[str, tuple[float, str]]:
        return {
            "predict_rows_per_s": (len(STRATEGIES) * SCORE_ROWS / median_sum(reps, "predict"), "1/s"),
            **row_latency(reps),
            "score_file_s": (median_sum(reps, "cli"), "s"),
        }


WORKLOADS = {w.name: w for w in (CvSweep, WideTrinary, ScoreBatch)}
