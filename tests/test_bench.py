import math
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from nantree import (
    AGGREGATE_FOLD,
    ALL_STRATEGIES,
    CSV_HEADER,
    Branch,
    CensorSpec,
    Dataset,
    FeatureColumn,
    Leaf,
    MissingRoute,
    ResponseColumn,
    TrainConfig,
    ExperimentConfig,
    ExperimentRecord,
    Strategy,
    ValidationError,
    aggregate_records,
    default_q_grid,
    emit_csv,
    mean_excess_by_strategy,
    read_records,
    apply_scenario,
    evaluate,
    run_experiment,
    serialize,
    stratified_kfold,
    train,
    tune_depth,
)
from nantree import bench, parallel
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL, ParseError
from nantree.datasets import step_data, tree_structured_data


def small_config(**overrides):
    base = dict(
        datasets=(("step", step_data(n_rows=80, noise=0.5)),),
        strategies=(Strategy.MAJORITY, Strategy.MIA),
        scenario="mcar",
        q_grid=(0.0, 0.3),
        folds=4,
        depth_grid_max=3,
        min_samples=2,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_default_q_grid():
    grid = default_q_grid()
    assert grid == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(scenario="mnar")
    with pytest.raises(ValidationError):
        small_config(q_grid=(0.95,))
    with pytest.raises(ValidationError):
        small_config(datasets=())
    with pytest.raises(ValidationError):
        small_config(depth_grid_max=0)


@pytest.mark.parametrize("overrides, message", [
    (dict(q_grid=(0.5, 0.5)), "levels must not repeat"),
    (dict(q_grid=(0.0, 0.3, 0.0)), "levels must not repeat"),
    (dict(q_grid=()), "no censoring levels"),
    (dict(strategies=(Strategy.MAJORITY, Strategy.MAJORITY)), "strategies must not repeat"),
    (dict(strategies=()), "no strategies"),
    (dict(folds=1), "at least 2 folds"),
    (dict(folds=0), "at least 2 folds"),
    (dict(min_samples=0), "min_samples"),
    (dict(datasets=(("a", step_data(n_rows=20)),) * 2), "dataset names must not repeat"),
    (dict(datasets=(("caf\udce9", step_data(n_rows=20)),)), "is not UTF-8 text"),
    (dict(strategies=("majority",)), r"unknown strategy 'majority' \(valid: majority, mia, fc, trinary, trinary_mia\)"),
    (dict(strategies=(Strategy.MIA, "fc")), "unknown strategy 'fc'"),
])
def test_config_rejects_bad_grids(overrides, message):
    with pytest.raises(ValidationError, match=message):
        small_config(**overrides)


def test_tune_depth_finds_the_step():
    # one threshold explains the response: depth 1 wins
    cfg = small_config(datasets=(("step", step_data(n_rows=80, noise=0.0)),))
    assert tune_depth(step_data(n_rows=80, noise=0.0), cfg) == 1


def test_tune_depth_prefers_smaller_on_ties():
    # constant response: all depths give identical (zero) loss
    ds = step_data(n_rows=40, noise=0.0)
    flat = ds.subset(np.flatnonzero(ds.response.values == 0.0))
    cfg = small_config(datasets=(("flat", flat),), folds=2)
    assert tune_depth(flat, cfg) == 1


def test_run_experiment_record_layout():
    cfg = small_config()
    records = run_experiment(cfg)
    # per (strategy, q): folds rows plus one aggregate
    assert len(records) == 2 * 2 * (cfg.folds + 1)
    for r in records:
        assert r.dataset == "step"
        assert r.scenario == "mcar"
        assert r.depth >= 1
        assert r.loss >= 0.0
        assert r.misclass is None
    # sorted with the aggregate first inside each (strategy, q) block
    keys = [(r.dataset, r.strategy, r.q, r.fold) for r in records]
    assert keys == sorted(keys)
    assert keys[0][3] == AGGREGATE_FOLD


def test_excess_is_exactly_zero_at_q0():
    records = run_experiment(small_config())
    at_zero = [r for r in records if r.q == 0.0]
    assert at_zero and all(r.excess_loss == 0.0 for r in at_zero)


def test_aggregate_rows_sum_fold_losses():
    records = run_experiment(small_config())
    for agg in aggregate_records(records):
        folds = [
            r for r in records
            if r.fold != AGGREGATE_FOLD
            and (r.strategy, r.q) == (agg.strategy, agg.q)
        ]
        assert len(folds) == 4
        assert agg.loss == pytest.approx(sum(r.loss for r in folds), rel=1e-12)


def test_run_experiment_is_deterministic_up_to_wall_time():
    a = run_experiment(small_config())
    b = run_experiment(small_config())

    def strip(r):
        return (r.dataset, r.strategy, r.scenario, r.q, r.fold, r.loss, r.excess_loss, r.depth)

    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_seed_changes_the_censoring():
    a = run_experiment(small_config(seed=0))
    b = run_experiment(small_config(seed=1))
    la = [r.loss for r in a if r.q > 0.0]
    lb = [r.loss for r in b if r.q > 0.0]
    assert la != lb


def test_zero_base_loss_excess_guards():
    # x on a grid: every training fold sees every level, so the fitted
    # step is exact and the q=0 loss is 0.0; censoring only the test side
    # then sends missing rows to the middle chain and the loss turns
    # positive against a zero base
    import math

    from nantree import Dataset, FeatureColumn, ResponseColumn
    from nantree.data import NUMERIC, REAL

    n = 100
    x = (np.arange(n) % 10) / 10.0 + 0.05
    y = np.where(x > 0.5, 10.0, 0.0)
    ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, y))
    cfg = small_config(
        datasets=(("grid", ds),),
        scenario="mcar_test",
        strategies=(Strategy.TRINARY,),
        q_grid=(0.0, 0.5),
    )
    records = run_experiment(cfg)
    at_zero = [r for r in records if r.q == 0.0]
    assert at_zero and all(r.loss == 0.0 for r in at_zero)
    # 0/0 excess reads as "no degradation", not as inf or nan
    assert all(r.excess_loss == 0.0 for r in at_zero)
    at_half = [r for r in records if r.q == 0.5]
    assert all(r.loss > 0.0 for r in at_half)
    assert all(r.excess_loss == math.inf for r in at_half)


def test_csv_round_trip(tmp_path):
    records = run_experiment(small_config())
    path = tmp_path / "bench.csv"
    emit_csv(records, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    back = read_records(str(path))
    assert len(back) == len(records)
    for orig, rec in zip(records, back):
        assert (rec.dataset, rec.strategy, rec.scenario) == (orig.dataset, orig.strategy, orig.scenario)
        assert rec.q == orig.q and rec.fold == orig.fold
        assert rec.loss == orig.loss  # repr round-trips exactly
        assert rec.excess_loss == orig.excess_loss
        assert rec.depth == orig.depth
        assert rec.misclass is None


def test_emit_csv_bytes(tmp_path):
    # a dataset name with a comma, quotes and a line break is quoted, quotes doubled
    name = 'tree,"6"\nb'
    records = [ExperimentRecord(name, "trinary_mia", "mcar_test", 0.3, 2, 1.25, -0.1, 3, 12.5),
               ExperimentRecord(name, "fc", "im", 0.1, AGGREGATE_FOLD, 0.1, math.inf, 3, 0.0)]
    path = tmp_path / "bench.csv"
    emit_csv(records, str(path))
    assert path.read_bytes() == (
        b"dataset,strategy,scenario,q,fold,loss,excess_loss,depth,wall_ms\r\n"
        b'"tree,""6""\nb",trinary_mia,mcar_test,0.3,2,1.25,-0.1,3,12.5\r\n'
        b'"tree,""6""\nb",fc,im,0.1,-1,0.1,inf,3,0.0\r\n'
    )


def test_read_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValidationError):
        read_records(str(path))
    path.write_text("")
    with pytest.raises(ValidationError, match="unexpected header"):
        read_records(str(path))


def test_read_records_names_the_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    head = ",".join(CSV_HEADER)
    good = "t,mia,mcar,0.5,0,1.0,0.2,2,3.5"
    for row, match in (("t,mia,mcar,0.5", r"row 3: 4 cells, expected 9"),
                       ("t,mia,mcar,0.5,zero,1.0,0.2,2,3.5", r"row 3: .*'zero'")):
        path.write_text(f"{head}\n{good}\n{row}\n")
        with pytest.raises(ParseError, match=match):
            read_records(str(path))
    path.write_text(f"{head}\n{good}\n")
    assert read_records(str(path))[0].fold == 0


HEAD_ROW = ",".join(CSV_HEADER).encode()
GOOD_ROW = b"t,mia,mcar,0.5,0,1.0,0.2,2,3.5"


@pytest.mark.parametrize("data, match", [
    (HEAD_ROW + b"\n" + GOOD_ROW + b"\nt,mia,mcar,0.5,0,1.0,0.2,2,\xff\n", r"not valid UTF-8 text \(invalid start byte\)"),
    (b"\xff" + HEAD_ROW + b"\n" + GOOD_ROW + b"\n", r"not valid UTF-8 text \(invalid start byte\)"),
    (HEAD_ROW + b"\n" + GOOD_ROW + b"\n" + b"x" * 200_000 + GOOD_ROW[1:] + b"\n",
     r"row 3: field larger than field limit \(131072\)"),
], ids=["undecodable-row", "undecodable-header", "over-long-cell"])
def test_read_records_bad_bytes_are_parse_errors(tmp_path, data, match):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {match}$"):
        read_records(str(path))


def test_mean_excess_by_strategy():
    records = [
        ExperimentRecord("d1", "mia", "mcar", 0.5, AGGREGATE_FOLD, 1.0, 0.2, 2, 0.0),
        ExperimentRecord("d2", "mia", "mcar", 0.5, AGGREGATE_FOLD, 1.0, 0.4, 2, 0.0),
        ExperimentRecord("d1", "mia", "mcar", 0.5, 0, 1.0, 9.9, 2, 0.0),  # fold row: ignored
        ExperimentRecord("d1", "fc", "mcar", 0.5, AGGREGATE_FOLD, 1.0, 0.6, 2, 0.0),
        ExperimentRecord("d1", "fc", "mcar", 0.3, AGGREGATE_FOLD, 1.0, 5.0, 2, 0.0),  # other q
    ]
    got = mean_excess_by_strategy(records, 0.5)
    assert got == {"mia": pytest.approx(0.3), "fc": pytest.approx(0.6)}


def test_classification_records_carry_misclass():
    rng = np.random.default_rng(3)
    from nantree import Dataset, FeatureColumn, ResponseColumn
    from nantree.data import CLASS, NUMERIC

    n = 60
    x = rng.random(n)
    labels = (x > 0.5).astype(np.int64)
    ds = Dataset(
        (FeatureColumn("x", NUMERIC, x),),
        ResponseColumn(CLASS, labels, ("lo", "hi")),
    )
    cfg = small_config(datasets=(("toy", ds),), strategies=(Strategy.MAJORITY,), q_grid=(0.0,), folds=3)
    records = run_experiment(cfg)
    for r in records:
        assert r.misclass is not None
        assert 0.0 <= r.misclass <= 1.0


# ---------------------------------------------------------------------------
# one tree per fold in tune_depth, and tree reuse across q in run_experiment

def _table_with_missing(classes: int, n: int = 150, seed: int = 11, missing: bool = True) -> Dataset:
    """Two numeric features and one categorical, each with native missing
    cells unless ``missing`` is false; a real response, or ``classes``
    classes cut from the same signal."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.normal(size=n), rng.random(n)
    codes = rng.integers(0, 4, size=n)
    signal = 2.0 * (x1 > 0.3) + x2 + 0.7 * codes + rng.normal(scale=0.4, size=n)
    if missing:
        x1[rng.random(n) < 0.2] = np.nan
        x2[rng.random(n) < 0.1] = np.nan
        codes[rng.random(n) < 0.15] = -1
    columns = (
        FeatureColumn("x1", NUMERIC, x1),
        FeatureColumn("x2", NUMERIC, x2),
        FeatureColumn("c", CATEGORICAL, codes.astype(np.int64), ("a", "b", "c", "d")),
    )
    if classes:
        edges = np.quantile(signal, np.linspace(0, 1, classes + 1)[1:-1])
        labels = tuple(f"k{t}" for t in range(classes))
        return Dataset(columns, ResponseColumn(CLASS, np.searchsorted(edges, signal).astype(np.int64), labels))
    return Dataset(columns, ResponseColumn(REAL, signal))


def _walk(node, depth=0):
    yield node, depth
    if isinstance(node, Branch):
        yield from _walk(node.left, depth + 1)
        yield from _walk(node.right, depth + 1)
        if node.middle is not None:
            yield from _walk(node.middle, depth)


def _reference_depth_totals(ds, cfg, ds_index=0):
    """Per-depth fold-loss totals and trees, training every depth separately."""
    folds = stratified_kfold(ds, cfg.folds, bench._fold_seed(cfg.seed, ds_index))
    totals, texts = [], []
    for depth in range(1, cfg.depth_grid_max + 1):
        total = 0.0
        for f in range(cfg.folds):
            train_ds = ds.subset(folds.train_rows(f))
            tree = train(train_ds, TrainConfig(Strategy.MAJORITY, depth, cfg.min_samples))
            loss, _ = evaluate(tree, ds.subset(folds.test_rows(f)))
            total += loss
            texts.append(serialize(tree))
        totals.append(total)
    return totals, texts


@pytest.mark.parametrize("classes", [0, 3])
def test_tune_depth_truncation_equals_growing_each_depth(classes, monkeypatch):
    ds = _table_with_missing(classes)
    cfg = small_config(datasets=(("t", ds),), folds=4, depth_grid_max=5, min_samples=6)
    ref_totals, ref_texts = _reference_depth_totals(ds, cfg)

    grown, scored = [], []
    real_train, real_evaluate = bench.train, bench.evaluate

    def spy_train(train_ds, tcfg):
        tree = real_train(train_ds, tcfg)
        grown.append(tree)
        return tree

    def spy_evaluate(tree, test_ds):
        out = real_evaluate(tree, test_ds)
        scored.append((serialize(tree), out[0]))
        return out

    monkeypatch.setattr(bench, "train", spy_train)
    monkeypatch.setattr(bench, "evaluate", spy_evaluate)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # the spies see this process only
    best = tune_depth(ds, cfg)

    # one tree per fold, at the deepest depth, scored once per depth
    assert len(grown) == cfg.folds and len(scored) == cfg.folds * cfg.depth_grid_max
    totals = [0.0] * cfg.depth_grid_max
    for i, (text, loss) in enumerate(scored):
        fold, depth_index = divmod(i, cfg.depth_grid_max)
        totals[depth_index] += loss
        assert text == ref_texts[depth_index * cfg.folds + fold]
    assert totals == ref_totals  # bitwise, in the same summation order
    assert best == 1 + ref_totals.index(min(ref_totals))

    # the deep trees exercise both majority routes, and min_samples stops
    # some nodes above the depth budget
    nodes = [(node, d) for tree in grown for node, d in _walk(tree.root)]
    routes = {node.spec.route for node, _ in nodes if isinstance(node, Branch)}
    assert routes == {MissingRoute.LEFT, MissingRoute.RIGHT}
    assert any(isinstance(node, Leaf) and d < cfg.depth_grid_max for node, d in nodes)


def _reference_run(cfg):
    """The sweep with one freshly grown tree per (strategy, q, fold) task."""
    records = []
    for ds_index, (name, ds) in enumerate(cfg.datasets):
        folds = stratified_kfold(ds, cfg.folds, bench._fold_seed(cfg.seed, ds_index))
        totals, _ = _reference_depth_totals(ds, cfg, ds_index)
        depth = 1 + totals.index(min(totals))
        pairs = [(ds.subset(folds.train_rows(f)), ds.subset(folds.test_rows(f))) for f in range(cfg.folds)]

        def task(strategy, q, f):
            seed = bench._task_seed(cfg.seed, ds_index, cfg.scenario, q, f)
            ctr, cte = apply_scenario(*pairs[f], CensorSpec(cfg.scenario, q, seed))
            return evaluate(train(ctr, TrainConfig(strategy, depth, cfg.min_samples)), cte)

        for strategy in cfg.strategies:
            base = [task(strategy, 0.0, f)[0] for f in range(cfg.folds)]
            for q in cfg.q_grid:
                runs = [task(strategy, q, f) for f in range(cfg.folds)]
                for f, (loss, misclass) in enumerate(runs):
                    records.append((name, strategy.value, cfg.scenario, q, f, loss,
                                    bench._excess(loss, base[f]), depth, misclass))
                total = sum(loss for loss, _ in runs)
                misclass = None
                if runs[0][1] is not None:
                    sizes = [te.n_rows for _, te in pairs]
                    misclass = float(sum(m * n for (_, m), n in zip(runs, sizes)) / sum(sizes))
                records.append((name, strategy.value, cfg.scenario, q, AGGREGATE_FOLD, total,
                                bench._excess(total, sum(base)), depth, misclass))
    return sorted(records, key=lambda r: (r[0], r[1], r[3], r[4]))


@pytest.mark.parametrize("scenario", ["mcar", "mcar_test", "im"])
def test_run_experiment_equals_one_tree_per_task(scenario):
    cfg = small_config(
        datasets=(
            ("reg", _table_with_missing(0, n=90)),
            ("cls", _table_with_missing(3, n=90, seed=5)),
            # no missing cell: the q = 0 trees (all trees under mcar_test) are projections
            ("reg_complete", _table_with_missing(0, n=90, seed=7, missing=False)),
            ("cls_complete", _table_with_missing(3, n=90, seed=9, missing=False)),
        ),
        strategies=ALL_STRATEGIES,
        scenario=scenario,
        q_grid=(0.0, 0.3, 0.6),
        folds=3,
        depth_grid_max=3,
        min_samples=4,
    )
    got = [
        (r.dataset, r.strategy, r.scenario, r.q, r.fold, r.loss, r.excess_loss, r.depth, r.misclass)
        for r in run_experiment(cfg)
    ]
    assert got == _reference_run(cfg)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="folds run in one process without the fork start method")


@needs_fork
@pytest.mark.parametrize("scenario", ["mcar", "mcar_test", "im"])
def test_folds_on_two_processes_give_the_one_process_records(scenario, monkeypatch, tmp_path):
    cfg = small_config(
        datasets=(("reg", _table_with_missing(0, n=90)), ("cls", _table_with_missing(3, n=90, seed=5))),
        strategies=ALL_STRATEGIES, scenario=scenario, q_grid=(0.0, 0.3), folds=3, depth_grid_max=3, min_samples=4,
    )
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        records = run_experiment(cfg)
        emit_csv([replace(r, wall_ms=0.0) for r in records], str(tmp_path / "records.csv"))
        runs.append(((tmp_path / "records.csv").read_bytes(), [r.misclass for r in records]))
    assert runs[0] == runs[1]
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_fold_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    caller, real_train = os.getpid(), bench.train

    def train_in_caller_only(train_ds, tcfg):
        if os.getpid() != caller:
            raise ValidationError("grown in a worker")
        return real_train(train_ds, tcfg)

    monkeypatch.setattr(bench, "train", train_in_caller_only)
    with pytest.raises(ValidationError, match="^grown in a worker$") as raised:
        run_experiment(small_config())
    assert type(raised.value) is ValidationError
    assert multiprocessing.active_children() == []


def _count_train_calls(monkeypatch):
    """The strategy of each tree the harness grows, in call order; the
    folds run in this process, where the spy sees them."""
    calls = []
    real_train = bench.train

    def counting(*args, **kwargs):
        calls.append(args[1].strategy)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(bench, "train", counting)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    return calls


def test_mcar_test_grows_each_tree_once(monkeypatch):
    calls = _count_train_calls(monkeypatch)
    cfg = small_config(scenario="mcar_test", q_grid=(0.0, 0.3, 0.6), folds=4, depth_grid_max=3)
    records = run_experiment(cfg)
    # one deepest tree per fold for the depth, then one majority tree per
    # fold: step data has no missing cell and mcar_test leaves the training
    # side alone, so mia evaluates the majority tree at every level
    assert calls == [Strategy.MAJORITY] * cfg.folds * 2
    for r in records:
        assert r.wall_ms > 0.0
        if r.fold != AGGREGATE_FOLD:
            # majority at q = 0 grows the tree; every other task reuses it
            assert (r.train_ms > 0.0) == (r.q == 0.0 and r.strategy == "majority")
            assert r.train_ms <= r.wall_ms

    # native missing cells: mia grows its own tree next to majority's at q = 0
    calls.clear()
    run_experiment(small_config(datasets=(("t", _table_with_missing(0, n=90)),), scenario="mcar_test",
                                q_grid=(0.0, 0.3), folds=3, depth_grid_max=2))
    assert calls == [Strategy.MAJORITY] * 3 + [Strategy.MAJORITY, Strategy.MIA] * 3


def test_censored_training_sets_grow_their_own_trees(monkeypatch):
    calls = _count_train_calls(monkeypatch)
    cfg = small_config(scenario="im", q_grid=(0.3, 0.6), folds=4, depth_grid_max=3)
    records = run_experiment(cfg)
    # per fold: the uncensored q = 0 reference, where mia shares the
    # majority tree, then one tree per strategy at each censored level
    per_fold = [Strategy.MAJORITY] + [Strategy.MAJORITY, Strategy.MIA] * 2
    assert calls == [Strategy.MAJORITY] * cfg.folds + per_fold * cfg.folds
    for agg in aggregate_records(records):
        fold_rows = [r for r in records if r.fold != AGGREGATE_FOLD and (r.strategy, r.q) == (agg.strategy, agg.q)]
        assert all(r.train_ms > 0.0 for r in fold_rows)
        assert agg.train_ms == sum(r.train_ms for r in fold_rows)
        assert agg.wall_ms == sum(r.wall_ms for r in fold_rows)


def test_complete_training_sets_grow_one_source_tree(monkeypatch):
    calls = _count_train_calls(monkeypatch)
    folds = 3
    ds = _table_with_missing(0, n=90, missing=False)
    cfg = small_config(datasets=(("t", ds),), strategies=ALL_STRATEGIES, scenario="mcar_test",
                       q_grid=(0.0, 0.3), folds=folds, depth_grid_max=2)
    records = run_experiment(cfg)
    # the depth's majority trees, then one trinary source per fold for all
    # strategies and levels
    assert calls == [Strategy.MAJORITY] * folds + [Strategy.TRINARY] * folds
    for r in records:
        if r.fold != AGGREGATE_FOLD:
            assert (r.train_ms > 0.0) == (r.q == 0.0 and r.strategy == "majority")

    # the first strategy to need the source records its growth
    calls.clear()
    order = (Strategy.FC, Strategy.TRINARY_MIA, Strategy.MAJORITY)
    records = run_experiment(replace(cfg, strategies=order))
    assert calls == [Strategy.MAJORITY] * folds + [Strategy.TRINARY] * folds
    for r in records:
        if r.fold != AGGREGATE_FOLD:
            assert (r.train_ms > 0.0) == (r.q == 0.0 and r.strategy == "fc")

    # without a trinary strategy the source is the majority tree
    calls.clear()
    run_experiment(replace(cfg, strategies=(Strategy.FC, Strategy.MIA)))
    assert calls == [Strategy.MAJORITY] * folds * 2

    # im censors the training side: per fold, the source at q = 0, then
    # every strategy grows its own tree at each censored level
    calls.clear()
    run_experiment(replace(cfg, scenario="im", q_grid=(0.3, 0.6)))
    per_fold = [Strategy.TRINARY] + list(ALL_STRATEGIES) * 2
    assert calls == [Strategy.MAJORITY] * folds + per_fold * folds
