"""Where the traced run hooks into nantree, and the per-layer metrics.

Each wrapped name is recorded under the layer (module) that defines the
function, whoever calls it: ``nantree.bench.train`` and ``nantree.tree.train``
both record ``tree.train``. Metrics about calls from one layer into
another read the caller suffix, e.g. ``tree.train@bench`` for the trees
grown by the harness.
"""
from __future__ import annotations

import json
import statistics
import time

import numpy as np

import nantree
from nantree import bench, cli, data, split, tree

from perfbench.tracer import HOT, Tracer

TRAIN = "tree.train"
SCENARIOS = ("mcar_test", "im")  # the phases cv_sweep labels


def install(tracer: Tracer) -> None:
    """Wrap every traced name; :meth:`Tracer.uninstall` undoes it."""
    w = tracer.wrap
    w(bench, "run_experiment", "bench.run_experiment")
    w(bench, "tune_depth", "bench.tune_depth")
    w(bench, "train", TRAIN, keep_result=True)
    w(bench, "evaluate", "tree.evaluate")
    w(bench, "apply_scenario", "censor.apply_scenario")
    w(data.Dataset, "subset", "data.subset")
    w(data, "save_csv", "data.save_csv")
    w(data, "load_csv", "data.load_csv")
    w(cli, "main", "cli.main")
    w(cli, "deserialize", "tree.deserialize")
    w(cli, "predict", "tree.predict", tally="tree.predict_rows")
    w(tree, "train", TRAIN, keep_result=True)
    w(tree, "predict", "tree.predict", tally="tree.predict_rows")
    w(tree, "serialize", "tree.serialize")
    w(tree, "deserialize", "tree.deserialize")
    w(tree, "render", "tree.render")
    # per node and per row: aggregated, not kept as spans
    w(tree, "fit_leaf", "loss.fit_leaf", kind=HOT)
    w(tree, "eval_loss", "loss.eval_loss", kind=HOT)
    w(tree, "predict_row", "tree.predict_row", kind=HOT)
    tracer.count(split.Partition, "__post_init__", "split.partitions_built", inside=(TRAIN,))


def tree_shape(doc: str) -> dict[str, int]:
    """Shape of a ``nantree/1`` document. Depth grows on left/right edges
    only, as in ``render``; a middle chain is a run of middle edges."""
    nodes = leaves = middles = longest = depth = 0
    stack = [(json.loads(doc)["root"], 0, 0)]
    while stack:
        node, d, chain = stack.pop()
        nodes += 1
        depth = max(depth, d)
        longest = max(longest, chain)
        if node["kind"] == "leaf":
            leaves += 1
            continue
        stack.append((node["left"], d + 1, 0))
        stack.append((node["right"], d + 1, 0))
        if "middle" in node:
            middles += 1
            stack.append((node["middle"], d, chain + 1))
    return {"nodes": nodes, "leaves": leaves, "middle_nodes": middles,
            "max_middle_chain": longest, "depth": depth, "doc_bytes": len(doc.encode("utf-8"))}


def shapes(trees) -> dict[str, float]:
    """Summed over the trees; longest chain and depth are the maxima."""
    total = {"nodes": 0, "leaves": 0, "middle_nodes": 0, "max_middle_chain": 0, "depth": 0, "doc_bytes": 0}
    for fitted in trees:
        shape = tree_shape(nantree.serialize(fitted))
        for key, value in shape.items():
            if key in ("max_middle_chain", "depth"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return {f"tree.{key}": value for key, value in total.items()}


def segment_metrics(tracer: Tracer, first_span: int) -> dict[str, float]:
    """Per-layer metrics of one traced segment: the set-up or one round.
    Breakdowns per scenario are zero outside ``cv_sweep``."""
    t = tracer.totals(first_span)
    m = {
        "bench.tune_depth_s": t.seconds["bench.tune_depth"],
        "bench.train_calls": t.calls[f"{TRAIN}@bench"],
        "bench.train_s": t.seconds[f"{TRAIN}@bench"],
        "bench.evaluate_calls": t.calls["tree.evaluate@bench"],
        "bench.evaluate_s": t.seconds["tree.evaluate@bench"],
        "censor.apply_scenario_calls": t.calls["censor.apply_scenario"],
        "censor.apply_scenario_s": t.seconds["censor.apply_scenario"],
        "data.subset_calls": t.calls["data.subset"],
        "data.subset_s": t.seconds["data.subset"],
        "data.load_csv_s": t.seconds["data.load_csv"],
        "data.save_csv_s": t.seconds["data.save_csv"],
        "loss.fit_leaf_calls": t.calls["loss.fit_leaf"],
        "loss.fit_leaf_s": t.seconds["loss.fit_leaf"],
        "loss.eval_loss_s": t.seconds["loss.eval_loss"],
        "split.partitions_built": t.calls["split.partitions_built"],
        "tree.train_self_s": t.self_seconds[TRAIN],
        "tree.predict_calls": t.calls["tree.predict"],
        "tree.predict_rows": t.calls["tree.predict_rows"],
        "tree.predict_s": t.seconds["tree.predict"],
        "tree.predict_row_calls": t.calls["tree.predict_row@tree"],
        "tree.serialize_s": t.seconds["tree.serialize"],
        "tree.deserialize_s": t.seconds["tree.deserialize"],
        "tree.render_s": t.seconds["tree.render"],
        "cli.predict_s": t.seconds["cli.main"],
        "cli.io_s": t.self_seconds["cli.main"],
    }
    for layer in ("bench", "censor", "data", "loss", "tree", "cli"):
        m[f"{layer}.self_s"] = t.layer_self_seconds(layer)
    for phase in SCENARIOS:
        p = tracer.totals(first_span, phase)
        m[f"bench.tune_depth_s.{phase}"] = p.seconds["bench.tune_depth"]
        m[f"bench.train_s.{phase}"] = p.seconds[f"{TRAIN}@bench"]
        m[f"bench.evaluate_s.{phase}"] = p.seconds["tree.evaluate@bench"]
        m[f"tree.train_self_s.{phase}"] = p.self_seconds[TRAIN]
        m[f"loss.fit_leaf_calls.{phase}"] = p.calls["loss.fit_leaf"]
        m[f"split.partitions_built.{phase}"] = p.calls["split.partitions_built"]
    m.update(shapes(out for _phase, _name, out in tracer.results))
    return m


def finish(metrics: dict[str, float]) -> dict[str, float]:
    """Add the ratio of split nodes in the trained trees to partitions built."""
    built = metrics["split.partitions_built"]
    used = metrics["tree.nodes"] - metrics["tree.leaves"]
    metrics["split.partition_use_ratio"] = used / built if built else 0.0
    return metrics


def _median_ms(fn, reps: int):
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000.0, out


def _rescore(ds, rows, best, kind, cfg):
    route = best.route
    if route is split.MissingRoute.MIDDLE:
        return split.score_trinary(ds, rows, best.partition, kind, min_child=cfg.min_child)
    if route is split.MissingRoute.FRACTIONAL:
        return split.score_fractional(ds, rows, best.partition, kind, min_child_weight=cfg.min_child_weight)
    return split.score_binary(ds, rows, best.partition, route, kind, min_child=cfg.min_child)


def root_probes(ds, min_samples: int, reps: int = 5) -> dict[str, float]:
    """Split search at the root of ``ds``, the largest node of a tree:
    candidate tables for every feature, ``best_split`` per strategy, and
    the public scorer on each strategy's winner."""
    rows = np.arange(ds.n_rows, dtype=np.int64)
    y = ds.response.values
    kind = nantree.loss_for(ds)
    cfg = split.SplitConfig(min_child=min_samples, min_child_weight=float(min_samples))
    features = range(ds.n_features)
    m = {}
    m["split.enumerate_root_ms"], _ = _median_ms(
        lambda: [split.enumerate_candidates(col, j, rows, y, kind) for j, col in enumerate(ds.columns)], reps)
    score_ms = 0.0
    for strategy in bench.ALL_STRATEGIES:
        ms, best = _median_ms(lambda: split.best_split(ds, rows, features, strategy, kind, cfg), reps)
        m[f"split.best_split_root_ms.{strategy.value}"] = ms
        if best is not None:
            score_ms += _median_ms(lambda: _rescore(ds, rows, best, kind, cfg), reps)[0]
    m["split.score_root_ms"] = score_ms
    return m
