"""The benchmark's tracer against a tree whose shape is known by hand.

Run from the root of the repository:  python -m pytest perfbench/tests
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import nantree  # noqa: E402
from nantree import split, tree  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_depth_one_majority_tree_on_step_data():
    ds = nantree.step_data()  # 60 distinct x values, y steps at x = 0.5
    original_train = tree.train
    original_post_init = split.Partition.__post_init__
    tracer = Tracer()
    layers.install(tracer)
    first = tracer.mark()
    try:
        tree.train(ds, nantree.TrainConfig(nantree.Strategy.MAJORITY, max_depth=1))
    finally:
        tracer.uninstall()
    m = layers.finish(layers.segment_metrics(tracer, first))

    assert m["tree.nodes"] == 3
    assert m["tree.leaves"] == 2
    assert m["tree.depth"] == 1
    assert m["tree.middle_nodes"] == 0
    assert m["loss.fit_leaf_calls"] == 3
    # only the root searches: 59 candidate thresholds, one of them used
    assert m["split.partitions_built"] == 59
    assert m["tree.nodes"] - m["tree.leaves"] == 1
    assert m["split.partition_use_ratio"] == 1 / 59
    assert m["bench.train_calls"] == 0
    assert 0 < m["tree.train_self_s"] < m["tree.self_s"] + m["loss.self_s"] + 1e-9
    assert tree.train is original_train
    assert split.Partition.__post_init__ is original_post_init


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("bench.outer"):
        with tracer.span("tree.inner"):
            pass
        with tracer.span("tree.inner"):
            pass
    totals = tracer.totals()
    assert totals.calls["tree.inner"] == 2
    assert totals.calls["tree.inner@bench"] == 2
    outer_self = totals.seconds["bench.outer"] - totals.seconds["tree.inner"]
    assert abs(totals.self_seconds["bench.outer"] - outer_self) < 1e-12
    assert totals.layer_self_seconds("tree") == totals.seconds["tree.inner"]
