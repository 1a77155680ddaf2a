"""The one process pool: a large tree's subtrees grown in forked workers
give the one-process tree, errors come back whole, and a map inside a
map runs where it is."""
import concurrent.futures
import multiprocessing
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from nantree import (
    Branch,
    Dataset,
    FeatureColumn,
    Leaf,
    ResponseColumn,
    Strategy,
    TrainConfig,
    ValidationError,
    parallel,
    predict,
    serialize,
    train,
)
from nantree import tree as tree_module
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL
from nantree.tree import truncate

from conftest import middle_chain_tree

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="trees grow in one process without the fork start method")

DEPTH = 3


def _large_table(n_classes):
    """Three numeric features and one categorical, about a quarter of each
    missing, on as many rows as train needs to fork."""
    n = tree_module.PARALLEL_ROWS
    rng = np.random.default_rng(11 + n_classes)
    x = rng.normal(size=(n, 3))
    codes = rng.integers(0, 4, size=n)
    signal = x[:, 0] - x[:, 1] + 0.5 * x[:, 2] + codes + rng.normal(scale=0.5, size=n)
    miss = rng.random((n, 4)) < 0.25
    cols = [FeatureColumn(f"x{j}", NUMERIC, np.where(miss[:, j], np.nan, x[:, j])) for j in range(3)]
    cols.append(FeatureColumn("g", CATEGORICAL, np.where(miss[:, 3], -1, codes), ("a", "b", "c", "d")))
    if n_classes:
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        response = ResponseColumn(CLASS, np.searchsorted(edges, signal), tuple(f"l{k}" for k in range(n_classes)))
    else:
        response = ResponseColumn(REAL, signal)
    return Dataset(tuple(cols), response)


def _split_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            yield node
            stack += [node.left, node.right] + ([] if node.middle is None else [node.middle])


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_two_cpus_grow_the_one_cpu_tree(strategy, n_classes, monkeypatch, tmp_path):
    ds = _large_table(n_classes)
    cfg = TrainConfig(strategy, max_depth=DEPTH, min_samples=5)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = train(ds, cfg)

    # each process that scans a node leaves a file named by its pid; the
    # worker's first task is the second largest subtree
    real_scan = tree_module.scan_features

    def scan(*args):
        (tmp_path / str(os.getpid())).touch()
        return real_scan(*args)

    monkeypatch.setattr(tree_module, "scan_features", scan)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    two = train(ds, cfg)
    assert len(list(tmp_path.iterdir())) == 2
    assert multiprocessing.active_children() == []

    assert serialize(two) == serialize(one)
    assert predict(two, ds).tobytes() == predict(one, ds).tobytes()
    for depth in range(DEPTH + 1):
        assert serialize(truncate(two, depth)) == serialize(truncate(one, depth))
    # a middle child keeps its parent's leaf, below depth 1 as well
    middles = [node for node in _split_nodes(two.root) if node.middle is not None]
    assert (len(middles) > 0) == (strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA))
    for parent in middles:
        assert (parent.middle.fit if isinstance(parent.middle, Branch) else parent.middle) is parent.fit


def _count_pools(monkeypatch) -> list:
    """The pid of the process that starts each process pool from here on."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(os.getpid())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools


def _constant_table():
    """The large table with one response value: the root stays a leaf."""
    ds = _large_table(0)
    return Dataset(ds.columns, ResponseColumn(REAL, np.ones(ds.n_rows)))


def _missing_high_table():
    """Feature a, never missing, carries most of the signal; b is missing
    where it is high, which mia routing reads and a middle child does not."""
    n = tree_module.PARALLEL_ROWS
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, n))
    y = 3 * a + b + rng.normal(scale=0.3, size=n)
    cols = (FeatureColumn("a", NUMERIC, a), FeatureColumn("b", NUMERIC, np.where(b > 1, np.nan, b)))
    return Dataset(cols, ResponseColumn(REAL, y))


def _chain(root):
    """The missing routes of the depth-0 chain (the root and its middle
    children) and the node after it: a leaf, or None after a binary split."""
    routes, node = [], root
    while isinstance(node, Branch):
        routes.append(node.spec.route.value)
        node = node.middle
    return routes, node


# (table, strategy, the one-CPU tree's chain routes, the type of its tail);
# on one table, trinary ends the chain when no feature is left and
# trinary_mia where mia routing wins
CHAIN_ENDS = {
    "root leaf": (_constant_table, Strategy.TRINARY, [], Leaf),
    "middle leaf": (_missing_high_table, Strategy.TRINARY, ["middle", "middle"], Leaf),
    "binary split": (_missing_high_table, Strategy.TRINARY_MIA, ["middle", "right"], type(None)),
}


@pytest.mark.parametrize("case", CHAIN_ENDS)
def test_two_cpus_grow_each_end_of_the_chain(case, monkeypatch):
    make_table, strategy, routes, tail = CHAIN_ENDS[case]
    ds = make_table()
    cfg = TrainConfig(strategy, max_depth=DEPTH, min_samples=5)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    one = train(ds, cfg)
    chain, end = _chain(one.root)
    assert chain == routes and type(end) is tail

    pools = _count_pools(monkeypatch)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    two = train(ds, cfg)
    assert serialize(two) == serialize(one)
    # a root that stays a leaf leaves no subtree to hand out
    assert pools == ([os.getpid()] if routes else [])
    assert multiprocessing.active_children() == []


def test_an_error_in_a_worker_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    caller, real_scan = os.getpid(), tree_module.scan_features

    def scan_in_caller_only(*args):
        if os.getpid() != caller:
            raise ValidationError("scanned in a worker")
        return real_scan(*args)

    monkeypatch.setattr(tree_module, "scan_features", scan_in_caller_only)
    with pytest.raises(ValidationError, match="^scanned in a worker$") as raised:
        train(_large_table(3), TrainConfig(Strategy.TRINARY, max_depth=DEPTH))
    assert type(raised.value) is ValidationError
    assert multiprocessing.active_children() == []


def test_a_train_inside_a_map_makes_no_second_pool(monkeypatch):
    ds = _large_table(0)
    cfg = TrainConfig(Strategy.MIA, max_depth=DEPTH)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    expected = serialize(train(ds, cfg))

    pools = _count_pools(monkeypatch)  # a worker forks with the outer pool counted
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def task(_):
        text = serialize(train(ds, cfg))
        return os.getpid(), len(pools), text

    # task 0 is the caller's and task 1 the worker's
    runs = parallel.fork_map(task, 2)
    assert runs[0][0] == os.getpid() != runs[1][0]
    assert [(count, text) for _, count, text in runs] == [(1, expected)] * 2
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []


def test_a_deep_middle_chain_pickles_flat():
    # deeper than the interpreter's recursion limit, with one leaf object
    # serving as two nodes' fit and as a middle child
    chain = middle_chain_tree(3000)
    shared = Leaf(value=1.0, n_samples=3.0, train_loss=2.0)
    spec = chain.root.spec
    root = Branch(spec, chain.root, shared, Branch(spec, shared, shared, shared, 3.0, shared), 3.0, shared)
    back = pickle.loads(pickle.dumps(root))
    assert back.fit is back.middle.fit is back.middle.middle
    assert serialize(replace(chain, root=back)) == serialize(replace(chain, root=root))
