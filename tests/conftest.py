"""Shared helpers: random small problems in both engine and oracle form."""
from __future__ import annotations

import numpy as np

from nantree import (
    Branch,
    Dataset,
    FeatureColumn,
    Leaf,
    LossKind,
    MissingRoute,
    Partition,
    ResponseColumn,
    Strategy,
    Tree,
)
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL
from nantree.tree import SplitSpec


def random_problem(rng, max_rows=12, max_features=3, classification_ok=True,
                   force_missing=None):
    """One random mixed-feature dataset, returned twice: as a Dataset for
    the engine and as plain Python lists for the brute-force oracle.

    ``force_missing`` pins the per-feature missing rate (None draws it).
    """
    n = int(rng.integers(4, max_rows + 1))
    n_features = int(rng.integers(1, max_features + 1))
    columns = []
    cells_list = []
    for j in range(n_features):
        if force_missing is None:
            missing_rate = float(rng.choice([0.0, 0.2, 0.4]))
        else:
            missing_rate = force_missing
        miss = rng.random(n) < missing_rate
        if rng.random() < 0.5:
            if rng.random() < 0.5:
                vals = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
            else:
                vals = np.round(rng.normal(size=n), 3)
            vals = vals.astype(np.float64)
            vals[miss] = np.nan
            columns.append(FeatureColumn(f"x{j}", NUMERIC, vals))
            cells_list.append([None if np.isnan(v) else float(v) for v in vals])
        else:
            m = int(rng.integers(2, 6))
            cats = tuple(f"c{t}" for t in range(m))
            codes = rng.integers(0, m, size=n)
            codes = np.where(miss, -1, codes).astype(np.int64)
            columns.append(FeatureColumn(f"x{j}", CATEGORICAL, codes, cats))
            cells_list.append([None if c < 0 else cats[c] for c in codes])
    if classification_ok and rng.random() < 0.4:
        k = int(rng.choice([2, 3]))
        labels = tuple(f"l{t}" for t in range(k))
        yv = rng.integers(0, k, size=n).astype(np.int64)
        response = ResponseColumn(CLASS, yv, labels)
        y = [int(v) for v in yv]
        n_classes = k
    else:
        if rng.random() < 0.5:
            yv = rng.choice([0.0, 1.0, 5.0], size=n)
        else:
            yv = np.round(rng.normal(size=n) * 2.0, 3)
        response = ResponseColumn(REAL, yv.astype(np.float64))
        y = [float(v) for v in yv]
        n_classes = 0
    return Dataset(tuple(columns), response), cells_list, y, n_classes


def paired_problem(rng, n_train=150, n_test=200, train_missing=0.2,
                   test_missing=0.2, classification_ok=True, max_features=3):
    """A train/test Dataset pair over one random mixed-feature schema.

    The response carries signal (a noisy function of the features), so
    trees grown on the training half have real structure to disagree on.
    """
    n_features = int(rng.integers(1, max_features + 1))
    specs = []
    for j in range(n_features):
        if rng.random() < 0.5:
            specs.append(("num", None))
        else:
            m = int(rng.integers(2, 6))
            specs.append(("cat", tuple(f"c{t}" for t in range(m))))
    classify = classification_ok and rng.random() < 0.4
    k = int(rng.choice([2, 3])) if classify else 0

    def build(n, missing_rate):
        columns = []
        signal = np.zeros(n)
        for j, (kind, cats) in enumerate(specs):
            miss = rng.random(n) < missing_rate
            if kind == "num":
                vals = rng.normal(size=n)
                signal += vals
                vals = vals.copy()
                vals[miss] = np.nan
                columns.append(FeatureColumn(f"x{j}", NUMERIC, vals))
            else:
                codes = rng.integers(0, len(cats), size=n)
                signal += codes.astype(float)
                codes = np.where(miss, -1, codes).astype(np.int64)
                columns.append(FeatureColumn(f"x{j}", CATEGORICAL, codes, cats))
        noise = rng.normal(scale=0.5, size=n)
        if classify:
            edges = np.quantile(signal, np.linspace(0, 1, k + 1)[1:-1])
            yv = np.searchsorted(edges, signal + 0.2 * noise).astype(np.int64)
            labels = tuple(f"l{t}" for t in range(k))
            response = ResponseColumn(CLASS, yv, labels)
        else:
            response = ResponseColumn(REAL, signal + noise)
        return Dataset(tuple(columns), response)

    return build(n_train, train_missing), build(n_test, test_missing), k


def middle_chain_tree(depth):
    """A hand-built trinary tree whose root starts a chain of ``depth``
    middle children, each split with two leaves beside it."""
    node = Leaf(value=0.0, n_samples=1.0, train_loss=0.0)
    for k in range(depth):
        leaf = Leaf(value=float(k), n_samples=1.0, train_loss=0.0)
        spec = SplitSpec(Partition(0, threshold=float(k)), MissingRoute.MIDDLE)
        node = Branch(spec, leaf, leaf, node, 3.0)
    return Tree(node, Strategy.TRINARY, LossKind("sse"), ("x",), (NUMERIC,), {}, REAL)
