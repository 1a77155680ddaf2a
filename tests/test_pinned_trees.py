"""Frozen digests of whole trees and weighted split winners.

Each seeded problem trains all five strategies and hashes every tree's
``serialize`` text with its ``predict`` bytes on the training table, then
adds one weighted ``best_split`` winner. A refactor of the split scan that
keeps trees bit-identical keeps these digests.

The problems cover SSE, two-class and three-class responses, categorical
features with few and with more than ``MAX_EXHAUSTIVE_CATEGORIES``
observed categories, and fc trees, whose children below the root carry
fractional row weights under both losses.

One larger three-class problem, unweighted, pins trees whose node counts
run past the 160 rows of the others, up to its 1200 rows.

Rounding rarely moves those trees. Small cross-entropy fc nodes get a
second, targeted set: there fractional weights make candidate ties and
the child-weight floor hang on the last bit of a sum. Each of those
trees changes when the scan sums one statistic in another order.
"""
import hashlib

import numpy as np
import pytest

from nantree import (
    Dataset,
    FeatureColumn,
    ResponseColumn,
    SplitConfig,
    Strategy,
    TrainConfig,
    best_split,
    loss_for,
    predict,
    serialize,
    train,
)
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL
from nantree.split import MAX_EXHAUSTIVE_CATEGORIES

N_CLASSES = (0, 2, 3)  # response of problem i: N_CLASSES[i % 3]; 0 is SSE
WEIGHTED = (Strategy.FC, Strategy.MIA, Strategy.MAJORITY)  # best_split of problem i: WEIGHTED[i // 3 % 3]

PINNED = [
    "820084c97f919e7e8da5d276b5a80121",
    "85ca8d21ceeb97fda8436640da253b79",
    "8acb0127b31a4b06f7ad625847eb5e00",
    "4a2e8ca7776f9e01ec78f27b13e03259",
    "1b5a522f8dcaf400185ee36d3e8388a4",
    "0b69e544010f0cddbd1c2ff5348263f3",
    "c941966470a189c192e9da52e771d7f1",
    "f22d0209a39454eb20539c834d74e5ca",
    "1132c409b247f5d389ff865a43d59521",
    "53b2aa4f0eefca6f06663ced6a0cefbe",
    "a799093389cf416f47706825c0acada6",
    "0896bd3ca8aa43dd76ccb4896fc3310f",
    "5f812738b03a29bebe0ed7fa85e2f673",
    "52c687de75e9e68606bb23e612f29cf7",
    "0031d1251fb1c5df31feaf295576f9ec",
    "b64b04fe759e2157e2c69aa192bb1681",
    "92c61a78fdf11b5089a11fa7a3fc469b",
    "fd77a8f36b510a85bff0c2cd34146d54",
]


def _problem(index):
    """Two numeric and two categorical features, each 10-35% MCAR; the
    second categorical has more categories than the exhaustive limit."""
    rng = np.random.default_rng([7, index])
    n = 160
    coarse = rng.integers(0, 6, size=n).astype(float)  # few distinct values: ties
    fine = np.round(rng.normal(size=n), 2)
    few = rng.integers(0, 5, size=n)
    many = rng.integers(0, MAX_EXHAUSTIVE_CATEGORIES + 3, size=n)
    signal = coarse - fine + few % 3 + 0.3 * (many % 4) + rng.normal(scale=0.7, size=n)
    miss = rng.random((n, 4)) < rng.uniform(0.1, 0.35, size=4)
    cols = (
        FeatureColumn("coarse", NUMERIC, np.where(miss[:, 0], np.nan, coarse)),
        FeatureColumn("fine", NUMERIC, np.where(miss[:, 1], np.nan, fine)),
        FeatureColumn("few", CATEGORICAL, np.where(miss[:, 2], -1, few), tuple("abcde")),
        FeatureColumn("many", CATEGORICAL, np.where(miss[:, 3], -1, many),
                      tuple(f"m{k:02d}" for k in range(MAX_EXHAUSTIVE_CATEGORIES + 3))),
    )
    k = N_CLASSES[index % 3]
    if k:
        edges = np.quantile(signal, np.linspace(0, 1, k + 1)[1:-1])
        response = ResponseColumn(CLASS, np.searchsorted(edges, signal), tuple(f"l{c}" for c in range(k)))
    else:
        response = ResponseColumn(REAL, np.round(signal, 3))
    return Dataset(cols, response), rng


def _digest(index):
    ds, rng = _problem(index)
    h = hashlib.sha256()
    for strategy in Strategy:
        tree = train(ds, TrainConfig(strategy, max_depth=4, min_samples=3))
        h.update(serialize(tree).encode())
        h.update(predict(tree, ds).tobytes())
    rows = np.flatnonzero(rng.random(ds.n_rows) < 0.8)
    weights = rng.uniform(0.2, 1.8, size=rows.size)
    scored = best_split(ds, rows, range(ds.n_features), WEIGHTED[index // 3 % 3], loss_for(ds),
                        SplitConfig(min_child=3, min_child_weight=3.0), weights=weights)
    h.update(repr((scored.partition, scored.route, scored.total_loss, scored.frac_left)).encode())
    for part in (scored.left_rows, scored.right_rows, scored.middle_rows,
                 scored.left_weights, scored.right_weights):
        h.update(b"-" if part is None else part.tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("index", range(18))
def test_trees_and_weighted_winners_match_frozen_digests(index):
    assert _digest(index) == PINNED[index]


#: trinary, trinary_mia and mia trees of :func:`_large_problem`
LARGE = "8aaee93296ade3e78e72de19ee8ac28d"


def _large_problem():
    """1200 rows, three balanced classes, two numeric features and one
    five-level categorical, each 10-25% MCAR."""
    rng = np.random.default_rng([7, 1000])
    n = 1200
    coarse = rng.integers(0, 8, size=n).astype(float)
    fine = np.round(rng.normal(size=n), 2)
    few = rng.integers(0, 5, size=n)
    signal = coarse / 2 - fine + few % 3 + rng.normal(scale=0.7, size=n)
    miss = rng.random((n, 3)) < (0.1, 0.25, 0.2)
    cols = (
        FeatureColumn("coarse", NUMERIC, np.where(miss[:, 0], np.nan, coarse)),
        FeatureColumn("fine", NUMERIC, np.where(miss[:, 1], np.nan, fine)),
        FeatureColumn("few", CATEGORICAL, np.where(miss[:, 2], -1, few), tuple("abcde")),
    )
    edges = np.quantile(signal, [1 / 3, 2 / 3])
    return Dataset(cols, ResponseColumn(CLASS, np.searchsorted(edges, signal), ("l0", "l1", "l2")))


def test_large_unweighted_trees_match_frozen_digest():
    ds = _large_problem()
    h = hashlib.sha256()
    for strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA, Strategy.MIA):
        tree = train(ds, TrainConfig(strategy, max_depth=5, min_samples=3))
        h.update(serialize(tree).encode())
        h.update(predict(tree, ds).tobytes())
    assert h.hexdigest()[:32] == LARGE


def _small_problem(index):
    """30-260 rows over 2-5 mixed features, 0-40% MCAR each, and a class
    response with K = (0, 2, 3, 4)[index % 4] classes (index % 4 != 0)."""
    rng = np.random.default_rng([2024, index])
    n = int(rng.integers(30, 260))
    cols, signal = [], np.zeros(n)
    for j in range(int(rng.integers(2, 6))):
        rate = float(rng.choice([0.0, 0.1, 0.25, 0.4]))
        miss = rng.random(n) < rate
        if rng.random() < 0.5:
            if rng.random() < 0.4:
                x = rng.integers(0, 5, size=n).astype(float)
            else:
                x = np.round(rng.normal(size=n), int(rng.integers(1, 4)))
            signal += x * rng.normal()
            cols.append(FeatureColumn(f"x{j}", NUMERIC, np.where(miss, np.nan, x)))
        else:
            m = int(rng.integers(2, 16))
            codes = rng.integers(0, m, size=n)
            signal += (codes % 3) * rng.normal()
            cols.append(FeatureColumn(f"x{j}", CATEGORICAL, np.where(miss, -1, codes),
                                      tuple(f"c{t}" for t in range(m))))
    k = (0, 2, 3, 4)[index % 4]
    noisy = signal + rng.normal(scale=float(rng.choice([0.1, 0.5, 1.0])), size=n)
    edges = np.quantile(noisy, np.linspace(0, 1, k + 1)[1:-1])
    return Dataset(tuple(cols), ResponseColumn(CLASS, np.searchsorted(edges, noisy), tuple(f"l{t}" for t in range(k))))


#: (problem, max_depth, min_samples): fc trees that change when class
#: weights are summed pairwise (1262), when fc child weights are read from
#: the weight statistic instead of the class-weight sum (1017, 2295), or
#: when exhaustive-cut weights come from the matrix product (1274, 1794)
SMALL_FC = {
    (1262, 6, 2): "7e8acb3e6dd74b6c155416484e234590",
    (1017, 5, 4): "e3d432d9a8d28afc97fcd2f584691bc0",
    (2295, 4, 4): "00163a49d44150e174082b16a971b5e6",
    (1274, 6, 2): "834722f6b0c9b196818a4416d706784c",
    (1794, 5, 2): "5056ece555a38db2ab3fcbd5bc5f7402",
}


@pytest.mark.parametrize("case", SMALL_FC, ids=str)
def test_small_fc_nodes_match_frozen_digests(case):
    index, max_depth, min_samples = case
    ds = _small_problem(index)
    tree = train(ds, TrainConfig(Strategy.FC, max_depth=max_depth, min_samples=min_samples))
    digest = hashlib.sha256(serialize(tree).encode() + predict(tree, ds).tobytes()).hexdigest()[:32]
    assert digest == SMALL_FC[case]
