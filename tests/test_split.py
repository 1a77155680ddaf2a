import copy
import dataclasses
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nantree import (
    Branch,
    Dataset,
    FeatureColumn,
    LossKind,
    Partition,
    ResponseColumn,
    SplitConfig,
    Strategy,
    ValidationError,
    best_split,
    enumerate_candidates,
    fit_leaf,
    loss_for,
    score_binary,
    score_fractional,
    score_trinary,
    serialize,
)
from nantree import parallel
from nantree import split as split_module
from nantree import tree as tree_module
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL
from nantree.split import MAX_EXHAUSTIVE_CATEGORIES, MissingRoute, scan_features, split_rows

from conftest import random_problem
from oracle import best_loss

SSE = LossKind.sse()


def regression(xcols, y):
    return Dataset(tuple(xcols), ResponseColumn(REAL, np.asarray(y, dtype=float)))


def numeric(name, values):
    return FeatureColumn(name, NUMERIC, np.asarray(values, dtype=float))


ALL = np.arange(5)


def fixed_node():
    """x = [1, 1, 2, 3, nan], y = [0, 0, 0, 10, 5]; every frozen constant
    below is hand-computed from this node."""
    ds = regression([numeric("x", [1.0, 1.0, 2.0, 3.0, np.nan])], [0.0, 0.0, 0.0, 10.0, 5.0])
    return ds


def test_numeric_thresholds_are_midpoints():
    ds = fixed_node()
    cands = enumerate_candidates(ds.columns[0], 0, ALL, ds.response.values, SSE)
    assert [c.threshold for c in cands] == [1.5, 2.5]


def test_degenerate_midpoint_falls_back_to_left_value():
    lo = np.nextafter(1.0, 2.0)
    hi = np.nextafter(lo, 2.0)
    assert 0.5 * (lo + hi) == hi  # the midpoint rounds up: the guard case
    ds = regression([numeric("x", [lo, hi])], [0.0, 1.0])
    cands = enumerate_candidates(ds.columns[0], 0, np.arange(2), ds.response.values, SSE)
    assert len(cands) == 1
    assert cands[0].threshold == lo  # lo <= t < hi still separates the rows


def test_overflowing_midpoint_falls_back_to_left_value():
    lo, hi = -1.5e308, -1e308
    assert 0.5 * (lo + hi) == -np.inf  # the sum overflows: the midpoint falls below lo
    ds = regression([numeric("x", [lo, hi, 1.5e308, 1.7e308])], [0.0, 1.0, 2.0, 3.0])
    cands = enumerate_candidates(ds.columns[0], 0, np.arange(4), ds.response.values, SSE)
    assert [c.threshold for c in cands] == [lo, 0.5 * (hi + 1.5e308), 1.5e308]
    tree = tree_module.train(ds, tree_module.TrainConfig(Strategy.MAJORITY, max_depth=2, min_samples=1))
    assert np.array_equal(tree_module.predict(tree, ds), ds.response.values)
    text = tree_module.serialize(tree)
    assert tree_module.serialize(tree_module.deserialize(text)) == text


def test_constant_feature_has_no_candidates():
    ds = regression([numeric("x", [2.0, 2.0, np.nan])], [1.0, 2.0, 3.0])
    assert enumerate_candidates(ds.columns[0], 0, np.arange(3), ds.response.values, SSE) == []


def test_categorical_mean_ordering():
    # means: A=0, C=5, B=10 -> order A, C, B -> cuts {A} and {A, C}
    codes = ["A", "A", "C", "C", "B", "B"]
    cats = ("A", "B", "C")
    col = FeatureColumn("c", CATEGORICAL, np.array([cats.index(v) for v in codes]), cats)
    ds = regression([col], [0.0, 0.0, 5.0, 5.0, 10.0, 10.0])
    cands = enumerate_candidates(col, 0, np.arange(6), ds.response.values, SSE)
    as_names = [
        (frozenset(cats[c] for c in p.left_categories), frozenset(cats[c] for c in p.right_categories))
        for p in cands
    ]
    assert as_names == [
        (frozenset({"A"}), frozenset({"B", "C"})),
        (frozenset({"A", "C"}), frozenset({"B"})),
    ]


def test_multiclass_exhaustive_candidates():
    # 4 observed categories, 3 classes -> 2^(4-1) - 1 = 7 bipartitions
    kind = LossKind.cross_entropy(3)
    cats = ("a", "b", "c", "d")
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2, 3, 0, 1]), cats)
    y = np.array([0, 1, 2, 0, 1, 2])
    cands = enumerate_candidates(col, 0, np.arange(6), y, kind)
    assert len(cands) == 7
    # every candidate keeps the lowest observed code on the left
    assert all(0 in p.left_categories for p in cands)
    seen = {(p.left_categories, p.right_categories) for p in cands}
    assert len(seen) == 7


#: (partition, cells, where each cell goes: Left, Right or Missing here);
#: the categorical feature has codes 0..3, of which the node saw 0, 2, 3
SIDES_TABLE = [
    (Partition(0, 1.5), np.array([1.0, 1.5, 2.0, np.nan, -np.inf, np.inf]), "LLRMLR"),
    # -1 is missing, 1 a category the node never saw, 4 and 99 codes past the last
    (Partition(0, left_categories={0, 3}, right_categories={2}), np.array([0, 3, 2, -1, 1, 4, 99]), "LLRMMMM"),
]


@pytest.mark.parametrize("route", list(MissingRoute), ids=lambda r: r.value)
@pytest.mark.parametrize("partition, cells, where", SIDES_TABLE, ids=["numeric", "categorical"])
def test_partition_sides_folds_missing_cells_by_route(partition, cells, where, route):
    """A left or right route sends the missing cells to its side as well;
    the missing mask is the same under every route. One cell at a time,
    ``side`` names the side each cell goes, ``route`` for a missing one."""
    at = np.array(list(where))
    missing = at == "M"
    want = ((at == "L") | (missing & (route is MissingRoute.LEFT)),
            (at == "R") | (missing & (route is MissingRoute.RIGHT)),
            missing)
    got = partition.sides(cells, route)
    assert [mask.dtype for mask in got] == [np.dtype(bool)] * 3
    assert [mask.tolist() for mask in got] == [mask.tolist() for mask in want]
    typed = [cells.tolist(), list(cells)]  # Python scalars and numpy's
    if partition.is_numeric:
        typed.append(list(cells.astype(np.float32)))
    for row in typed:
        one_by_one = [partition.side(cell, route) for cell in row]
        assert one_by_one == [{"L": MissingRoute.LEFT, "R": MissingRoute.RIGHT, "M": route}[c] for c in where]
    # numbers numpy cannot take are refused, as predict_row's ValidationError
    for cell in (Fraction(3, 2), Decimal("1.5")):
        with pytest.raises(TypeError):
            partition.side(cell, route)


def test_score_binary_frozen():
    ds = fixed_node()
    part = Partition(0, threshold=1.5)
    right = score_binary(ds, ALL, part, MissingRoute.RIGHT, SSE)
    # right child {0, 10, 5} around mean 5 -> 50
    assert right.loss_left == 0.0
    assert right.total_loss == pytest.approx(50.0, abs=1e-12)
    left = score_binary(ds, ALL, part, MissingRoute.LEFT, SSE)
    # left child {0, 0, 5} around mean 5/3 -> 150/9
    assert left.loss_left == pytest.approx(150.0 / 9.0, abs=1e-12)
    assert left.total_loss == pytest.approx(150.0 / 9.0 + 50.0, abs=1e-12)
    assert list(left.left_rows) == [0, 1, 4]


def test_score_binary_min_child_counts_routed_missing():
    ds = fixed_node()
    part = Partition(0, threshold=2.5)
    # right of 2.5 holds one observed row; routing missing right lifts it to 2
    assert score_binary(ds, ALL, part, MissingRoute.LEFT, SSE, min_child=2) is None
    assert score_binary(ds, ALL, part, MissingRoute.RIGHT, SSE, min_child=2) is not None
    # the smaller child at the floor, then one row below it: 4 and 1 rows routing left, 3 and 2 right
    for route, smaller in ((MissingRoute.LEFT, 1), (MissingRoute.RIGHT, 2)):
        assert score_binary(ds, ALL, part, route, SSE, min_child=smaller) is not None
        assert score_binary(ds, ALL, part, route, SSE, min_child=smaller + 1) is None


def test_score_trinary_frozen():
    ds = fixed_node()
    # mother value = mean of all five responses = 3
    scored = score_trinary(ds, ALL, Partition(0, threshold=2.5), SSE)
    # children {0,0,0} and {10} are pure; missing row priced (5-3)^2 = 4
    assert scored.loss_left == 0.0 and scored.loss_right == 0.0
    assert scored.loss_middle == pytest.approx(4.0, abs=1e-12)
    assert scored.total_loss == pytest.approx(4.0, abs=1e-12)
    assert list(scored.middle_rows) == [4]


def test_score_binary_rejects_other_routes():
    for route in (MissingRoute.MIDDLE, MissingRoute.FRACTIONAL):
        with pytest.raises(ValueError, match="score_binary routes missing rows left or right"):
            score_binary(fixed_node(), ALL, Partition(0, threshold=1.5), route, SSE)


def test_infeasible_trinary_split_scores_none():
    # the right of 2.5 holds one observed row
    assert score_trinary(fixed_node(), ALL, Partition(0, threshold=2.5), SSE, min_child=2) is None
    # at the floor, then one row below it: 3 and 1 rows at 2.5, 2 and 2 at 1.5; the middle row counts for neither
    for threshold, smaller in ((2.5, 1), (1.5, 2)):
        part = Partition(0, threshold=threshold)
        assert score_trinary(fixed_node(), ALL, part, SSE, min_child=smaller) is not None
        assert score_trinary(fixed_node(), ALL, part, SSE, min_child=smaller + 1) is None


def test_fractional_split_with_an_unobserved_side_is_none():
    # no observed row lies right of 3.5, so there are no fractions to send missing rows by
    part = Partition(0, threshold=3.5)
    assert split_rows(fixed_node(), ALL, part, MissingRoute.FRACTIONAL) is None
    assert score_fractional(fixed_node(), ALL, part, SSE, min_child_weight=0.0) is None


def test_score_fractional_frozen():
    ds = fixed_node()
    scored = score_fractional(ds, ALL, Partition(0, threshold=2.5), SSE)
    # alpha = 3/4: left {0,0,0}+{5}@0.75 -> 15; right {10}+{5}@0.25 -> 5
    assert scored.frac_left == 0.75
    assert scored.loss_left == pytest.approx(15.0, abs=1e-12)
    assert scored.loss_right == pytest.approx(5.0, abs=1e-12)
    assert scored.total_loss == pytest.approx(20.0, abs=1e-12)
    assert scored.left_weights.sum() == pytest.approx(3.75)
    # the right child weighs 1 + 0.25 exactly: feasible at that floor, not one step above it
    part = Partition(0, threshold=2.5)
    assert score_fractional(ds, ALL, part, SSE, min_child_weight=1.25) is not None
    assert score_fractional(ds, ALL, part, SSE, min_child_weight=np.nextafter(1.25, 2.0)) is None


def test_best_split_frozen_per_strategy():
    ds = fixed_node()
    cfg = SplitConfig(min_child=1, min_child_weight=0.25)
    kind = SSE

    maj = best_split(ds, ALL, [0], Strategy.MAJORITY, kind, cfg)
    # majority forces routes: t=1.5 ties 2v2 -> right (50), t=2.5 3v1 -> left (18.75)
    assert maj.partition.threshold == 2.5
    assert maj.route is MissingRoute.LEFT
    assert maj.total_loss == pytest.approx(18.75, abs=1e-12)

    mia = best_split(ds, ALL, [0], Strategy.MIA, kind, cfg)
    # t=2.5 routed right: {0,0,0} + {10,5} -> 12.5
    assert mia.partition.threshold == 2.5
    assert mia.route is MissingRoute.RIGHT
    assert mia.total_loss == pytest.approx(12.5, abs=1e-12)

    tri = best_split(ds, ALL, [0], Strategy.TRINARY, kind, cfg)
    assert tri.total_loss == pytest.approx(4.0, abs=1e-12)

    tm = best_split(ds, ALL, [0], Strategy.TRINARY_MIA, kind, cfg)
    # trinary's 4.0 beats mia's 12.5
    assert tm.route is MissingRoute.MIDDLE
    assert tm.total_loss == pytest.approx(4.0, abs=1e-12)

    fc = best_split(ds, ALL, [0], Strategy.FC, kind, cfg)
    assert fc.total_loss == pytest.approx(20.0, abs=1e-12)


def test_mia_route_tie_goes_to_majority_side():
    # constant response: both routings cost 0 exactly
    ds = regression([numeric("x", [0.0, 1.0, np.nan])], [7.0, 7.0, 7.0])
    cfg = SplitConfig(min_child=1, min_child_weight=1.0)
    mia = best_split(ds, np.arange(3), [0], Strategy.MIA, SSE, cfg)
    assert mia.route is MissingRoute.RIGHT  # sizes tie 1v1 -> right
    ds2 = regression([numeric("x", [0.0, 0.0, 1.0, np.nan])], [7.0, 7.0, 7.0, 7.0])
    mia2 = best_split(ds2, np.arange(4), [0], Strategy.MIA, SSE, cfg)
    assert mia2.route is MissingRoute.LEFT  # 2v1 -> left


def test_tie_breaking_first_feature_first_candidate():
    # all-constant response: every candidate scores 0; the scan must keep
    # feature 0's first threshold
    ds = regression(
        [numeric("a", [1.0, 2.0, 3.0]), numeric("b", [5.0, 6.0, 7.0])],
        [1.0, 1.0, 1.0],
    )
    cfg = SplitConfig(min_child=1, min_child_weight=1.0)
    for strategy in Strategy:
        got = best_split(ds, np.arange(3), [0, 1], strategy, SSE, cfg)
        assert got.partition.feature == 0
        assert got.partition.threshold == 1.5


def test_min_child_respected():
    ds = regression([numeric("x", [1.0, 2.0, 3.0, 4.0])], [0.0, 0.0, 10.0, 10.0])
    cfg = SplitConfig(min_child=2, min_child_weight=2.0)
    got = best_split(ds, np.arange(4), [0], Strategy.MAJORITY, SSE, cfg)
    assert got.partition.threshold == 2.5  # 1.5 and 3.5 leave a lone row
    tight = SplitConfig(min_child=3, min_child_weight=3.0)
    assert best_split(ds, np.arange(4), [0], Strategy.MAJORITY, SSE, tight) is None


def test_weighted_scoring_scales():
    ds = fixed_node()
    part = Partition(0, threshold=1.5)
    w = np.full(5, 0.5)
    scored = score_binary(ds, ALL, part, MissingRoute.RIGHT, SSE, weights=w)
    assert scored.total_loss == pytest.approx(25.0, abs=1e-12)


def test_trinary_rejects_weights():
    ds = fixed_node()
    with pytest.raises(ValueError):
        best_split(ds, ALL, [0], Strategy.TRINARY, SSE, SplitConfig(1, 1.0), weights=np.ones(5))


_T15 = Partition(0, threshold=1.5)
_BAD_INPUTS = {
    "best_split row past the end": lambda ds: best_split(ds, [10**6], [0], Strategy.MIA, SSE),
    "score_binary row past the end": lambda ds: score_binary(ds, [10**6], _T15, MissingRoute.LEFT, SSE),
    "negative row": lambda ds: best_split(ds, [-1, 0, 1], [0], Strategy.MIA, SSE),
    "fractional rows": lambda ds: best_split(ds, [0.5, 1.5, 2.5], [0], Strategy.MIA, SSE),
    "feature past the end": lambda ds: best_split(ds, ALL, [5], Strategy.MIA, SSE),
    "negative feature": lambda ds: best_split(ds, ALL, [-1], Strategy.MIA, SSE),
    "fc weights of the wrong length": lambda ds: best_split(ds, ALL, [0], Strategy.FC, SSE,
                                                            weights=np.ones(4), node_value=3.0),
    "scorer weights of the wrong length": lambda ds: score_fractional(ds, ALL, _T15, SSE, weights=np.ones(6)),
    "scorer partition feature": lambda ds: score_trinary(ds, ALL, Partition(1, threshold=1.5), SSE),
    "scorer negative row": lambda ds: score_trinary(ds, [-1], _T15, SSE),
    "candidates row past the end": lambda ds: enumerate_candidates(ds.columns[0], 0, [5], [1.0], SSE),
    "candidates responses of the wrong length": lambda ds: enumerate_candidates(
        ds.columns[0], 0, ALL, ds.response.values[:4], SSE),
    "candidates weights of the wrong length": lambda ds: enumerate_candidates(
        ds.columns[0], 0, ALL, ds.response.values, SSE, weights=np.ones(3)),
    # a block of no weight has a NaN fit, which the scan's argmin would take
    "best_split zero weight": lambda ds: best_split(ds, ALL, [0], Strategy.MAJORITY, SSE,
                                                    weights=[0.0, 1.0, 1.0, 1.0, 1.0]),
    "best_split negative weights": lambda ds: best_split(ds, ALL, [0], Strategy.MIA, SSE, weights=-np.ones(5)),
    "best_split infinite weight": lambda ds: best_split(ds, ALL, [0], Strategy.FC, SSE,
                                                        weights=[np.inf, 1.0, 1.0, 1.0, 1.0]),
    "score_binary zero weight": lambda ds: score_binary(ds, ALL, _T15, MissingRoute.LEFT, SSE,
                                                        weights=[0.0, 1.0, 1.0, 1.0, 1.0]),
    "score_fractional NaN weight": lambda ds: score_fractional(ds, ALL, _T15, SSE,
                                                               weights=[1.0, np.nan, 1.0, 1.0, 1.0]),
    "candidates zero weight": lambda ds: enumerate_candidates(
        ds.columns[0], 0, ALL, ds.response.values, SSE, weights=np.zeros(5)),
    "best_split trinary weights": lambda ds: best_split(ds, ALL, [0], Strategy.TRINARY, SSE, weights=np.ones(5)),
    "best_split no rows": lambda ds: best_split(ds, [], [0], Strategy.MIA, SSE),
    "score_binary None floor": lambda ds: score_binary(ds, ALL, _T15, MissingRoute.LEFT, SSE, min_child=None),
    "score_binary fractional floor": lambda ds: score_binary(ds, ALL, _T15, MissingRoute.RIGHT, SSE, min_child=1.5),
    "score_trinary None floor": lambda ds: score_trinary(ds, ALL, _T15, SSE, min_child=None),
    "score_trinary float floor": lambda ds: score_trinary(ds, ALL, _T15, SSE, min_child=2.0),
    "score_fractional NaN floor": lambda ds: score_fractional(ds, ALL, _T15, SSE, min_child_weight=float("nan")),
    "score_fractional string floor": lambda ds: score_fractional(ds, ALL, _T15, SSE, min_child_weight="1"),
    "score_fractional None floor": lambda ds: score_fractional(ds, ALL, _T15, SSE, min_child_weight=None),
    "score_binary middle route": lambda ds: score_binary(ds, ALL, _T15, MissingRoute.MIDDLE, SSE),
    "partition of neither kind": lambda ds: Partition(0),
    "partition overlapping sets": lambda ds: Partition(0, left_categories={0}, right_categories={0, 1}),
    "partition negative code": lambda ds: Partition(0, left_categories={-1}, right_categories={0}),
}


@pytest.mark.parametrize("call", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_public_split_entry_points_reject_bad_input(call):
    """Rows, features, weights, floors, routes and partitions are checked
    where they enter the public split functions, so a bad index never reads
    a wrong row or feature."""
    with pytest.raises(ValidationError):
        call(fixed_node())


def test_scorers_take_zero_and_numpy_floors():
    ds = fixed_node()
    assert score_binary(ds, ALL, _T15, MissingRoute.LEFT, SSE, min_child=0) is not None
    assert score_trinary(ds, ALL, _T15, SSE, min_child=np.int64(2)) is not None
    assert score_fractional(ds, ALL, _T15, SSE, min_child_weight=0) is not None
    assert score_fractional(ds, ALL, _T15, SSE, min_child_weight=np.float64(1.0)) is not None


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(0)
    with pytest.raises(ValueError):
        Partition(0, threshold=1.0, left_categories=frozenset({0}), right_categories=frozenset({1}))
    with pytest.raises(ValueError):
        Partition(0, left_categories=frozenset({0}), right_categories=frozenset({0}))
    # any mix of a threshold and a category set is neither kind
    for sets in ({"left_categories": frozenset({1})}, {"right_categories": frozenset({1})}):
        with pytest.raises(ValueError, match="either a threshold or two category sets"):
            Partition(0, threshold=0.5, **sets)
    with pytest.raises(ValueError, match="either a threshold or two category sets"):
        Partition(0, left_categories=frozenset({0}))
    # -1 is the missing code: in a set it would take the top slot of sides' table
    for sets in (({-1}, {0}), ({0}, {-2, 1})):
        with pytest.raises(ValueError, match="category codes must be non-negative"):
            Partition(0, left_categories=sets[0], right_categories=sets[1])
    # a code is an integer, as side reads it; 0.5 is not truncated to 0
    for sets in (({0.5}, {1}), ({0}, {np.float64(1.0)})):
        with pytest.raises(TypeError):
            Partition(0, left_categories=sets[0], right_categories=sets[1])
    assert Partition(0, left_categories={np.int64(2)}, right_categories={True}).left_categories == {2}


NUMERIC_CUT = Partition(2, 0.5)
CATEGORY_CUT = Partition(1, left_categories=frozenset({0, 3}), right_categories=frozenset({1}))


@pytest.mark.parametrize("partition", [NUMERIC_CUT, CATEGORY_CUT], ids=["numeric", "categorical"])
def test_partition_is_a_frozen_value(partition):
    for field in dataclasses.fields(Partition):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(partition, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(partition, field.name)
    twin = Partition(*(getattr(partition, f.name) for f in dataclasses.fields(Partition)))
    assert twin == partition and twin is not partition
    assert hash(twin) == hash(partition)
    assert len({partition, twin}) == 1
    for copied in (copy.copy(partition), copy.deepcopy(partition), pickle.loads(pickle.dumps(partition))):
        assert copied == partition and hash(copied) == hash(partition)
        assert type(copied) is Partition
    assert dataclasses.replace(partition) == partition
    assert dataclasses.replace(partition, feature=7).feature == 7
    with pytest.raises(ValueError, match="either a threshold or two category sets"):
        dataclasses.replace(partition, threshold=None, left_categories=None)


def test_partition_fields_construction_and_repr():
    assert [f.name for f in dataclasses.fields(Partition)] == [
        "feature", "threshold", "left_categories", "right_categories"]
    assert Partition(2, 0.5) == Partition(feature=2, threshold=0.5) == NUMERIC_CUT
    assert Partition(1, None, frozenset({0, 3}), frozenset({1})) == CATEGORY_CUT
    assert Partition(right_categories={1}, left_categories={3, 0}, feature=1) == CATEGORY_CUT
    assert Partition(2, 0.5) != Partition(2, 0.25) and Partition(2, 0.5) != Partition(3, 0.5)
    assert repr(NUMERIC_CUT) == "Partition(feature=2, threshold=0.5, left_categories=None, right_categories=None)"
    assert repr(CATEGORY_CUT) == (
        "Partition(feature=1, threshold=None, left_categories=frozenset({0, 3}), right_categories=frozenset({1}))")
    assert (NUMERIC_CUT.is_numeric, CATEGORY_CUT.is_numeric) == (True, False)


@pytest.mark.parametrize("left, right", [
    (np.array([0, 3]), np.array([1])),
    ([np.int64(3), np.int32(0)], (np.uint8(1),)),
    ([0, 3, 3], [1]),
    (frozenset({np.int64(0), np.int64(3)}), {1}),
], ids=["arrays", "numpy-scalars", "lists", "sets"])
def test_partition_stores_category_sets_as_python_ints(left, right):
    partition = Partition(1, left_categories=left, right_categories=right)
    assert partition == CATEGORY_CUT and hash(partition) == hash(CATEGORY_CUT)
    for cats in (partition.left_categories, partition.right_categories):
        assert type(cats) is frozenset
        assert all(type(c) is int for c in cats)


def test_growth_builds_one_partition_per_scanned_candidate(monkeypatch):
    """Depth-1 trees search the root alone (a trinary middle child inherits
    the root's scans), so growth builds exactly the root's candidates."""
    rng = np.random.default_rng(14)
    n = 300
    x = rng.normal(size=(n, 2))
    few = rng.integers(0, 5, size=n)  # cut exhaustively
    many = rng.integers(0, MAX_EXHAUSTIVE_CATEGORIES + 4, size=n)  # cut by prefixes
    y = np.digitize(x[:, 0] + 0.3 * few - 0.1 * many + rng.normal(scale=0.5, size=n), [-0.5, 0.5])
    cols = [numeric(f"x{j}", np.where(rng.random(n) < 0.2, np.nan, x[:, j])) for j in range(2)]
    cols.append(FeatureColumn("few", CATEGORICAL, np.where(rng.random(n) < 0.2, -1, few),
                              tuple("abcde")))
    cols.append(FeatureColumn("many", CATEGORICAL, many,
                              tuple(f"c{k}" for k in range(MAX_EXHAUSTIVE_CATEGORIES + 4))))
    ds = Dataset(tuple(cols), ResponseColumn(CLASS, y, ("l0", "l1", "l2")))
    kind = loss_for(ds)
    assert kind.n_classes == 3
    rows = np.arange(n)
    per_feature = [len(enumerate_candidates(c, j, rows, ds.response.values, kind)) for j, c in enumerate(ds.columns)]
    assert per_feature[2:] == [2 ** 4 - 1, MAX_EXHAUSTIVE_CATEGORIES + 3]  # exhaustive, then prefix cuts
    assert min(per_feature[:2]) > 100

    built = 0
    original = Partition.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        original(self)

    monkeypatch.setattr(Partition, "__post_init__", counting)
    for strategy in (Strategy.MAJORITY, Strategy.TRINARY):
        built = 0
        tree = tree_module.train(ds, tree_module.TrainConfig(strategy, max_depth=1))
        assert built == sum(per_feature), strategy
        assert isinstance(tree.root, Branch)
        # the trinary root grows a middle child, which splits again on the inherited scans
        assert (tree.root.middle is not None) == (strategy is Strategy.TRINARY)
        if strategy is Strategy.TRINARY:
            assert isinstance(tree.root.middle, Branch)
    monkeypatch.undo()
    assert Partition.__post_init__ is original


def _record_builds(monkeypatch) -> list:
    """Each Partition built from now on, as (feature, category set), the
    set None for a numeric one."""
    built = []
    original = Partition.__post_init__

    def recording(self):
        original(self)
        built.append((self.feature, None if self.is_numeric else self.left_categories | self.right_categories))

    monkeypatch.setattr(Partition, "__post_init__", recording)
    return built


def _n_cuts(n_categories, kind):
    exhaustive = kind.n_classes > 2 and n_categories <= MAX_EXHAUSTIVE_CATEGORIES
    return 2 ** (n_categories - 1) - 1 if exhaustive else n_categories - 1


def _unit_table(classify, n_units=80, seed=3):
    """Units of 12 rows that share their numeric cells (x1 missing in some
    units) and their response. Inside a unit, row k has category k of
    ``many`` and k % 4 of ``few``. A numeric split keeps units whole, so a
    node sees every category of both."""
    rng = np.random.default_rng(seed)
    size = 12
    x = rng.normal(size=(n_units, 2))
    x[rng.random(n_units) < 0.15, 1] = np.nan
    signal = x[:, 0] + 0.5 * np.nan_to_num(x[:, 1]) + rng.normal(scale=0.3, size=n_units)
    k = np.tile(np.arange(size), n_units)
    cols = [numeric(f"x{j}", np.repeat(x[:, j], size)) for j in range(2)]
    cols.append(FeatureColumn("few", CATEGORICAL, k % 4, tuple("abcd")))
    cols.append(FeatureColumn("many", CATEGORICAL, k, tuple(f"c{j}" for j in range(size))))
    if classify:
        response = ResponseColumn(CLASS, np.repeat(np.digitize(signal, [-0.5, 0.5]), size), ("l0", "l1", "l2"))
    else:
        response = ResponseColumn(REAL, np.repeat(signal, size))
    return Dataset(tuple(cols), response)


def _split_features(node):
    stack, found = [node], []
    while stack:
        node = stack.pop()
        if isinstance(node, Branch):
            found.append(node.spec.partition.feature)
            stack.extend(c for c in (node.left, node.right, node.middle) if c is not None)
    return found


@pytest.mark.parametrize("classify", [True, False], ids=["3-class", "sse"])
@pytest.mark.parametrize("strategy", [Strategy.MAJORITY, Strategy.TRINARY])
def test_growth_builds_each_exhaustive_cut_list_once_per_tree(monkeypatch, classify, strategy):
    """Deep trees meet the same category sets at many nodes. Exhaustive
    cuts (three classes, at most MAX_EXHAUSTIVE_CATEGORIES categories) are
    built once per (feature, category set) in a tree; prefix cuts (sse, or
    three classes over more categories) at every node that scans them."""
    ds = _unit_table(classify)
    kind = loss_for(ds)
    built = _record_builds(monkeypatch)
    scanned = []  # (feature, observed categories) of each categorical scan
    original = split_module._categorical_candidates

    def recording(feature, counts, *args):
        scanned.append((feature, frozenset(np.flatnonzero(counts).tolist())))
        return original(feature, counts, *args)

    monkeypatch.setattr(split_module, "_categorical_candidates", recording)
    tree = tree_module.train(ds, tree_module.TrainConfig(strategy, max_depth=4, min_samples=7))
    assert len(_split_features(tree.root)) > 8

    def exhaustive(cats):
        return kind.n_classes > 2 and len(cats) <= MAX_EXHAUSTIVE_CATEGORIES

    once = {s for s in scanned if exhaustive(s[1])}
    per_node = [s for s in scanned if not exhaustive(s[1])]
    expected = sum(_n_cuts(len(cats), kind) for _, cats in [*once, *per_node] if len(cats) > 1)
    assert sum(b[1] is not None for b in built) == expected
    assert len(per_node) > len(set(per_node))  # prefix cuts are rebuilt
    if classify:
        # the 4-category feature is exhaustive and met at many nodes
        assert len(scanned) - len(per_node) > 2 * len(once) > 0


def test_public_calls_build_every_candidate_each_time(monkeypatch):
    """enumerate_candidates and best_split keep no cut list between calls."""
    ds = _unit_table(classify=True)
    kind = loss_for(ds)
    rows = np.arange(ds.n_rows)
    features = range(ds.n_features)
    built = _record_builds(monkeypatch)
    for _ in range(2):
        del built[:]
        per_feature = [len(enumerate_candidates(c, j, rows, ds.response.values, kind))
                       for j, c in enumerate(ds.columns)]
        assert len(built) == sum(per_feature)
        assert per_feature[2:] == [2 ** 3 - 1, 11]  # exhaustive, then prefix cuts
    for _ in range(2):
        del built[:]
        assert best_split(ds, rows, features, Strategy.TRINARY, kind) is not None
        assert len(built) == sum(per_feature)


def _deep_class_table(seed=5, n=500):
    """Three classes over three numeric features, a categorical one cut
    exhaustively (6 levels) and one cut by prefixes (14 levels), each 20%
    MCAR; fewer than tree.PARALLEL_ROWS rows, so one process grows it."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, 3)), 2)
    few = rng.integers(0, 6, size=n)
    many = rng.integers(0, MAX_EXHAUSTIVE_CATEGORIES + 4, size=n)
    signal = x[:, 0] - 0.5 * x[:, 1] + 0.3 * few - 0.1 * many + rng.normal(scale=0.5, size=n)
    miss = rng.random((n, 5)) < 0.2
    cols = [numeric(f"x{j}", np.where(miss[:, j], np.nan, x[:, j])) for j in range(3)]
    cols.append(FeatureColumn("few", CATEGORICAL, np.where(miss[:, 3], -1, few), tuple("abcdef")))
    cols.append(FeatureColumn("many", CATEGORICAL, np.where(miss[:, 4], -1, many),
                              tuple(f"c{k}" for k in range(MAX_EXHAUSTIVE_CATEGORIES + 4))))
    return Dataset(tuple(cols), ResponseColumn(CLASS, np.digitize(signal, [-0.5, 0.5]), ("l0", "l1", "l2")))


@pytest.mark.parametrize("strategy, expected", [(Strategy.TRINARY, 25392), (Strategy.MAJORITY, 3768)])
def test_deep_class_tree_builds_a_pinned_number_of_partitions(monkeypatch, strategy, expected):
    """Depth-4 trees scan frontiers of many nodes together. The Partitions
    they build are pinned at the count of a growth that scanned each node
    alone, so a frontier scan neither skips nor repeats a candidate."""
    ds = _deep_class_table()
    frontiers = []
    original = tree_module.scan_features

    def recording(ds, nodes, *args):
        frontiers.append(len(nodes))
        return original(ds, nodes, *args)

    monkeypatch.setattr(tree_module, "scan_features", recording)
    built = _record_builds(monkeypatch)
    tree = tree_module.train(ds, tree_module.TrainConfig(strategy, max_depth=4))
    assert len(built) == expected
    assert frontiers[0] == 1 and max(frontiers) > 4
    assert tree_module.truncate(tree, 3) != tree


def _scan_bits(scan) -> dict:
    """A node's scan with each entry's loss as its exact bits."""
    return {(feature, style): None if e is None else (e.loss.hex(), e.partition, e.route)
            for feature, entries in scan.items() for style, e in entries.items()}


@st.composite
def _class_tables(draw):
    """2-4 classes; numeric features, some with ties, categorical ones of at
    most and of more than MAX_EXHAUSTIVE_CATEGORIES levels; 0-40% MCAR.
    Some tables reach tree.PARALLEL_ROWS rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([30, 80, 200, tree_module.PARALLEL_ROWS + 40]))
    n_classes = draw(st.integers(2, 4))
    signal = rng.normal(scale=0.7, size=n)
    cols = []
    for j in range(draw(st.integers(2, 6))):
        miss = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.25, 0.4]))
        levels = draw(st.sampled_from([0, 0, 3, MAX_EXHAUSTIVE_CATEGORIES, MAX_EXHAUSTIVE_CATEGORIES + 3]))
        if levels:
            codes = rng.integers(0, levels, size=n)
            signal += rng.normal() * codes / levels
            cols.append(FeatureColumn(f"g{j}", CATEGORICAL, np.where(miss, -1, codes),
                                      tuple(f"c{k}" for k in range(levels))))
        else:
            x = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            signal += rng.normal() * x
            cols.append(numeric(f"x{j}", np.where(miss, np.nan, x)))
    edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
    labels = tuple(f"l{k}" for k in range(n_classes))
    return Dataset(tuple(cols), ResponseColumn(CLASS, np.searchsorted(edges, signal), labels))


@given(_class_tables(), st.integers(1, 5), st.sampled_from([2, 5]))
@settings(max_examples=25, deadline=None)
def test_frontier_scans_are_scans_of_one_node(ds, max_depth, min_samples):
    """Every frontier node's entries, loss bits, partition and route, are
    those of the node's own scan through its one-node tables
    (split._scan_node: _candidate_table, priced by loss.fitted), under all
    five strategies; and a tree on one CPU is byte for byte the tree on two."""
    original = tree_module.scan_features

    def checking(ds, nodes, strategy, kind, cfg, memo):
        styles = (Strategy.MIA, Strategy.TRINARY) if strategy is Strategy.TRINARY_MIA else (strategy,)
        for (rows, features, w, value), scan in zip(nodes, original(ds, nodes, strategy, kind, cfg, memo)):
            alone = split_module._scan_node(ds, rows, features, w, value, kind, cfg, styles, {})
            assert _scan_bits(scan) == _scan_bits(alone)
            yield scan

    with pytest.MonkeyPatch.context() as patch:
        for strategy in Strategy:
            cfg = tree_module.TrainConfig(strategy, max_depth=max_depth, min_samples=min_samples)
            patch.setattr(parallel, "usable_cpus", lambda: 1)
            patch.setattr(tree_module, "scan_features", checking)
            alone = serialize(tree_module.train(ds, cfg))
            patch.setattr(tree_module, "scan_features", original)
            patch.setattr(parallel, "usable_cpus", lambda: 2)
            assert serialize(tree_module.train(ds, cfg)) == alone, strategy


def _three_class_node(seed=11, n=40):
    """A numeric and a four-level categorical feature, each about 25%
    MCAR, and three classes: the Dataset and the oracle's cell lists."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=n), 1)
    x[rng.random(n) < 0.25] = np.nan
    g = np.where(rng.random(n) < 0.25, -1, rng.integers(0, 4, size=n))
    y = rng.integers(0, 3, size=n)
    cats = ("a", "b", "c", "d")
    ds = Dataset((numeric("x", x), FeatureColumn("g", CATEGORICAL, g, cats)),
                 ResponseColumn(CLASS, y, ("l0", "l1", "l2")))
    cells = [[None if np.isnan(v) else float(v) for v in x], [None if c < 0 else cats[c] for c in g]]
    return ds, cells, y.tolist()


def _record_pricing(monkeypatch) -> dict:
    """Blocks priced from now on, by loss.fitted and by loss.fitted_counts."""
    calls = {"fitted": 0, "counts": 0}
    fitted, counts = split_module.fitted, split_module.fitted_counts

    def by_fitted(S, kind):
        calls["fitted"] += 1
        return fitted(S, kind)

    def by_counts(S, table):
        calls["counts"] += 1
        return counts(S, table)

    monkeypatch.setattr(split_module, "fitted", by_fitted)
    monkeypatch.setattr(split_module, "fitted_counts", by_counts)
    return calls


@pytest.mark.parametrize("strategy", [Strategy.MAJORITY, Strategy.MIA, Strategy.FC])
def test_a_node_with_a_fractional_weight_is_priced_by_fitted(monkeypatch, strategy):
    """The count path is chosen by the node's weights, not its strategy:
    one weight of 0.5 makes fractional blocks, which only loss.fitted
    prices, and the scan's own best price matches the oracle's."""
    ds, cells, y = _three_class_node()
    kind = loss_for(ds)
    rows = np.arange(ds.n_rows)
    weights = np.ones(ds.n_rows)
    weights[7] = 0.5
    cfg = SplitConfig(min_child=2, min_child_weight=2.0)
    expected = best_loss(cells, y, 3, strategy.value, min_child=2, min_child_weight=2.0, weights=weights.tolist())
    calls = _record_pricing(monkeypatch)
    got = best_split(ds, rows, [0, 1], strategy, kind, cfg, weights=weights)
    assert got.total_loss == pytest.approx(expected, rel=1e-12)
    node = (rows, [0, 1], weights, fit_leaf(ds.response.values, kind, weights))
    scans = next(split_module.scan_features(ds, [node], strategy, kind, cfg, {}))
    assert min(scan[strategy].loss for scan in scans.values()) == pytest.approx(expected, rel=1e-12)
    assert calls["counts"] == 0 and calls["fitted"] > 0


@pytest.mark.parametrize("strategy", [Strategy.MAJORITY, Strategy.MIA, Strategy.FC])
def test_unit_weights_are_priced_from_counts_as_no_weights_are(monkeypatch, strategy):
    ds, cells, y = _three_class_node()
    kind = loss_for(ds)
    rows = np.arange(ds.n_rows)
    cfg = SplitConfig(min_child=2, min_child_weight=2.0)
    calls = _record_pricing(monkeypatch)
    plain = best_split(ds, rows, [0, 1], strategy, kind, cfg)
    assert calls["counts"] > 0
    # fc's α-scaled blocks are fractional even here
    assert (calls["fitted"] > 0) == (strategy is Strategy.FC)
    unit = best_split(ds, rows, [0, 1], strategy, kind, cfg, weights=np.ones(ds.n_rows))
    assert (unit.partition, unit.route, unit.total_loss) == (plain.partition, plain.route, plain.total_loss)
    assert np.array_equal(unit.left_rows, plain.left_rows) and np.array_equal(unit.right_rows, plain.right_rows)
    expected = best_loss(cells, y, 3, strategy.value, min_child=2, min_child_weight=2.0)
    assert plain.total_loss == pytest.approx(expected, rel=1e-12)


def test_growth_builds_one_count_table_per_tree_for_the_root(monkeypatch):
    ds = _unit_table(classify=True)
    sizes = []
    original = split_module.xlogx_table

    def recording(n):
        sizes.append(n)
        return original(n)

    monkeypatch.setattr(split_module, "xlogx_table", recording)
    rows = np.arange(0, ds.n_rows, 2)
    for strategy in (Strategy.TRINARY, Strategy.MIA, Strategy.FC):
        del sizes[:]
        tree_module.train(ds, tree_module.TrainConfig(strategy, max_depth=3, min_samples=7), rows)
        assert sizes == [rows.size]
    tree_module.train(_unit_table(classify=False), tree_module.TrainConfig(Strategy.MIA, max_depth=3))
    assert sizes == [rows.size]  # none for SSE


def test_unseen_category_counts_as_missing():
    # node rows never show category "z"; a row carrying it routes like missing
    cats = ("a", "b", "z")
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 0, 1, 1, 2]), cats)
    ds = regression([col], [0.0, 0.0, 10.0, 10.0, 5.0])
    part = Partition(0, left_categories=frozenset({0}), right_categories=frozenset({1}))
    scored = score_trinary(ds, np.arange(5), part, SSE)
    assert list(scored.middle_rows) == [4]


@pytest.mark.parametrize("strategy,classify,missing_rate", [
    # without missing rows the routing is vacuous and the classical
    # ordering trick applies to every strategy; with missing rows it is
    # exact only for trinary, whose middle term ignores the partition
    (Strategy.MIA, False, 0.0),
    (Strategy.MIA, True, 0.0),
    (Strategy.TRINARY, False, 0.25),
])
def test_categorical_prefix_matches_exhaustive(strategy, classify, missing_rate):
    # mean-ordered prefix cuts reach the exhaustive-bipartition minimum
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(6, 14))
        m = int(rng.integers(2, 7))
        cats = tuple(f"c{t}" for t in range(m))
        codes = rng.integers(0, m, size=n).astype(np.int64)
        miss = rng.random(n) < missing_rate
        codes[miss] = -1
        col = FeatureColumn("c", CATEGORICAL, codes, cats)
        if classify:
            y_arr = rng.integers(0, 2, size=n).astype(np.int64)
            resp = ResponseColumn(CLASS, y_arr, ("n", "p"))
            kind = LossKind.cross_entropy(2)
            y_list = [int(v) for v in y_arr]
            n_classes = 2
        else:
            # duplicated response values on purpose: mean ties must not break it
            y_arr = rng.choice([0.0, 1.0, 2.0], size=n)
            resp = ResponseColumn(REAL, y_arr)
            kind = SSE
            y_list = list(y_arr)
            n_classes = 0
        ds = Dataset((col,), resp)
        cells = [[cats[c] if c >= 0 else None for c in codes]]
        expected = best_loss(cells, y_list, n_classes, strategy.value,
                             min_child=1, exhaustive_categorical=True)
        got = best_split(ds, np.arange(n), [0], strategy, kind, SplitConfig(1, 1.0))
        if expected is None:
            assert got is None
        else:
            assert got.total_loss == pytest.approx(expected, abs=1e-9)


def test_small_oracle_equivalence_all_strategies():
    rng = np.random.default_rng(202)
    strategies = [(s, s.value) for s in Strategy]
    checked = 0
    for _ in range(40):
        ds, cells, y, n_classes = random_problem(rng)
        kind = LossKind.cross_entropy(n_classes) if n_classes else SSE
        rows = np.arange(ds.n_rows)
        for strategy, name in strategies:
            expected = best_loss(cells, y, n_classes, name, min_child=1)
            got = best_split(ds, rows, range(ds.n_features), strategy, kind, SplitConfig(1, 1.0))
            if expected is None:
                assert got is None, f"{name}: engine found a split the oracle ruled out"
            else:
                assert got is not None, f"{name}: oracle found a split the engine missed"
                assert got.total_loss == pytest.approx(expected, abs=1e-9), name
                checked += 1
    assert checked > 50


def _mcar_table(n_classes, seed):
    """Two numeric and two categorical features, 25% MCAR each. ``g2``'s
    dictionary has a name, ``rare``, carried by three rows only, so most
    nodes never see it."""
    rng = np.random.default_rng(seed)
    n = 240
    x = rng.normal(size=(n, 2))
    g1 = rng.integers(0, 4, size=n)
    g2 = rng.integers(0, 3, size=n)
    g2[rng.choice(n, size=3, replace=False)] = 3
    signal = x[:, 0] - x[:, 1] + g1 + 0.5 * g2 + rng.normal(scale=0.3, size=n)
    miss = rng.random((n, 4)) < 0.25
    cols = [numeric(f"x{j}", np.where(miss[:, j], np.nan, x[:, j])) for j in range(2)]
    cols.append(FeatureColumn("g1", CATEGORICAL, np.where(miss[:, 2], -1, g1), ("a", "b", "c", "d")))
    cols.append(FeatureColumn("g2", CATEGORICAL, np.where(miss[:, 3], -1, g2), ("a", "b", "c", "rare")))
    if n_classes:
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        labels = tuple(f"l{k}" for k in range(n_classes))
        return Dataset(tuple(cols), ResponseColumn(CLASS, np.searchsorted(edges, signal), labels))
    return Dataset(tuple(cols), ResponseColumn(REAL, signal))


def _score_like(ds, rows, partition, route, weights):
    """The public scorer of ``route``, at floors that every routed split meets."""
    kind = loss_for(ds)
    if route is MissingRoute.MIDDLE:
        return score_trinary(ds, rows, partition, kind, min_child=1)
    if route is MissingRoute.FRACTIONAL:
        return score_fractional(ds, rows, partition, kind, min_child_weight=0.0, weights=weights)
    return score_binary(ds, rows, partition, route, kind, min_child=1, weights=weights)


def _assert_same_children(children, scored):
    assert (children is None) == (scored is None)
    if children is None:
        return
    for name in ("left_rows", "right_rows", "middle_rows"):
        got, want = getattr(children, name), getattr(scored, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    if scored.route is MissingRoute.FRACTIONAL:
        assert children.left_weights.tobytes() == scored.left_weights.tobytes()
        assert children.right_weights.tobytes() == scored.right_weights.tobytes()
        assert children.frac_left == scored.frac_left


def _routed_one_by_one(ds, rows, partition, route, weights):
    """Reference child rows and fc weights, routing one cell at a time."""
    values = ds.columns[partition.feature].values
    w = np.ones(len(rows)) if weights is None else weights
    side = []
    for r in rows:
        v = values[r]
        if partition.is_numeric:
            side.append("missing" if np.isnan(v) else "left" if v <= partition.threshold else "right")
        else:
            side.append("left" if v in partition.left_categories
                        else "right" if v in partition.right_categories else "missing")

    def pick(*names):
        return [i for i, s in enumerate(side) if s in names]

    left, right, missing = pick("left"), pick("right"), pick("missing")
    if route is MissingRoute.FRACTIONAL:
        frac = len(left) / (len(left) + len(right))
        return (rows[left + missing], rows[right + missing], rows[:0],
                np.concatenate([w[left], w[missing] * frac]), np.concatenate([w[right], w[missing] * (1.0 - frac)]))
    if route is MissingRoute.LEFT:
        left = pick("left", "missing")
    elif route is MissingRoute.RIGHT:
        right = pick("right", "missing")
    return rows[left], rows[right], rows[missing] if route is MissingRoute.MIDDLE else rows[:0], w[left], w[right]


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_growth_split_rows_match_scorers(strategy, n_classes, monkeypatch):
    """Growth splits each winner by rows only; the public scorer on the same
    winner gives the same row arrays, fc weights and fraction. Unweighted
    left, right and middle children get no weight arrays; fractional and
    weighted children get the weights routed one cell at a time. Every
    scan gets its node's weights: None, but below a fractional split."""
    calls, scanned = [], []

    def spy(*args):
        calls.append(args)
        return split_rows(*args)

    def scan_spy(*args):
        scanned.extend(w for _, _, w, _ in args[1])  # each frontier node's weights
        return scan_features(*args)

    monkeypatch.setattr(tree_module, "split_rows", spy)
    monkeypatch.setattr(tree_module, "scan_features", scan_spy)
    ds = _mcar_table(n_classes, seed=11)
    tree_module.train(ds, tree_module.TrainConfig(strategy, max_depth=4, min_samples=3))
    # the root scan comes first; an fc tree splits fractionally at every node
    assert len(scanned) > 1 and scanned[0] is None
    below_root = np.ndarray if strategy is Strategy.FC else type(None)
    assert all(type(w) is below_root for w in scanned[1:])
    # some categorical split was chosen at a node that never saw one of
    # the feature's categories
    unseen = [
        set(ds.columns[p.feature].values.tolist()) - {-1} - p.left_categories - p.right_categories
        for p in (args[2] for args in calls) if not p.is_numeric
    ]
    assert any(unseen)
    for _, rows, partition, route, weights in calls:
        # the node's rows, then the whole table, where categories the node
        # never saw route as missing, then the node's rows weighted
        everywhere = np.arange(ds.n_rows)
        for rows, weights in ((rows, weights), (everywhere, None), (rows, np.linspace(0.5, 2.0, len(rows)))):
            args = (ds, rows, partition, route, weights)
            children = split_rows(*args)
            _assert_same_children(children, _score_like(*args))
            if children is not None:
                got = (children.left_rows, children.right_rows, children.middle_rows)
                want = _routed_one_by_one(ds, rows, partition, route, weights)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                if weights is None and route is not MissingRoute.FRACTIONAL:
                    assert children.left_weights is None and children.right_weights is None
                else:
                    assert children.left_weights.tobytes() == want[3].tobytes()
                    assert children.right_weights.tobytes() == want[4].tobytes()


def test_fc_feasibility_at_the_weight_floor_comes_from_the_scan(monkeypatch):
    """The scan prices fc child weights from cumulative sums, which can
    reach the floor (5.0) where direct sums of the same weights fall a bit
    short (4.999999999999999). Growth and best_split take the scan's
    verdict and only route the winner's rows, so the sweep runs, and a
    deeper tree cut back to the tuned depth is the tree grown there."""
    from nantree import ExperimentConfig, TrainConfig, bench, run_experiment, serialize, stratified_kfold
    from nantree.censor import censor_im
    from nantree.datasets import tree_structured_data

    ds = tree_structured_data(n_rows=300, seed=3)
    cfg = ExperimentConfig(datasets=(("t", ds),), strategies=(Strategy.FC,), scenario="im",
                           q_grid=(0.6,), folds=4, depth_grid_max=4, min_samples=5, seed=2)
    assert len(run_experiment(cfg)) == cfg.folds + 1

    # the fold whose fc tree met the boundary, grown at the tuned depth 3
    folds = stratified_kfold(ds, cfg.folds, bench._fold_seed(cfg.seed, 0))
    censored = censor_im(ds.subset(folds.train_rows(3)), 0.6)
    nodes = []

    def spy(*args):
        nodes.append(args)
        return split_rows(*args)

    monkeypatch.setattr(tree_module, "split_rows", spy)
    tree = tree_module.train(censored, TrainConfig(Strategy.FC, max_depth=3, min_samples=5))
    monkeypatch.undo()
    kind = loss_for(censored)
    at_floor = [args for args in nodes
                if score_fractional(*args[:3], kind, min_child_weight=5.0, weights=args[4]) is None]
    assert len(at_floor) == 1
    _, rows, partition, route, weights = at_floor[0]
    children = split_rows(censored, rows, partition, route, weights=weights)
    assert children.left_weights.sum() < 5.0 and children.right_weights.sum() < 5.0

    scored = best_split(censored, rows, range(censored.n_features), Strategy.FC, kind,
                        SplitConfig(min_child=5, min_child_weight=5.0), weights=weights)
    assert (scored.partition, scored.route) == (partition, route)
    assert scored.left_weights.tobytes() == children.left_weights.tobytes()
    assert serialize(tree_module.truncate(tree, 3)) == serialize(tree)
    deeper = tree_module.train(censored, TrainConfig(Strategy.FC, max_depth=4, min_samples=5))
    assert serialize(tree_module.truncate(deeper, 3)) == serialize(tree)
