import json
import math

import numpy as np
import pytest

from nantree import (
    Branch,
    Dataset,
    FeatureColumn,
    Leaf,
    LossKind,
    MissingRoute,
    ResponseColumn,
    SplitConfig,
    Strategy,
    TrainConfig,
    TreeFormatError,
    ValidationError,
    deserialize,
    evaluate,
    predict,
    predict_row,
    render,
    serialize,
    train,
)
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL
from nantree.loss import LOG_CLAMP

from conftest import random_problem


def regression(xcols, y):
    return Dataset(tuple(xcols), ResponseColumn(REAL, np.asarray(y, dtype=float)))


def numeric(name, values):
    return FeatureColumn(name, NUMERIC, np.asarray(values, dtype=float))


STEP = regression([numeric("x", [1.0, 2.0, 3.0, 4.0])], [0.0, 0.0, 10.0, 10.0])


@pytest.mark.parametrize("strategy", list(Strategy))
def test_step_function_root_split(strategy):
    tree = train(STEP, TrainConfig(strategy, max_depth=3, min_samples=1))
    root = tree.root
    assert isinstance(root, Branch)
    assert root.spec.partition.threshold == 2.5
    got = predict(tree, STEP)
    assert got.tolist() == [0.0, 0.0, 10.0, 10.0]


def test_config_validation():
    with pytest.raises(ValidationError, match="max_depth"):
        TrainConfig(Strategy.MIA, max_depth=-1)
    with pytest.raises(ValidationError, match="min_samples"):
        TrainConfig(Strategy.MIA, min_samples=0)
    with pytest.raises(ValidationError, match="min_child"):
        SplitConfig(min_child=0)
    with pytest.raises(ValidationError, match="min_child_weight"):
        SplitConfig(min_child_weight=0.0)


def test_max_depth_zero_gives_single_leaf():
    ds = regression([numeric("x", list(range(10)))], [3.5] * 10)
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=0))
    assert isinstance(tree.root, Leaf)
    assert render(tree) == "d0 leaf δ=3.5 (n=10)"


def test_pure_node_stops_splitting():
    ds = regression([numeric("x", [1.0, 2.0, 3.0])], [4.0, 4.0, 4.0])
    tree = train(ds, TrainConfig(Strategy.MIA, max_depth=5, min_samples=1))
    assert isinstance(tree.root, Leaf)


def test_min_samples_stops_splitting():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=5, min_samples=3))
    # a 2/2 split would starve both children, and 4 < 2*3 stops the node early
    assert isinstance(tree.root, Leaf)


TRI_DS = regression(
    [numeric("x", [1.0, 2.0, 3.0, 4.0, np.nan, np.nan])],
    [0.0, 0.0, 10.0, 10.0, 5.0, 5.0],
)


def test_trinary_depth1_structure_and_predictions():
    tree = train(TRI_DS, TrainConfig(Strategy.TRINARY, max_depth=1, min_samples=1))
    root = tree.root
    assert isinstance(root, Branch)
    assert root.spec.route is MissingRoute.MIDDLE
    assert root.spec.partition.threshold == 2.5
    # left and right leaves fit observed rows only
    assert root.left.value == 0.0 and root.left.n_samples == 2
    assert root.right.value == 10.0 and root.right.n_samples == 2
    # the middle child re-fits the full node with the split feature gone;
    # with no features left it is a leaf at the mother's own value
    assert isinstance(root.middle, Leaf)
    assert root.middle.value == 5.0 and root.middle.n_samples == 6
    assert predict_row(tree, [1.0]) == 0.0
    assert predict_row(tree, [4.0]) == 10.0
    assert predict_row(tree, [float("nan")]) == 5.0


def test_trinary_render_exact():
    tree = train(TRI_DS, TrainConfig(Strategy.TRINARY, max_depth=1, min_samples=1))
    assert render(tree) == "\n".join([
        "d0 split x <= 2.5 (n=6, missing->middle)",
        "d1   left: leaf δ=0.0 (n=2)",
        "d1   right: leaf δ=10.0 (n=2)",
        "d0   missing: leaf δ=5.0 (n=6)",
    ])


def test_fc_depth1_mixture():
    tree = train(TRI_DS, TrainConfig(Strategy.FC, max_depth=1, min_samples=1))
    root = tree.root
    assert root.spec.route is MissingRoute.FRACTIONAL
    assert root.spec.partition.threshold == 2.5
    assert root.spec.w_left == 0.5 and root.spec.w_right == 0.5
    # leaves fit fractional weights: {0,0}+{5,5}@0.5 -> 5/3, mirrored right
    assert root.left.value == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert root.right.value == pytest.approx(25.0 / 3.0, abs=1e-12)
    # a missing row blends the two leaves with the observed fractions
    assert predict_row(tree, [float("nan")]) == pytest.approx(5.0, abs=1e-9)
    # fc sample counts are weight totals
    assert root.n_samples == 6.0
    assert root.left.n_samples == pytest.approx(3.0)


def test_majority_routes_missing_with_bigger_child():
    ds = regression(
        [numeric("x", [1.0, 2.0, 3.0, 4.0, 5.0, np.nan])],
        [0.0, 0.0, 0.0, 10.0, 10.0, 0.0],
    )
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    root = tree.root
    assert root.spec.route is MissingRoute.LEFT  # 3 observed left vs 2 right
    # prediction follows the training route for new missing rows too
    assert predict_row(tree, [float("nan")]) == root.left.value


def test_binary_and_trinary_agree_on_complete_rows():
    rng = np.random.default_rng(7)
    pairs = [(Strategy.MAJORITY, Strategy.TRINARY), (Strategy.MIA, Strategy.TRINARY_MIA)]
    compared = 0
    for _ in range(25):
        ds, _, _, n_classes = random_problem(rng, force_missing=0.0)
        cfg = dict(max_depth=3, min_samples=1)
        for binary_s, trinary_s in pairs:
            tb = train(ds, TrainConfig(binary_s, **cfg))
            tt = train(ds, TrainConfig(trinary_s, **cfg))
            pb = predict(tb, ds)
            pt = predict(tt, ds)
            assert np.array_equal(pb, pt)  # bitwise: same arithmetic path
            compared += 1
    assert compared == 50


def test_middle_chain_excludes_split_feature():
    rng = np.random.default_rng(3)
    n = 80
    x0 = rng.normal(size=n)
    x1 = x0 + rng.normal(scale=0.1, size=n)
    y = (x0 > 0) * 10.0 + rng.normal(scale=0.1, size=n)
    for col, rate in ((x0, 0.3), (x1, 0.3)):
        col[rng.random(n) < rate] = np.nan
    ds = regression([numeric("a", x0), numeric("b", x1)], y)
    tree = train(ds, TrainConfig(Strategy.TRINARY, max_depth=4, min_samples=5))

    def walk(node, banned):
        if isinstance(node, Leaf):
            return
        f = node.spec.partition.feature
        assert f not in banned
        walk(node.left, banned)
        walk(node.right, banned)
        if node.middle is not None:
            walk(node.middle, banned | {f})

    walk(tree.root, frozenset())


def test_depth_bound_counts_binary_splits_only():
    rng = np.random.default_rng(11)
    n = 120
    cols = [rng.normal(size=n) for _ in range(3)]
    y = cols[0] * 2 + cols[1] - cols[2] + rng.normal(scale=0.2, size=n)
    for c in cols:
        c[rng.random(n) < 0.25] = np.nan
    ds = regression([numeric(f"f{j}", c) for j, c in enumerate(cols)], y)
    max_depth = 3
    tree = train(ds, TrainConfig(Strategy.TRINARY, max_depth=max_depth, min_samples=5))

    def walk(node, depth, chain):
        if isinstance(node, Leaf):
            return
        assert depth < max_depth
        assert chain <= ds.n_features
        walk(node.left, depth + 1, 0)
        walk(node.right, depth + 1, 0)
        if node.middle is not None:
            walk(node.middle, depth, chain + 1)

    walk(tree.root, 0, 0)


def test_training_loss_never_increases_at_a_split():
    rng = np.random.default_rng(23)
    for _ in range(20):
        ds, _, _, _ = random_problem(rng)
        for strategy in Strategy:
            tree = train(ds, TrainConfig(strategy, max_depth=3, min_samples=1))
            loss, _ = evaluate(tree, ds)
            root = tree.root
            if isinstance(root, Branch) and strategy is not Strategy.FC:
                y = ds.response.values
                if tree.loss.is_classification:
                    node = train(ds, TrainConfig(strategy, max_depth=0))
                    node_loss, _ = evaluate(node, ds)
                else:
                    node_loss = float(((y - y.mean()) ** 2).sum())
                assert loss <= node_loss + 1e-9


def test_predict_rejects_mismatched_features():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    renamed = regression([numeric("z", [1.0])], [0.0])
    with pytest.raises(ValidationError):
        predict(tree, renamed)
    extra = regression([numeric("x", [1.0]), numeric("y", [1.0])], [0.0])
    with pytest.raises(ValidationError):
        predict(tree, extra)


def test_predict_remaps_category_codes_by_name():
    cats_train = ("blue", "red")
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 0, 1, 1]), cats_train)
    ds = Dataset((col,), ResponseColumn(REAL, np.array([0.0, 0.0, 10.0, 10.0])))
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    # same names, different dictionary: "green" is unseen -> missing route
    cats_test = ("green", "red", "blue")
    test_col = FeatureColumn("c", CATEGORICAL, np.array([2, 1, 0, -1]), cats_test)
    test_ds = Dataset((test_col,), ResponseColumn(REAL, np.zeros(4)))
    got = predict(tree, test_ds)
    assert got[0] == 0.0 and got[1] == 10.0
    assert got[2] == got[3]  # unseen name routes exactly like missing


def test_evaluate_regression_is_sum_of_squares():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    shifted = regression([numeric("x", [1.0, 4.0])], [1.0, 9.0])
    loss, misclass = evaluate(tree, shifted)
    assert loss == pytest.approx((1.0 - 0.0) ** 2 + (9.0 - 10.0) ** 2, abs=1e-12)
    assert misclass is None


def test_evaluate_clamps_unseen_class():
    col = numeric("x", [0.0, 1.0, 2.0, 3.0])
    ds = Dataset((col,), ResponseColumn(CLASS, np.array([0, 0, 1, 1]), ("a", "b")))
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    test = Dataset((numeric("x", [0.0]),), ResponseColumn(CLASS, np.array([1]), ("a", "b")))
    loss, misclass = evaluate(tree, test)
    # the left leaf never saw class b: probability clamps instead of inf
    assert loss == pytest.approx(-math.log(LOG_CLAMP), rel=1e-12)
    assert misclass == 1.0


def test_classification_predictions_are_distributions():
    rng = np.random.default_rng(40)
    seen = 0
    while seen < 8:
        ds, _, _, n_classes = random_problem(rng)
        if not n_classes:
            continue
        seen += 1
        tree = train(ds, TrainConfig(Strategy.FC, max_depth=3, min_samples=1))
        probs = predict(tree, ds)
        assert probs.shape == (ds.n_rows, n_classes)
        assert (probs >= 0).all()
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_loss_response_mismatch_rejected():
    with pytest.raises(ValidationError):
        train(STEP, TrainConfig(Strategy.MAJORITY, loss=LossKind.cross_entropy(2)))
    col = numeric("x", [0.0, 1.0])
    cds = Dataset((col,), ResponseColumn(CLASS, np.array([0, 1]), ("a", "b")))
    with pytest.raises(ValidationError):
        train(cds, TrainConfig(Strategy.MAJORITY, loss=LossKind.sse()))


def test_train_empty_rows_rejected():
    with pytest.raises(ValidationError):
        train(STEP, TrainConfig(Strategy.MAJORITY), rows=np.array([], dtype=np.int64))


def test_serialize_round_trip_random_trees():
    rng = np.random.default_rng(77)
    strategies = list(Strategy)
    for i in range(20):
        ds, _, _, _ = random_problem(rng)
        strategy = strategies[i % len(strategies)]
        tree = train(ds, TrainConfig(strategy, max_depth=3, min_samples=1))
        text = serialize(tree)
        back = deserialize(text)
        assert np.array_equal(predict(tree, ds), predict(back, ds))
        assert serialize(back) == text  # stable text after one round trip
        assert back.strategy is tree.strategy
        assert back.feature_names == tree.feature_names
        assert back.categories == tree.categories
        assert back.response_labels == tree.response_labels


def _classification_tree():
    col = numeric("x", [0.0, 1.0, 2.0, 3.0])
    ds = Dataset((col,), ResponseColumn(CLASS, np.array([0, 0, 1, 1]), ("a", "b")))
    return train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))


def _set_first_leaf_probs(doc, probs):
    node = doc["root"]
    while node["kind"] != "leaf":
        node = node["left"]
    node["value"] = probs


def test_deserialize_rejects_bad_probabilities():
    doc = json.loads(serialize(_classification_tree()))
    _set_first_leaf_probs(doc, [0.6, 0.3])
    with pytest.raises(TreeFormatError, match="sum"):
        deserialize(json.dumps(doc))
    doc2 = json.loads(serialize(_classification_tree()))
    _set_first_leaf_probs(doc2, [1.2, -0.2])
    with pytest.raises(TreeFormatError, match="non-negative"):
        deserialize(json.dumps(doc2))


def test_deserialize_rejects_malformed_documents():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    good = json.loads(serialize(tree))

    with pytest.raises(TreeFormatError, match="JSON"):
        deserialize("{not json")
    with pytest.raises(TreeFormatError, match="format"):
        deserialize(json.dumps({**good, "format": "elsewhere/9"}))
    with pytest.raises(TreeFormatError, match="strategy"):
        deserialize(json.dumps({**good, "strategy": "psychic"}))

    missing_field = json.loads(serialize(tree))
    del missing_field["root"]["left"]
    with pytest.raises(TreeFormatError, match="left"):
        deserialize(json.dumps(missing_field))

    bad_feature = json.loads(serialize(tree))
    bad_feature["root"]["feature"] = "ghost"
    with pytest.raises(TreeFormatError, match="ghost"):
        deserialize(json.dumps(bad_feature))


def test_deserialize_rejects_route_kind_mismatch():
    tree = train(TRI_DS, TrainConfig(Strategy.TRINARY, max_depth=1, min_samples=1))
    doc = json.loads(serialize(tree))
    assert doc["root"]["kind"] == "trinary"
    doc["root"]["kind"] = "binary"
    with pytest.raises(TreeFormatError):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_bad_fractional_weights():
    tree = train(TRI_DS, TrainConfig(Strategy.FC, max_depth=1, min_samples=1))
    doc = json.loads(serialize(tree))
    doc["root"]["w_left"] = 0.7  # w_right stays 0.5
    with pytest.raises(TreeFormatError, match="weights"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_unknown_category():
    cats = ("blue", "red")
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 0, 1, 1]), cats)
    ds = Dataset((col,), ResponseColumn(REAL, np.array([0.0, 0.0, 10.0, 10.0])))
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    doc = json.loads(serialize(tree))
    doc["root"]["left_categories"] = ["chartreuse"]
    with pytest.raises(TreeFormatError, match="chartreuse"):
        deserialize(json.dumps(doc))


def _mixed_tables(n_classes, seed=0):
    """Train and test tables over two numeric and two categorical features,
    30% MCAR everywhere; the test dictionary of ``g1`` adds a name, ``e``,
    that training never saw."""
    rng = np.random.default_rng(seed)
    n = 400
    x = rng.normal(size=(2 * n, 2))
    g = rng.integers(0, 4, size=(2 * n, 2))
    signal = x[:, 0] - 2.0 * x[:, 1] + g[:, 0] + 0.5 * g[:, 1] + rng.normal(scale=0.3, size=2 * n)
    if n_classes:
        labels = tuple(f"l{k}" for k in range(n_classes))
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        response = (CLASS, np.searchsorted(edges, signal), labels)
    else:
        response = (REAL, signal, ())
    test_codes = g[n:, 0].copy()
    test_codes[rng.random(n) < 0.2] = 4

    def table(rows, g1, g1_cats):
        cols = [numeric(f"x{j}", np.where(rng.random(n) < 0.3, np.nan, x[rows, j])) for j in range(2)]
        g2 = g[rows, 1]
        for name, codes, cats in (("g1", g1, g1_cats), ("g2", g2, ("a", "b", "c", "d"))):
            codes = np.where(rng.random(n) < 0.3, -1, codes)
            cols.append(FeatureColumn(name, CATEGORICAL, codes, cats))
        kind, y, labels = response
        return Dataset(tuple(cols), ResponseColumn(kind, y[rows], labels))

    train_ds = table(slice(0, n), g[:n, 0], ("a", "b", "c", "d"))
    test_ds = table(slice(n, 2 * n), test_codes, ("a", "b", "c", "d", "e"))
    return train_ds, test_ds


def _tree_cells(tree, ds, r):
    """Row ``r`` of ``ds`` as predict_row cells, codes in the tree's dictionary."""
    cells = []
    for j, col in enumerate(ds.columns):
        v = col.values[r]
        if col.kind == CATEGORICAL:
            code_of = {c: i for i, c in enumerate(tree.categories[j])}
            v = code_of.get(col.categories[v], -1) if v >= 0 else -1
        cells.append(v)
    return cells


def _has_nested_fractional(node, inside=False):
    if isinstance(node, Leaf):
        return False
    fractional = node.spec.route is MissingRoute.FRACTIONAL
    if fractional and inside:
        return True
    return any(_has_nested_fractional(child, inside or fractional) for child in (node.left, node.right))


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_predict_equals_predict_row_bitwise(strategy, n_classes):
    train_ds, test_ds = _mixed_tables(n_classes)
    tree = train(train_ds, TrainConfig(strategy, max_depth=5, min_samples=3))
    if strategy is Strategy.FC:
        assert _has_nested_fractional(tree.root)
    assert (test_ds.columns[2].values == 4).any()  # rows with the unseen name
    permuted = np.random.default_rng(1).permutation(test_ds.n_rows)[: test_ds.n_rows // 2]
    for rows in (None, permuted, np.array([], dtype=np.int64)):
        got = predict(tree, test_ds, rows)
        rows = np.arange(test_ds.n_rows) if rows is None else rows
        assert got.shape == (len(rows),) + ((n_classes,) if n_classes else ())
        for i, r in enumerate(rows):
            want = np.asarray(predict_row(tree, _tree_cells(tree, test_ds, r)), dtype=float)
            assert got[i].tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [[10**6], [4], [-1], [0.5], [[0, 1]], [True, False, True, False]])
def test_bad_row_indices_rejected(rows):
    cfg = TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1)
    tree = train(STEP, cfg)
    with pytest.raises(ValidationError, match="row"):
        train(STEP, cfg, rows=rows)
    with pytest.raises(ValidationError, match="row"):
        predict(tree, STEP, rows)
    with pytest.raises(ValidationError, match="row"):
        evaluate(tree, STEP, rows)


def test_predict_row_rejects_wrong_cell_count():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    for cells in ([], [1.0, 2.0]):
        with pytest.raises(ValidationError, match="cells"):
            predict_row(tree, cells)
