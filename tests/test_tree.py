import gc
import json
import math
import re
import weakref
from dataclasses import replace

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
from nantree.split import MAX_EXHAUSTIVE_CATEGORIES, Partition
from nantree import tree as tree_module
from nantree.tree import SplitSpec, Tree, project, truncate

from conftest import middle_chain_tree, random_problem


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
    # a strategy's value or name is not the member: growth would find no
    # objective for it and grow a one-leaf tree that serialize cannot write
    valid = ", ".join(s.value for s in Strategy)
    for strategy in ("majority", "MIA", None, 0):
        with pytest.raises(ValidationError, match=re.escape(f"unknown strategy {strategy!r} (valid: {valid})")):
            TrainConfig(strategy)


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


def test_fc_render_exact():
    # one observed row left of the cut and two right: the missing row goes both ways
    ds = regression([numeric("x", [1.0, 3.0, 4.0, np.nan])], [0.0, 10.0, 10.0, 4.0])
    tree = train(ds, TrainConfig(Strategy.FC, max_depth=1, min_samples=1))
    assert render(tree) == "\n".join([
        "d0 split x <= 2.0 (n=4, missing->both w=(0.333333, 0.666667))",
        "d1   left: leaf δ=1.0 (n=1.33333)",
        "d1   right: leaf δ=8.5 (n=2.66667)",
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


@pytest.mark.parametrize("n_classes", [0, 3])
def test_middle_children_take_their_parents_leaf(n_classes, monkeypatch):
    """A middle child has its parent's rows and no weights, so growth hands
    it the parent's leaf: a middle child that stays a leaf is its parent's
    fit, one that splits keeps that fit, and fit_leaf runs once per node
    that is not a middle child."""
    fits = []
    fit_leaf = tree_module.fit_leaf

    def counting_fit_leaf(*args):
        fits.append(args)
        return fit_leaf(*args)

    monkeypatch.setattr(tree_module, "fit_leaf", counting_fit_leaf)
    ds = _mixed_missing_table(n_classes, seed=7, n=300)
    tree = train(ds, TrainConfig(Strategy.TRINARY, max_depth=4, min_samples=3))
    nodes = list(_nodes(tree.root))
    parents = [node for node in nodes if isinstance(node, Branch) and node.middle is not None]
    assert any(isinstance(p.middle, Leaf) for p in parents) and any(isinstance(p.middle, Branch) for p in parents)
    for parent in parents:
        assert (parent.middle if isinstance(parent.middle, Leaf) else parent.middle.fit) is parent.fit
    assert len(fits) == len(nodes) - len(parents)


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


def _two_class_step():
    col = numeric("x", [0.0, 1.0, 2.0, 3.0])
    return Dataset((col,), ResponseColumn(CLASS, np.array([0, 0, 1, 1]), ("a", "b")))


def test_evaluate_refuses_a_response_the_tree_does_not_predict():
    """A class tree on a real response, a real tree on class codes, a tree
    on a table with more classes or other labels: each is a
    ValidationError, not an IndexError or a squared error on codes."""
    class_tree = train(_two_class_step(), TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    real_tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    x = numeric("x", [0.0, 1.0, 2.0])
    real = regression([x], [0.0, 1.0, 2.0])
    three = Dataset((x,), ResponseColumn(CLASS, np.array([0, 1, 2]), ("a", "b", "c")))
    swapped = Dataset((x,), ResponseColumn(CLASS, np.array([0, 1, 1]), ("b", "a")))
    cases = [
        (class_tree, real, "predicts a 2-class response, the data holds a real one"),
        (class_tree, three, "predicts a 2-class response, the data holds a 3-class one"),
        (real_tree, Dataset((x,), three.response), "predicts a real response, the data holds a 3-class one"),
        (class_tree, swapped, r"class labels \('a', 'b'\) are not the data's \('b', 'a'\)"),
    ]
    for tree, ds, message in cases:
        with pytest.raises(ValidationError, match=message):
            evaluate(tree, ds)
    # a tree that keeps no labels checks the class count only
    relabelled = Dataset((x,), ResponseColumn(CLASS, swapped.response.values, ("a", "b")))
    assert evaluate(replace(class_tree, response_labels=()), swapped) == evaluate(class_tree, relabelled)


@pytest.mark.filterwarnings("error")
def test_evaluate_on_no_rows_is_zero():
    none = np.array([], dtype=np.int64)
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    assert evaluate(tree, STEP, none) == (0.0, None)
    col = numeric("x", [0.0, 1.0, 2.0, 3.0])
    ds = Dataset((col,), ResponseColumn(CLASS, np.array([0, 0, 1, 1]), ("a", "b")))
    tree = train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    loss, misclass = evaluate(tree, ds, none)
    assert (loss, misclass) == (0.0, 0.0)
    assert type(misclass) is float


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


def test_text_functions_leave_no_cycle_holding_the_tree():
    # a reference cycle would keep a 35k-node tree alive until the next
    # full collection, so peak memory would depend on when that runs
    rng = np.random.default_rng(5)
    ds = random_problem(rng, max_rows=40)[0]
    tree = train(ds, TrainConfig(Strategy.TRINARY, max_depth=3, min_samples=1))
    gc.collect()
    gc.disable()
    try:
        back = deserialize(serialize(tree))
        ref = weakref.ref(back)
        render(back)
        serialize(back)
        predict(back, ds)
        del back
        assert ref() is None
    finally:
        gc.enable()


def test_deep_middle_chain_serializes_and_renders():
    # deeper than the interpreter's recursion limit: both writers are iterative
    depth = 2000
    tree = middle_chain_tree(depth)
    lines = render(tree).split("\n")
    assert len(lines) == 3 * depth + 1
    assert lines[0] == f"d0 split x <= {depth - 1.0} (n=3, missing->middle)"
    assert lines[-1] == "d0 " + "  " * depth + "missing: leaf δ=0.0 (n=1)"
    closers = "".join("\n" + "  " * k + "}" for k in range(depth + 1, -1, -1))
    assert serialize(tree).endswith('"loss": 0.0' + closers)


def test_deep_middle_chain_predicts():
    # deeper than the interpreter's recursion limit: both predictors are iterative
    tree = middle_chain_tree(5000)
    ds = regression([numeric("x", [np.nan, 0.5])], [0.0, 0.0])
    assert predict(tree, ds).tolist() == [0.0, 4999.0]
    assert predict_row(tree, [np.nan]) == 0.0
    assert predict_row(tree, [0.5]) == 4999.0


def _fractional_chain(depth, n_classes):
    """A hand-built fc tree whose root starts a chain of ``depth``
    fractional splits down the left side, a leaf on each right side."""
    rng = np.random.default_rng(depth)

    def value():
        if n_classes:
            p = rng.random(n_classes)
            return p / p.sum()
        return float(rng.normal())

    node = Leaf(value=value(), n_samples=1.0, train_loss=0.0)
    for k in range(depth):
        w_left = float(rng.uniform(0.1, 0.9))
        spec = SplitSpec(Partition(0, threshold=-float(k)), MissingRoute.FRACTIONAL, w_left, 1.0 - w_left)
        node = Branch(spec, node, Leaf(value=value(), n_samples=1.0, train_loss=0.0), None, 2.0)
    kind = LossKind("xe", n_classes) if n_classes else LossKind("sse")
    labels = tuple(f"l{k}" for k in range(n_classes))
    return Tree(node, Strategy.FC, kind, ("x",), (NUMERIC,), {}, CLASS if n_classes else REAL, labels)


@pytest.mark.parametrize("n_classes", [0, 3])
def test_deep_fractional_chain_predict_equals_predict_row_bitwise(n_classes):
    depth = 3000
    tree = _fractional_chain(depth, n_classes)
    x = [np.nan, -0.5 * depth, -depth - 1.0, 1.0, np.nan]
    y = np.zeros(len(x), dtype=np.int64) if n_classes else np.zeros(len(x))
    labels = tuple(f"l{k}" for k in range(n_classes))
    ds = Dataset((numeric("x", x),), ResponseColumn(CLASS if n_classes else REAL, y, labels))
    got = predict(tree, ds)
    for i, cell in enumerate(x):
        assert got[i].tobytes() == np.asarray(predict_row(tree, [cell]), dtype=float).tobytes()
    assert got[0].tobytes() == got[4].tobytes()


def test_thousand_feature_trinary_tree_trains_predicts_and_serializes():
    # a middle chain as long as the feature count, past the recursion limit
    rng = np.random.default_rng(0)
    n, p = 60, 1100
    x = rng.normal(size=(n, p))
    x[rng.random((n, p)) < 0.3] = np.nan
    ds = regression([numeric(f"x{j}", x[:, j]) for j in range(p)], rng.normal(size=n))
    tree = train(ds, TrainConfig(Strategy.TRINARY, max_depth=1, min_samples=2))
    chain, node = 0, tree.root
    while isinstance(node, Branch):
        chain, node = chain + 1, node.middle
    assert chain == p
    got = predict(tree, ds, np.arange(5))
    for r in range(5):
        assert got[r].tobytes() == np.asarray(predict_row(tree, x[r].tolist())).tobytes()
    assert serialize(tree).count('"kind": "trinary"') == p


def _mixed_missing_table(n_classes, seed=5, n=160):
    """Three numeric features and one categorical, 25-30% of each missing;
    a real response, or ``n_classes`` classes cut from the same signal."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    codes = rng.integers(0, 4, size=n)
    signal = x[:, 0] - x[:, 1] + 0.5 * x[:, 2] + codes + rng.normal(scale=0.3, size=n)
    miss = rng.random((n, 4)) < np.array([0.25, 0.3, 0.25, 0.3])
    cols = [numeric(f"x{j}", np.where(miss[:, j], np.nan, x[:, j])) for j in range(3)]
    cols.append(FeatureColumn("g", CATEGORICAL, np.where(miss[:, 3], -1, codes), ("a", "b", "c", "d")))
    if n_classes:
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        labels = tuple(f"l{k}" for k in range(n_classes))
        return Dataset(tuple(cols), ResponseColumn(CLASS, np.searchsorted(edges, signal), labels))
    return regression(cols, signal)


def _cut_fits(deep, grown, depth):
    """Pairs (split node of ``deep`` that a cut at ``depth`` removes, the
    leaf at its place in ``grown``), walking both trees together. A cut
    node's middle chain sees its rows, so each chain node is paired with
    the same leaf."""
    stack = [(deep, grown, 0)]
    while stack:
        node, other, d = stack.pop()
        if not isinstance(node, Branch):
            continue
        if d < depth:
            stack += [(node.left, other.left, d + 1), (node.right, other.right, d + 1)]
            if node.middle is not None:
                stack.append((node.middle, other.middle, d))
            continue
        while isinstance(node, Branch):
            yield node, other
            node = node.middle


@pytest.mark.parametrize("n_classes", [0, 2, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_truncation_equals_growing_each_depth(strategy, n_classes, monkeypatch):
    """Every depth's cut of the deepest tree is the tree grown at that
    depth, in text and prediction bytes; cutting a cut tree is one cut;
    and each split node's fit is, bit for bit, the leaf grown in its place."""
    ds = _mixed_missing_table(n_classes)
    deepest = 5
    grown = [train(ds, TrainConfig(strategy, max_depth=d, min_samples=2)) for d in range(deepest + 1)]
    deep = grown[deepest]
    # a cut reads no dataset and fits nothing
    monkeypatch.setattr(tree_module, "fit_leaf", None)
    monkeypatch.setattr(tree_module, "split_rows", None)
    cut_routes = []
    for depth in range(deepest + 1):
        cut = truncate(deep, depth)
        assert serialize(cut) == serialize(grown[depth])
        assert predict(cut, ds).tobytes() == predict(grown[depth], ds).tobytes()
        for shallower in range(depth + 1):
            assert serialize(truncate(cut, shallower)) == serialize(grown[shallower])
        for node, leaf in _cut_fits(deep.root, grown[depth].root, depth):
            cut_routes.append(node.spec.route)
            assert isinstance(leaf, Leaf)
            assert np.asarray(node.fit.value).tobytes() == np.asarray(leaf.value).tobytes()
            assert (node.fit.n_samples, node.fit.train_loss) == (leaf.n_samples, leaf.train_loss)
    # every split node of the deepest tree was paired once
    assert len(cut_routes) == serialize(deep).count('"missing": ')
    # middle chains and fractional nodes cross the cuts
    if strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
        assert MissingRoute.MIDDLE in cut_routes
    if strategy is Strategy.FC:
        assert MissingRoute.FRACTIONAL in cut_routes


def test_truncate_cuts_only_split_nodes_that_keep_a_fit():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=2, min_samples=1))
    assert truncate(tree, 0).root is tree.root.fit
    read = deserialize(serialize(tree))
    assert read.root.fit is None
    for fitless in (read, middle_chain_tree(5)):
        with pytest.raises(ValidationError, match="no fit"):
            truncate(fitless, 0)
    # a cut below every split node needs no fit
    assert serialize(truncate(read, 1)) == serialize(tree)
    with pytest.raises(ValidationError, match="non-negative"):
        truncate(tree, -1)


def test_deserialize_rejects_too_deep_documents():
    text = serialize(middle_chain_tree(1500))
    with pytest.raises(TreeFormatError, match="nested too deeply"):
        deserialize(text)
    # a chain well inside the limit still round-trips
    shallow = serialize(middle_chain_tree(300))
    assert serialize(deserialize(shallow)) == shallow


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
    # NaN fails both range checks as written with > and <, so it needs its own
    for probs in ([float("nan"), 1.0], [float("nan"), float("nan")]):
        doc3 = json.loads(serialize(_classification_tree()))
        _set_first_leaf_probs(doc3, probs)
        with pytest.raises(TreeFormatError, match="NaN"):
            deserialize(json.dumps(doc3))


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

    nan_threshold = json.loads(serialize(tree))
    nan_threshold["root"]["threshold"] = float("nan")
    with pytest.raises(TreeFormatError, match="threshold is NaN"):
        deserialize(json.dumps(nan_threshold))

    # values a trained tree never holds; each check is phrased to fail on NaN
    nan, inf = float("nan"), float("inf")
    out_of_range = [
        (lambda d: d["root"]["left"].update(value=nan), "leaf value is NaN"),
        (lambda d: d["root"]["left"].update(n=nan), "leaf n"),
        (lambda d: d["root"]["left"].update(n=-1.0), "leaf n"),
        (lambda d: d["root"].update(n=nan), "split node n"),
        (lambda d: d["root"].update(n=-4), "split node n"),
        (lambda d: d["root"]["right"].update(loss=nan), "leaf loss"),
        (lambda d: d["root"]["right"].update(loss=-0.5), "leaf loss"),
        (lambda d: d["root"].update(threshold=inf), "threshold is Infinity"),
        (lambda d: d["root"].update(threshold=-inf), "threshold is -Infinity"),
    ]
    for mutate, message in out_of_range:
        doc = json.loads(serialize(tree))
        mutate(doc)
        with pytest.raises(TreeFormatError, match=message):
            deserialize(json.dumps(doc))

    # fields of the wrong JSON type
    cats = ("blue", "red")
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 0, 1, 1]), cats)
    cat_tree = train(Dataset((col,), ResponseColumn(REAL, np.array([0.0, 0.0, 10.0, 10.0]))),
                     TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    wrong_types = [
        (tree, lambda d: d.update(loss=[])),
        (tree, lambda d: d["loss"].update(n_classes=[])),
        (tree, lambda d: d.update(features=5)),
        (tree, lambda d: d["features"][0].update(name=["x"])),
        (tree, lambda d: d.update(response={"labels": 7})),
        (tree, lambda d: d["root"].update(feature=[])),
        (tree, lambda d: d["root"].update(threshold="zz")),
        (tree, lambda d: d["root"].update(threshold="2.5")),
        (tree, lambda d: d["root"].update(left=5)),
        (tree, lambda d: d["root"]["left"].update(value="abc")),
        (tree, lambda d: d["root"]["left"].update(n="abc")),
        (tree, lambda d: d["root"]["left"].update(loss=True)),
        (cat_tree, lambda d: d["features"][0].update(categories="blue")),
        (cat_tree, lambda d: d["root"].update(left_categories="blue")),
        (cat_tree, lambda d: d["root"].update(left_categories=[["blue"]])),
        (cat_tree, lambda d: d["root"].update(left_categories=[])),
        (cat_tree, lambda d: d["root"].update(threshold=0.5)),
    ]
    for base, mutate in wrong_types:
        doc = json.loads(serialize(base))
        mutate(doc)
        with pytest.raises(TreeFormatError):
            deserialize(json.dumps(doc))


# (source tree, edit to its document, the TreeFormatError message)
MALFORMED_DOCUMENTS = {
    "leaf value length": ("class", lambda d: _set_first_leaf_probs(d, [1.0]),
                          "leaf value must be a list of 2 probabilities"),
    "node kind": ("step", lambda d: d["root"].update(kind="quaternary"), "unknown node kind 'quaternary'"),
    "no threshold": ("step", lambda d: d["root"].pop("threshold"),
                     "feature 'x' is numeric but the node has no threshold"),
    "missing route": ("step", lambda d: d["root"].update(missing="sideways"), "unknown missing route 'sideways'"),
    "negative weight": ("fc", lambda d: d["root"].update(w_left=1.5, w_right=-0.5),
                        "fractional weights must be non-negative"),
    "trinary without middle": ("trinary", lambda d: d["root"].pop("middle"),
                               "trinary nodes need a middle child; binary nodes must not have one"),
    "binary with middle": ("step", lambda d: d["root"].update(middle=d["root"]["left"]),
                           "trinary nodes need a middle child; binary nodes must not have one"),
    "loss kind": ("step", lambda d: d["loss"].update(kind="hinge"), "unknown loss 'hinge'"),
    "feature kind": ("step", lambda d: d["features"][0].update(kind="ordinal"), "unknown feature kind 'ordinal'"),
    "duplicate features": ("step", lambda d: d["features"].append(dict(d["features"][0])),
                           "duplicate feature names"),
    "label count": ("class", lambda d: d["response"].update(labels=["a", "b", "c"]),
                    "label list does not match the class count"),
    "response kind": ("step", lambda d: d["response"].update(kind="banana"),
                      "response kind 'banana' does not match the sse loss, which needs 'real'"),
    "response kind type": ("step", lambda d: d["response"].update(kind=7),
                           "response kind 7 does not match the sse loss, which needs 'real'"),
    "class response under sse": ("step", lambda d: d["response"].update(kind="class"),
                                 "response kind 'class' does not match the sse loss, which needs 'real'"),
    "real response under xe": ("class", lambda d: d["response"].update(kind="real"),
                               "response kind 'real' does not match the xe loss, which needs 'class'"),
}


@pytest.mark.parametrize("case", MALFORMED_DOCUMENTS)
def test_deserialize_names_what_is_malformed(case):
    source, edit, message = MALFORMED_DOCUMENTS[case]
    tree = {
        "step": lambda: train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1)),
        "class": _classification_tree,
        "fc": lambda: train(TRI_DS, TrainConfig(Strategy.FC, max_depth=1, min_samples=1)),
        "trinary": lambda: train(TRI_DS, TrainConfig(Strategy.TRINARY, max_depth=1, min_samples=1)),
    }[source]()
    doc = json.loads(serialize(tree))
    edit(doc)
    with pytest.raises(TreeFormatError, match=re.escape(message)):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("make_tree", [lambda: train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1)),
                                       _classification_tree], ids=["sse", "xe"])
def test_a_missing_response_kind_defaults_to_the_loss(make_tree):
    text = serialize(make_tree())
    doc = json.loads(text)
    del doc["response"]["kind"]
    assert serialize(deserialize(json.dumps(doc))) == text


def test_pure_fc_classification_leaf_round_trips():
    """A pure cross-entropy leaf on fractional weights can price a hair
    below 0 (its class weight and total weight are summed in different
    orders); its document still reads back."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=60)
    y = (x > 0).astype(int)
    x = np.where((rng.random(60) < 0.3) & (y == 0), np.nan, x)
    ds = Dataset((numeric("x", x),), ResponseColumn(CLASS, y, ("a", "b")))
    tree = train(ds, TrainConfig(Strategy.FC, max_depth=1, min_samples=2))
    assert -1e-12 < tree.root.left.train_loss < 0.0
    text = serialize(tree)
    assert serialize(deserialize(text)) == text


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
    for w_left, w_right in ((float("nan"), 0.5), (0.5, float("nan")), (float("nan"), float("nan"))):
        doc["root"]["w_left"], doc["root"]["w_right"] = w_left, w_right
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


def test_deserialize_rejects_repeated_names():
    col = FeatureColumn("c", CATEGORICAL, np.array([0, 0, 1, 1]), ("blue", "red"))
    ds = Dataset((col,), ResponseColumn(CLASS, np.array([0, 0, 1, 1]), ("no", "yes")))
    doc = json.loads(serialize(train(ds, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))))
    doc["features"][0]["categories"] = ["blue", "red", "blue"]
    with pytest.raises(TreeFormatError, match="categories of feature 'c' list 'blue' twice"):
        deserialize(json.dumps(doc))
    doc["features"][0]["categories"] = ["blue", "red"]
    doc["response"]["labels"] = ["no", "no"]
    with pytest.raises(TreeFormatError, match="response labels list 'no' twice"):
        deserialize(json.dumps(doc))


def _mixed_tables(n_classes, seed=0, train_missing=0.3):
    """Train and test tables over two numeric and two categorical features,
    30% MCAR in the test table and ``train_missing`` in the training one;
    the test dictionary of ``g1`` adds a name, ``e``, that training never
    saw."""
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

    def table(rows, g1, g1_cats, rate=0.3):
        cols = [numeric(f"x{j}", np.where(rng.random(n) < rate, np.nan, x[rows, j])) for j in range(2)]
        g2 = g[rows, 1]
        for name, codes, cats in (("g1", g1, g1_cats), ("g2", g2, ("a", "b", "c", "d"))):
            codes = np.where(rng.random(n) < rate, -1, codes)
            cols.append(FeatureColumn(name, CATEGORICAL, codes, cats))
        kind, y, labels = response
        return Dataset(tuple(cols), ResponseColumn(kind, y[rows], labels))

    train_ds = table(slice(0, n), g[:n, 0], ("a", "b", "c", "d"), train_missing)
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


def _censored_rows(ds):
    return np.flatnonzero(~np.all([col.present_mask() for col in ds.columns], axis=0))


def _sizes(root):
    """The size of each node of a trained tree, and of each split node's fit."""
    for node in _nodes(root):
        yield node.n_samples
        if isinstance(node, Branch):
            yield node.fit.n_samples


def _assert_projections_are_grown(train_ds, test_ds, source_strategy, max_depth, min_samples):
    """Each strategy's tree projected from the source grown on ``train_ds``
    serializes and predicts ``test_ds`` (rows with missing cells) as the
    tree it grows itself; returns the projections and the grown trees."""
    source = train(train_ds, TrainConfig(source_strategy, max_depth=max_depth, min_samples=min_samples))
    censored = _censored_rows(test_ds)
    projections, grown_trees = {}, {}
    for strategy in Strategy:
        if source_strategy is Strategy.MAJORITY and strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
            continue
        grown = grown_trees[strategy] = train(train_ds, TrainConfig(strategy, max_depth=max_depth,
                                                                    min_samples=min_samples))
        projected = projections[strategy] = project(source, strategy)
        assert serialize(projected) == serialize(grown)
        assert predict(projected, test_ds, censored).tobytes() == predict(grown, test_ds, censored).tobytes()
    return projections, grown_trees


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy, twin", [(Strategy.MIA, Strategy.MAJORITY), (Strategy.TRINARY_MIA, Strategy.TRINARY)],
                         ids=lambda s: s.value)
def test_complete_training_data_grows_twin_trees(strategy, twin, n_classes):
    """On training rows with no missing cell, mia grows the majority tree
    and trinary_mia the trinary tree, node for node, so the two predict
    alike on test rows with missing cells too; and every strategy's tree is
    the sweep harness's projection of the twin's."""
    train_ds, test_ds = _mixed_tables(n_classes, train_missing=0.0)
    assert all(col.present_mask().all() for col in train_ds.columns)
    tree = train(train_ds, TrainConfig(strategy, max_depth=5, min_samples=3))
    twin_tree = train(train_ds, TrainConfig(twin, max_depth=5, min_samples=3))
    routes = {node.spec.route for node in _nodes(twin_tree.root) if isinstance(node, Branch)}
    if twin is Strategy.TRINARY:
        assert routes == {MissingRoute.MIDDLE}
    else:
        assert routes == {MissingRoute.LEFT, MissingRoute.RIGHT}

    text, twin_text = serialize(tree), serialize(twin_tree)
    field = '"strategy": "{}"'
    assert text.count(field.format(strategy.value)) == 1
    assert text == twin_text.replace(field.format(twin.value), field.format(strategy.value))

    censored = _censored_rows(test_ds)
    assert censored.size > test_ds.n_rows // 2
    assert predict(tree, test_ds, censored).tobytes() == predict(twin_tree, test_ds, censored).tobytes()

    _assert_projections_are_grown(train_ds, test_ds, twin, 5, 3)


def _complete_tables(n_classes, seed=0, n=100):
    """A training table with no missing cell and a test table with 30% MCAR
    per feature: two numeric features, a categorical with 4 categories and
    one with ``MAX_EXHAUSTIVE_CATEGORIES + 2``."""
    rng = np.random.default_rng(seed)
    many = MAX_EXHAUSTIVE_CATEGORIES + 2
    x = rng.normal(size=(2 * n, 2))
    few_codes, many_codes = rng.integers(0, 4, size=2 * n), rng.integers(0, many, size=2 * n)
    signal = x[:, 0] - 2.0 * x[:, 1] + few_codes + (many_codes % 5) + rng.normal(scale=0.3, size=2 * n)
    if n_classes:
        edges = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        response = (CLASS, np.searchsorted(edges, signal), tuple(f"l{k}" for k in range(n_classes)))
    else:
        response = (REAL, signal, ())

    def table(rows, rate):
        cols = [numeric(f"x{j}", np.where(rng.random(n) < rate, np.nan, x[rows, j])) for j in range(2)]
        for name, codes, size in (("few", few_codes, 4), ("many", many_codes, many)):
            codes = np.where(rng.random(n) < rate, -1, codes[rows])
            cols.append(FeatureColumn(name, CATEGORICAL, codes, tuple(f"c{k:02d}" for k in range(size))))
        kind, y, labels = response
        return Dataset(tuple(cols), ResponseColumn(kind, y[rows], labels))

    return table(slice(0, n), 0.0), table(slice(n, 2 * n), 0.3)


@pytest.mark.parametrize("n_classes", [0, 2, 3])
def test_projection_of_the_source_tree_is_each_strategys_tree(n_classes):
    """The sweep harness grows one trinary or majority source tree on a
    training set with no missing cell and projects it onto every strategy;
    each projection is, byte for byte, the tree the strategy grows."""
    train_ds, test_ds = _complete_tables(n_classes)
    branches = []
    for min_samples, max_depth in [(1, 5), (2, 4), (3, 3), (4, 5), (5, 2), (1, 1), (5, 0)]:
        from_trinary, grown = _assert_projections_are_grown(train_ds, test_ds, Strategy.TRINARY, max_depth,
                                                            min_samples)
        from_majority, _ = _assert_projections_are_grown(train_ds, test_ds, Strategy.MAJORITY, max_depth,
                                                         min_samples)
        for tree in (*from_trinary.values(), *from_majority.values()):
            branches += [(tree.strategy, node) for node in _nodes(tree.root) if isinstance(node, Branch)]
        # node sizes are floats under every strategy, in trees grown and projected
        for tree in (*from_trinary.values(), *from_majority.values(), *grown.values()):
            assert all(type(n) is float for n in _sizes(tree.root))
    # the grid reaches every route, majority ties (which go right), and both
    # categorical features, the larger one cut at a node that observes more
    # categories than are cut exhaustively
    routes = {strategy: set() for strategy in Strategy}
    for strategy, node in branches:
        routes[strategy].add(node.spec.route)
    assert routes[Strategy.FC] == {MissingRoute.FRACTIONAL}
    assert routes[Strategy.MAJORITY] == routes[Strategy.MIA] == {MissingRoute.LEFT, MissingRoute.RIGHT}
    assert routes[Strategy.TRINARY] == routes[Strategy.TRINARY_MIA] == {MissingRoute.MIDDLE}
    assert any(node.left.n_samples == node.right.n_samples and node.spec.route is MissingRoute.RIGHT
               for _, node in branches)
    partitions = [node.spec.partition for _, node in branches]
    assert any(p.feature == 2 for p in partitions)
    assert any(p.feature == 3 and len(p.left_categories | p.right_categories) > MAX_EXHAUSTIVE_CATEGORIES
               for p in partitions)


@pytest.mark.parametrize("source_strategy", [Strategy.TRINARY, Strategy.MAJORITY])
def test_projection_of_a_tree_read_back(source_strategy):
    """A source read back by deserialize keeps no fit at its split nodes;
    it projects as the trained source does."""
    train_ds, _ = _complete_tables(3)
    source = train(train_ds, TrainConfig(source_strategy, max_depth=3, min_samples=2))
    back = deserialize(serialize(source))
    assert isinstance(back.root, Branch) and back.root.fit is None
    for strategy in Strategy:
        if source_strategy is Strategy.MAJORITY and strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
            continue
        assert serialize(project(back, strategy)) == serialize(project(source, strategy))


def test_projection_needs_a_source_that_holds_the_target():
    """Middle children cannot be made up from a majority tree, and an fc
    tree's weighted sizes are not the other strategies' row counts."""
    train_ds, _ = _complete_tables(0)
    cfg = dict(max_depth=2, min_samples=2)
    majority, fc = (train(train_ds, TrainConfig(s, **cfg)) for s in (Strategy.MAJORITY, Strategy.FC))
    for target in (Strategy.TRINARY, Strategy.TRINARY_MIA):
        with pytest.raises(ValidationError, match="majority tree cannot be projected"):
            project(majority, target)
    for target in Strategy:
        with pytest.raises(ValidationError, match="fc tree cannot be projected"):
            project(fc, target)


def _nodes(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Branch):
            stack += [child for child in (node.left, node.right, node.middle) if child is not None]


#: a name that JSON must escape: a quote, a backslash, a tab, non-ASCII
ODD = 'q"b\\t\té€'


def _json_nodes(node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack += [node[key] for key in ("left", "right", "middle") if key in node]


@pytest.mark.parametrize("n_classes", [0, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_serialize_layout_is_json_dumps_indent_2(strategy, n_classes):
    """The tree writer lays out text exactly as the stdlib encoder does."""
    train_ds, _ = _mixed_tables(n_classes)
    columns = tuple(FeatureColumn(ODD + c.name, c.kind, c.values, tuple(ODD + x for x in c.categories))
                    for c in train_ds.columns)
    r = train_ds.response
    ds = Dataset(columns, ResponseColumn(r.kind, r.values, tuple(ODD + label for label in r.labels)))
    text = serialize(train(ds, TrainConfig(strategy, max_depth=5, min_samples=3)))
    doc = json.loads(text)
    assert json.dumps(doc, indent=2) == text
    assert serialize(deserialize(text)) == text
    nodes = list(_json_nodes(doc["root"]))
    assert any(ODD in name for node in nodes for name in node.get("left_categories", ()))
    if strategy is Strategy.FC:
        assert any(node.get("missing") == "fractional" for node in nodes)
    if strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
        assert any(node.get("middle", {}).get("kind") == "trinary" for node in nodes)
    if n_classes:
        assert all(label.startswith(ODD) for label in doc["response"]["labels"])


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


@pytest.mark.parametrize("strategy", list(Strategy))
def test_predict_row_rejects_cells_of_the_wrong_type(strategy):
    y = ResponseColumn(REAL, np.array([0.0, 0.0, 10.0, 10.0, 5.0]))
    cfg = TrainConfig(strategy, max_depth=2, min_samples=1)
    x_tree = train(Dataset((numeric("x", [1.0, 2.0, 3.0, 4.0, np.nan]),), y), cfg)
    ds = Dataset((FeatureColumn("g", CATEGORICAL, np.array([0, 0, 1, 1, -1]), ("lo", "hi")),), y)
    g_tree = train(ds, cfg)
    for tree, cells, name, cell in [
        (x_tree, ["2.5"], "x", "'2.5'"),
        (x_tree, [None], "x", "None"),
        (g_tree, [float("nan")], "g", "nan"),
        (g_tree, ["hi"], "g", "'hi'"),
        (g_tree, [1.5], "g", "1.5"),
    ]:
        with pytest.raises(ValidationError, match=rf"feature '{name}' needs .*, not {cell}$"):
            predict_row(tree, cells)
    # integer codes of any integer type route as before
    assert predict_row(g_tree, [np.int64(1)]) == predict_row(g_tree, [1]) == predict(g_tree, ds)[2]


def test_predict_row_rejects_wrong_cell_count():
    tree = train(STEP, TrainConfig(Strategy.MAJORITY, max_depth=1, min_samples=1))
    for cells in ([], [1.0, 2.0]):
        with pytest.raises(ValidationError, match="cells"):
            predict_row(tree, cells)
