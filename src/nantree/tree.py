"""Tree growth, prediction, text rendering, and a lossless JSON format.

This module alone builds tree nodes. :func:`train` grows them depth-first
in one explicit-stack loop, under the loss the response calls for; split
nodes keep the leaf fitted at them, so :func:`truncate` only cuts, and
:func:`project` recasts a tree grown on complete data for another strategy.
Growth never tests the strategy: rows carry weights only below a
fractional split, and a node's size, its total row weight, is a float.
Under the trinary strategies an internal node may carry a third child for
missing values: that child is trained on the node's *entire* row set at
the *same* depth, with the split feature removed from the available set,
so a chain of middle children as long as the feature count walks through
the remaining features without consuming depth budget; no walk over a
tree recurses along it.

Because a middle child sees the same rows as its parent, it takes the
parent's leaf (one ``Leaf`` object serves as both) and per-feature scan
results rather than recomputing them; only the excluded feature is
dropped. This is an exact reuse, not an approximation. Likewise each tree
builds a feature's exhaustive categorical cuts once per category set, and
cross-entropy's ``x·log x`` table once, not once per node
(:func:`split.scan_features`).
"""
from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .data import CATEGORICAL, CLASS, Dataset, NUMERIC, REAL, ValidationError, first_repeat, row_index
from .loss import LOG_CLAMP, LossKind, eval_loss, fit_leaf, loss_for
from .split import (
    LEFT, MIDDLE, RIGHT,
    MissingRoute,
    Partition,
    SplitConfig,
    Strategy,
    check_strategy,
    majority_route,
    scan_features,
    select_best,
    split_rows,
)

TREE_FORMAT = "nantree/1"


@dataclass(frozen=True)
class TrainConfig:
    strategy: Strategy
    max_depth: int = 5
    min_samples: int = 5

    def __post_init__(self) -> None:
        check_strategy(self.strategy)
        if self.max_depth < 0:
            raise ValidationError("max_depth must be non-negative")
        if self.min_samples < 1:
            raise ValidationError("min_samples must be at least 1")

    @property
    def split_config(self) -> SplitConfig:
        # fc reads the same floor as a minimum child weight
        return SplitConfig(min_child=self.min_samples, min_child_weight=float(self.min_samples))


@dataclass(frozen=True, slots=True)
class SplitSpec:
    """What an internal node stores: the partition, where missing rows go,
    and for fc the observed fractions used to mix child predictions."""

    partition: Partition
    route: MissingRoute
    w_left: float | None = None
    w_right: float | None = None


@dataclass(frozen=True, slots=True)
class Leaf:
    value: float | np.ndarray
    n_samples: float
    train_loss: float


@dataclass(frozen=True, slots=True)
class Branch:
    spec: SplitSpec
    left: "Leaf | Branch"
    right: "Leaf | Branch"
    middle: "Leaf | Branch | None"
    n_samples: float
    # the leaf growth fitted here before splitting, which truncate puts in
    # the node's place; not part of nantree/1, so None in trees read back
    fit: Leaf | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Tree:
    root: Leaf | Branch
    strategy: Strategy
    loss: LossKind
    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    categories: dict[int, tuple[str, ...]]
    response_kind: str
    response_labels: tuple[str, ...] = ()


def train(ds: Dataset, cfg: TrainConfig, rows: np.ndarray | None = None) -> Tree:
    """Grow a tree on ``rows`` of ``ds`` (all rows by default). Each node is
    fitted as a leaf and sized by its total row weight, a float; weights
    are None, and the size the row count, but below a fractional split. A
    middle child takes its parent's leaf, fitted on the same rows. A node
    stays a leaf when the depth budget is exhausted, its training loss is
    zero, it is too small to split, or no feasible candidate exists on the
    available features; a split node keeps the leaf as its ``fit``.
    """
    kind = loss_for(ds)
    rows = row_index(rows, ds.n_rows)
    if rows.size == 0:
        raise ValidationError("cannot train on an empty row set")

    scfg = cfg.split_config
    memo: dict = {}  # categorical cut lists and the x·log x table, built once per tree (split.scan_features)
    done: list = []  # finished subtrees; a pending split rebuilds from them
    # pending nodes (rows, weights, depth, available features, inherited
    # scans and leaf) and splits (spec, leaf); weights only below fc splits
    stack: list = [(rows, None, 0, frozenset(range(ds.n_features)), None, None)]
    while stack:
        item = stack.pop()
        if type(item[0]) is SplitSpec:
            spec, fit = item
            middle = done.pop() if spec.route is MissingRoute.MIDDLE else None
            right, left = done.pop(), done.pop()
            done.append(Branch(spec, left, right, middle, fit.n_samples, fit))
            continue
        node_rows, w, depth, available, inherited, leaf = item
        if leaf is None:
            y = ds.response.values[node_rows]
            value = fit_leaf(y, kind, w)
            leaf = Leaf(value=value, n_samples=float(len(node_rows) if w is None else w.sum()),
                        train_loss=eval_loss(y, value, kind, w))
        choice = None
        if depth < cfg.max_depth and leaf.train_loss != 0.0 and available and leaf.n_samples >= 2 * cfg.min_samples:
            if inherited is not None:
                scans = {f: inherited[f] for f in sorted(available) if f in inherited}
            else:
                scans = scan_features(ds, node_rows, available, cfg.strategy, kind, scfg, w, leaf.value, memo)
            choice = select_best(scans, cfg.strategy)
        if choice is None:
            done.append(leaf)
            continue
        partition, route = choice
        # the scan decided the split's feasibility, and every candidate has
        # observed rows on both sides: the rows are only routed
        children = split_rows(ds, node_rows, partition, route, None, None, w)
        frac = children.frac_left
        stack.append((SplitSpec(partition, route, frac, None if frac is None else 1.0 - frac), leaf))
        if route is MissingRoute.MIDDLE:
            # the middle child has these rows, unweighted: it inherits this
            # leaf and these scans, less the split feature
            stack.append((node_rows, None, depth, available - {partition.feature}, scans, leaf))
        stack.append((children.right_rows, children.right_weights, depth + 1, available, None, None))
        stack.append((children.left_rows, children.left_weights, depth + 1, available, None, None))
    return Tree(
        root=done[0],
        strategy=cfg.strategy,
        loss=kind,
        feature_names=tuple(c.name for c in ds.columns),
        feature_kinds=tuple(c.kind for c in ds.columns),
        categories={j: c.categories for j, c in enumerate(ds.columns) if c.kind == CATEGORICAL},
        response_kind=ds.response.kind,
        response_labels=ds.response.labels,
    )


def truncate(tree: Tree, depth: int) -> Tree:
    """``tree`` cut back to ``depth``: each split node at that depth is
    replaced by its ``fit`` (middle children sit at their parent's depth).
    Growth is greedy and no stopping rule but depth reads the budget, so a
    cut trained tree is the tree :func:`train` grows at ``depth``. Cutting
    a split node with no fit (read back by :func:`deserialize`, or built
    by hand) raises ValidationError.
    """
    if depth < 0:
        raise ValidationError("depth must be non-negative")
    done: list = []  # cut subtrees; a pending split node rebuilds from them
    stack: list = [(tree.root, 0)]  # (node, its depth), or (split node, None) pending
    while stack:
        node, d = stack.pop()
        if d is None:
            middle = done.pop() if node.middle is not None else None
            right, left = done.pop(), done.pop()
            done.append(replace(node, left=left, right=right, middle=middle))
        elif isinstance(node, Leaf):
            done.append(node)
        elif d == depth:
            if node.fit is None:
                raise ValidationError(f"cannot cut at depth {depth}: the tree keeps no fit at its split nodes")
            done.append(node.fit)
        else:
            stack.append((node, None))
            if node.middle is not None:
                stack.append((node.middle, d))
            stack += [(node.right, d + 1), (node.left, d + 1)]
    return replace(tree, root=done[0])


def project(tree: Tree, strategy: Strategy) -> Tree:
    """The tree ``strategy`` grows on the missing-free training set that
    ``tree``, a majority, mia, trinary or trinary_mia tree, was grown on.
    There all strategies make the same splits: the trinary ones grow
    ``tree`` itself, so it must be trinary; the others grow it without
    middle children, with missing rows routed by :func:`split.majority_route`
    (majority and mia) or to both children by the observed fractions (fc),
    keeping every leaf, fit and node size. Any other source raises
    ValidationError. A split node without a fit (read back by
    :func:`deserialize`) keeps none."""
    trinary = (Strategy.TRINARY, Strategy.TRINARY_MIA)
    if tree.strategy is Strategy.FC or (strategy in trinary and tree.strategy not in trinary):
        raise ValidationError(f"a {tree.strategy.value} tree cannot be projected onto {strategy.value}")
    if strategy in trinary:
        return replace(tree, strategy=strategy)
    done: list = []  # projected subtrees; a pending split node rebuilds from them
    stack: list = [(tree.root, False)]  # (node, whether its children are done)
    while stack:
        node, pending = stack.pop()
        if isinstance(node, Leaf):
            done.append(node)
        elif not pending:
            stack += [(node, True), (node.right, False), (node.left, False)]
        else:
            right, left = done.pop(), done.pop()
            n_l, n_r = node.left.n_samples, node.right.n_samples
            if strategy is Strategy.FC:
                w_left = n_l / (n_l + n_r)
                spec = SplitSpec(node.spec.partition, MissingRoute.FRACTIONAL, w_left, 1.0 - w_left)
            else:
                spec = SplitSpec(node.spec.partition, majority_route(n_l, n_r))
            done.append(Branch(spec, left, right, None, node.n_samples, node.fit))
    return replace(tree, root=done[0], strategy=strategy)


# ---------------------------------------------------------------------------
# prediction

def predict_row(tree: Tree, cells):
    """Predict one row given per-feature cells (float with NaN for missing
    numerics, int code with -1 for missing categoricals). A cell of another
    type that reaches a split, such as NaN, a string or 1.5 for a
    categorical feature, is a ValidationError."""
    if len(cells) != len(tree.feature_names):
        raise ValidationError(f"row has {len(cells)} cells, tree expects {len(tree.feature_names)}")

    values: list = []  # finished subtree predictions; a pending fractional mix pops two
    stack: list = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            values.append(node.value)
            continue
        if isinstance(node, SplitSpec):
            rv, lv = values.pop(), values.pop()
            mixed = node.w_left * lv + node.w_right * rv
            if isinstance(mixed, np.ndarray):
                mixed = mixed / mixed.sum()  # renormalise the class probabilities
            values.append(mixed)
            continue
        partition = node.spec.partition
        try:
            side = partition.side(cells[partition.feature], node.spec.route)
        except (TypeError, ValueError):
            need = "a number" if partition.is_numeric else "an integer category code"
            raise ValidationError(f"feature {tree.feature_names[partition.feature]!r} needs {need}, "
                                  f"not {reprlib.repr(cells[partition.feature])}") from None
        if side is LEFT:
            stack.append(node.left)
        elif side is RIGHT:
            stack.append(node.right)
        elif side is MIDDLE:
            stack.append(node.middle)
        else:
            # fractional: mix both children once both are predicted
            stack += [node.spec, node.right, node.left]
    return values[0]


def _tree_columns(tree: Tree, ds: Dataset) -> list[np.ndarray]:
    """The feature values of ``ds`` in the tree's codes: a categorical
    column's codes are remapped to the tree's training dictionary, and
    names unseen in training map to missing."""
    cols = []
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        col = ds.columns[j]
        if col.name != name or col.kind != kind:
            raise ValidationError(f"feature {j} is {col.name!r}/{col.kind}, tree expects {name!r}/{kind}")
        trained = tree.categories.get(j, ())
        if col.categories == trained:  # numeric, or identical dictionaries: no remap needed
            cols.append(col.values)
            continue
        code_of = {c: i for i, c in enumerate(trained)}
        remap = np.array([code_of.get(c, -1) for c in col.categories], dtype=np.int64)
        cols.append(np.where(col.values >= 0, remap[np.maximum(col.values, 0)], -1))
    return cols


def _fill(root, cols: list[np.ndarray], rows: np.ndarray, out: np.ndarray) -> None:
    """Write the predictions for rows ``rows`` of the feature columns
    ``cols`` into ``out``, mirroring :func:`predict_row` operation for
    operation. A pending item fills ``out[at]``; at a fractional node the
    subtrees fill scratch outputs for the missing rows, mixed by an item
    pushed beneath them."""
    stack: list = [(root, rows, out, np.arange(len(rows)))]
    while stack:
        node, rows, out, at = stack.pop()
        if isinstance(node, Leaf):
            out[at] = node.value
            continue
        if isinstance(node, SplitSpec):
            lv, rv = rows
            mixed = node.w_left * lv + node.w_right * rv
            if mixed.ndim == 2:
                mixed /= mixed.sum(axis=1, keepdims=True)
            out[at] = mixed
            continue
        spec = node.spec
        left, right, missing = spec.partition.sides(cols[spec.partition.feature][rows], spec.route)
        if right.any():
            stack.append((node.right, rows[right], out, at[right]))
        if left.any():
            stack.append((node.left, rows[left], out, at[left]))
        if spec.route is MissingRoute.MIDDLE and missing.any():
            stack.append((node.middle, rows[missing], out, at[missing]))
        elif spec.route is MissingRoute.FRACTIONAL and missing.any():
            m_rows = rows[missing]
            m_at = np.arange(len(m_rows))
            lv = np.empty((len(m_rows),) + out.shape[1:])
            rv = np.empty_like(lv)
            stack += [(spec, (lv, rv), out, at[missing]),
                      (node.right, m_rows, rv, m_at), (node.left, m_rows, lv, m_at)]


def predict(tree: Tree, ds: Dataset, rows: np.ndarray | None = None) -> np.ndarray:
    """Predict ``rows`` of ``ds`` (all rows by default); returns shape (n,)
    for regression or one probability vector per row, shape (n, K), for
    classification.

    The whole row set is routed through the tree at once, node by node,
    and each row's prediction equals :func:`predict_row` on its cells
    bitwise.
    """
    if ds.n_features != len(tree.feature_names):
        raise ValidationError("dataset and tree have different feature counts")
    rows = row_index(rows, ds.n_rows)
    cols = _tree_columns(tree, ds)
    if tree.loss.is_classification:
        out = np.empty((len(rows), tree.loss.n_classes))
    else:
        out = np.empty(len(rows))
    _fill(tree.root, cols, rows, out)
    return out


def evaluate(tree: Tree, ds: Dataset, rows: np.ndarray | None = None) -> tuple[float, float | None]:
    """Total test loss of the tree on rows of ``ds``; for classification
    also the misclassification rate (argmax, lowest class on ties). On no
    rows both are 0.0. A response the tree does not predict (another kind,
    class count or, when the tree keeps them, label list) raises
    ValidationError."""
    response = ds.response
    want = f"{tree.loss.n_classes}-class" if tree.loss.is_classification else REAL
    got = f"{response.n_classes}-class" if response.kind == CLASS else REAL
    if got != want:
        raise ValidationError(f"the tree predicts a {want} response, the data holds a {got} one")
    if tree.response_labels and response.labels != tree.response_labels:
        raise ValidationError(f"the tree's class labels {tree.response_labels!r} are not "
                              f"the data's {response.labels!r}")
    rows = row_index(rows, ds.n_rows)
    preds = predict(tree, ds, rows)
    y = ds.response.values[rows]
    if tree.loss.is_classification:
        p = np.maximum(preds[np.arange(len(y)), y], LOG_CLAMP)
        misclass = float((preds.argmax(axis=1) != y).mean()) if len(y) else 0.0
        return float(-np.log(p).sum()), misclass
    resid = y - preds
    return float((resid * resid).sum()), None


# ---------------------------------------------------------------------------
# rendering

def _fmt_value(value) -> str:
    if isinstance(value, np.ndarray):
        return "[" + ", ".join(format(float(p), ".4g") for p in value) + "]"
    return repr(float(value))


def _fmt_n(n) -> str:
    f = float(n)
    return str(int(f)) if f.is_integer() else format(f, ".6g")


def _condition(tree: Tree, spec: SplitSpec) -> str:
    p = spec.partition
    name = tree.feature_names[p.feature]
    if p.is_numeric:
        return f"{name} <= {repr(float(p.threshold))}"
    cats = tree.categories.get(p.feature, ())
    names = [cats[c] if 0 <= c < len(cats) else str(c) for c in sorted(p.left_categories)]
    return f"{name} in {{{', '.join(names)}}}"


def _route_note(spec: SplitSpec) -> str:
    if spec.route is MissingRoute.FRACTIONAL:
        return f"missing->both w=({format(spec.w_left, '.6g')}, {format(spec.w_right, '.6g')})"
    return f"missing->{spec.route.value}"


def render(tree: Tree) -> str:
    """One line per node: depth tag, split condition or leaf value, sample
    count; middle branches are labeled 'missing'."""
    lines: list[str] = []
    # pending (node, depth, indent, label), popped in pre-order; a nested
    # self-calling walker would hit the recursion limit on long middle
    # chains and form a cycle that keeps the tree alive until a full collection
    stack = [(tree.root, 0, 0, "")]
    while stack:
        node, depth, indent, label = stack.pop()
        pad = "  " * indent
        tag = f"{label}: " if label else ""
        if isinstance(node, Leaf):
            lines.append(f"d{depth} {pad}{tag}leaf δ={_fmt_value(node.value)} (n={_fmt_n(node.n_samples)})")
            continue
        cond = _condition(tree, node.spec)
        lines.append(f"d{depth} {pad}{tag}split {cond} (n={_fmt_n(node.n_samples)}, {_route_note(node.spec)})")
        if node.middle is not None:
            stack.append((node.middle, depth, indent + 1, "missing"))
        stack.append((node.right, depth + 1, indent + 1, "right"))
        stack.append((node.left, depth + 1, indent + 1, "left"))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization: a self-describing JSON document (see docs/tree_format.md)

class TreeFormatError(ValidationError):
    """The tree document is malformed or fails validation."""


def _json_float(x) -> str:
    """``x`` as :mod:`json` writes a float: its repr, with ``NaN``,
    ``Infinity`` and ``-Infinity`` for the non-finite values."""
    x = float(x)
    if x - x == 0.0:
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _write_nodes(tree: Tree, out: list[str]) -> None:
    """Append to ``out`` the text of the root node exactly as
    ``json.dumps(doc, indent=2)`` lays it out under the document's
    ``"root"`` key, written in one pass from an explicit stack of pending
    nodes and closing texts."""
    names = [_json_str(name) for name in tree.feature_names]
    cats = {j: [_json_str(c) for c in cs] for j, cs in tree.categories.items()}
    routes = {route: _json_str(route.value) for route in MissingRoute}
    pads = ["\n"]  # pads[k]: a line break and the indent of nesting level k
    stack: list = [(tree.root, 1)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, level = item
        while len(pads) < level + 3:
            pads.append(pads[-1] + "  ")
        key, close, inner = pads[level + 1], pads[level], pads[level + 2]
        n = _json_float(node.n_samples)
        if isinstance(node, Leaf):
            if isinstance(node.value, np.ndarray):
                probs = ("," + inner).join(map(_json_float, node.value.tolist()))
                value = f"[{inner}{probs}{key}]"
            else:
                value = _json_float(node.value)
            loss = _json_float(node.train_loss)
            out.append(f'{{{key}"kind": "leaf",{key}"value": {value},{key}"n": {n},{key}"loss": {loss}{close}}}')
            continue
        spec = node.spec
        p = spec.partition
        kind = "binary" if node.middle is None else "trinary"
        out.append(f'{{{key}"kind": "{kind}",{key}"feature": {names[p.feature]},'
                   f'{key}"missing": {routes[spec.route]},{key}"n": {n},')
        if p.is_numeric:
            out.append(f'{key}"threshold": {_json_float(p.threshold)},')
        else:
            sep = "," + inner
            left = sep.join(cats[p.feature][c] for c in sorted(p.left_categories))
            right = sep.join(cats[p.feature][c] for c in sorted(p.right_categories))
            out.append(f'{key}"left_categories": [{inner}{left}{key}],'
                       f'{key}"right_categories": [{inner}{right}{key}],')
        if spec.route is MissingRoute.FRACTIONAL:
            out.append(f'{key}"w_left": {_json_float(spec.w_left)},{key}"w_right": {_json_float(spec.w_right)},')
        out.append(f'{key}"left": ')
        stack.append(close + "}")
        if node.middle is not None:
            stack += [(node.middle, level + 1), f',{key}"middle": ']
        stack += [(node.right, level + 1), f',{key}"right": ', (node.left, level + 1)]


def serialize(tree: Tree) -> str:
    """Lossless JSON text for a trained tree, laid out as
    ``json.dumps(doc, indent=2)`` would write it."""
    features = []
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        entry: dict = {"name": name, "kind": kind}
        if kind == CATEGORICAL:
            entry["categories"] = list(tree.categories.get(j, ()))
        features.append(entry)
    head = {
        "format": TREE_FORMAT,
        "strategy": tree.strategy.value,
        "loss": {"kind": tree.loss.name, "n_classes": tree.loss.n_classes},
        "features": features,
        "response": {"kind": tree.response_kind, "labels": list(tree.response_labels)},
    }
    # the header's closing "\n}" is reopened to append the root as its last
    # key; one join builds the text, so no second document-sized copy exists
    out = [json.dumps(head, indent=2)[:-2], ',\n  "root": ']
    _write_nodes(tree, out)
    out.append("\n}")
    return "".join(out)


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise TreeFormatError(f"{context}: missing field {key!r}")
    return doc[key]


def _object(raw, what: str) -> dict:
    if type(raw) is not dict:
        raise TreeFormatError(f"{what} must be a JSON object, not {reprlib.repr(raw)}")
    return raw


def _number(raw, what: str) -> float:
    # a JSON number; a string or a bool is not one, though float() takes both
    if type(raw) is float or type(raw) is int:
        return float(raw)
    raise TreeFormatError(f"{what} must be a number, not {reprlib.repr(raw)}")


def _size(raw, what: str, slack: float = 0.0) -> float:
    """A JSON number no less than ``-slack``; the check is phrased to fail on NaN."""
    x = _number(raw, what)
    if not x >= -slack:
        raise TreeFormatError(f"{what} must be a non-negative number, not {x!r}")
    return x


def _names(raw, what: str) -> tuple[str, ...]:
    """An array of distinct strings."""
    if type(raw) is not list or not all(type(item) is str for item in raw):
        raise TreeFormatError(f"{what} must be an array of strings, not {reprlib.repr(raw)}")
    name = first_repeat(raw)
    if name is not None:
        raise TreeFormatError(f"{what} list {reprlib.repr(name)} twice")
    return tuple(raw)


def _value_from_json(raw, kind: LossKind):
    if kind.is_classification:
        if type(raw) is not list or len(raw) != kind.n_classes:
            raise TreeFormatError(f"leaf value must be a list of {kind.n_classes} probabilities")
        probs = np.array([_number(p, "leaf probability") for p in raw])
        # NaN fails every comparison, so each check is phrased to fail on it
        if not (probs >= 0).all():
            raise TreeFormatError("leaf probabilities must be non-negative numbers, not NaN")
        if not abs(float(probs.sum()) - 1.0) <= 1e-9:
            raise TreeFormatError(f"leaf probabilities sum to {probs.sum()!r}, not 1")
        return probs
    value = _number(raw, "regression leaf value")
    if value != value:
        raise TreeFormatError("regression leaf value is NaN")
    return value


def _category_set(doc: dict, key: str, code_of: dict, fname: str) -> frozenset[int]:
    raw = _require(doc, key, "split node")
    if type(raw) is not list:
        raise TreeFormatError(f"{key} on feature {fname!r} must be an array, not {reprlib.repr(raw)}")
    codes = set()
    for name in raw:
        code = code_of.get(name) if type(name) is str else None
        if code is None:
            raise TreeFormatError(f"unknown category {reprlib.repr(name)} on feature {fname!r}")
        codes.add(code)
    return frozenset(codes)


def _node_from_json(doc, kind: LossKind, name_to_feature: dict, code_of: dict):
    """``code_of`` maps each categorical feature to its name-to-code dict."""
    node_kind = _require(_object(doc, "node"), "kind", "node")
    if node_kind == "leaf":
        value = _value_from_json(_require(doc, "value", "leaf"), kind)
        n = _size(doc.get("n", 0), "leaf n")
        # a cross-entropy leaf on fractional row weights can price a hair
        # below 0: its class weights and their total are summed in different
        # orders, so a pure leaf's probability can read 1 + 1 ulp
        loss = _size(doc.get("loss", 0.0), "leaf loss", 1e-9 * max(n, 1.0))
        return Leaf(value=value, n_samples=n, train_loss=loss)
    if node_kind not in ("binary", "trinary"):
        raise TreeFormatError(f"unknown node kind {node_kind!r}")
    fname = _require(doc, "feature", "split node")
    feature = name_to_feature.get(fname) if type(fname) is str else None
    if feature is None:
        raise TreeFormatError(f"split on unknown feature {reprlib.repr(fname)}")
    if "threshold" in doc:
        if feature in code_of:
            raise TreeFormatError(f"feature {fname!r} is categorical but the node has a threshold")
        threshold = _number(doc["threshold"], "threshold")
        if not threshold - threshold == 0.0:  # NaN and both infinities fail it
            raise TreeFormatError(f"split on feature {fname!r}: threshold is {_json_float(threshold)}, not finite")
        partition = Partition(feature, threshold)
    else:
        if feature not in code_of:
            raise TreeFormatError(f"feature {fname!r} is numeric but the node has no threshold")
        left = _category_set(doc, "left_categories", code_of[feature], fname)
        right = _category_set(doc, "right_categories", code_of[feature], fname)
        try:
            partition = Partition(feature, left_categories=left, right_categories=right)
        except ValueError as exc:
            raise TreeFormatError(f"split on feature {fname!r}: {exc}") from None
    route_raw = _require(doc, "missing", "split node")
    try:
        route = MissingRoute(route_raw)
    except ValueError:
        raise TreeFormatError(f"unknown missing route {route_raw!r}") from None
    w_left = w_right = None
    if route is MissingRoute.FRACTIONAL:
        w_left = _number(_require(doc, "w_left", "fractional node"), "w_left")
        w_right = _number(_require(doc, "w_right", "fractional node"), "w_right")
        # NaN fails every comparison, so the check is phrased to fail on it
        if not abs(w_left + w_right - 1.0) <= 1e-12:
            raise TreeFormatError(f"fractional weights sum to {w_left + w_right!r}, not 1")
        if w_left < 0 or w_right < 0:
            raise TreeFormatError("fractional weights must be non-negative")
    if (route is MissingRoute.MIDDLE) != (node_kind == "trinary"):
        raise TreeFormatError("middle route and trinary node kind must occur together")
    if (node_kind == "trinary") != ("middle" in doc):
        raise TreeFormatError("trinary nodes need a middle child; binary nodes must not have one")
    left_child = _node_from_json(_require(doc, "left", "split node"), kind, name_to_feature, code_of)
    right_child = _node_from_json(_require(doc, "right", "split node"), kind, name_to_feature, code_of)
    middle_child = None
    if node_kind == "trinary":
        middle_child = _node_from_json(doc["middle"], kind, name_to_feature, code_of)
    spec = SplitSpec(partition, route, w_left=w_left, w_right=w_right)
    return Branch(spec, left_child, right_child, middle_child, _size(doc.get("n", 0), "split node n"))


def deserialize(text: str) -> Tree:
    """Parse and validate a tree document produced by :func:`serialize`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise TreeFormatError("document nested too deeply") from None
    _object(doc, "tree document")
    fmt = _require(doc, "format", "document")
    if fmt != TREE_FORMAT:
        raise TreeFormatError(f"unsupported format {fmt!r}")
    try:
        strategy = Strategy(_require(doc, "strategy", "document"))
    except ValueError:
        raise TreeFormatError(f"unknown strategy {doc.get('strategy')!r}") from None
    loss_doc = _object(_require(doc, "loss", "document"), "loss")
    n_classes = loss_doc.get("n_classes", 0)
    if type(n_classes) is not int:
        raise TreeFormatError(f"loss n_classes must be an integer, not {reprlib.repr(n_classes)}")
    try:
        kind = LossKind(loss_doc.get("kind", ""), n_classes)
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from exc

    features = _require(doc, "features", "document")
    if type(features) is not list:
        raise TreeFormatError(f"features must be an array, not {reprlib.repr(features)}")
    names, kinds, categories = [], [], {}
    for j, f in enumerate(features):
        name = _require(_object(f, "feature"), "name", "feature")
        if type(name) is not str:
            raise TreeFormatError(f"feature name must be a string, not {reprlib.repr(name)}")
        names.append(name)
        fk = _require(f, "kind", "feature")
        if fk not in (NUMERIC, CATEGORICAL):
            raise TreeFormatError(f"unknown feature kind {fk!r}")
        kinds.append(fk)
        if fk == CATEGORICAL:
            categories[j] = _names(f.get("categories", []), f"categories of feature {name!r}")
    if len(set(names)) != len(names):
        raise TreeFormatError("duplicate feature names")
    name_to_feature = {n: j for j, n in enumerate(names)}
    code_of = {j: {c: i for i, c in enumerate(cats)} for j, cats in categories.items()}

    response = _object(doc.get("response", {}), "response")
    response_kind = CLASS if kind.is_classification else REAL
    if response.get("kind", response_kind) != response_kind:
        raise TreeFormatError(f"response kind {reprlib.repr(response['kind'])} does not match "
                              f"the {kind.name} loss, which needs {response_kind!r}")
    labels = _names(response.get("labels", []), "response labels")
    if kind.is_classification and len(labels) not in (0, kind.n_classes):
        raise TreeFormatError("label list does not match the class count")

    try:
        root = _node_from_json(_require(doc, "root", "document"), kind, name_to_feature, code_of)
    except RecursionError:
        # json.loads overflows first where its C recursion shares the
        # interpreter's limit (3.11); from 3.12 C recursion has a separate budget
        raise TreeFormatError("document nested too deeply") from None
    return Tree(
        root=root,
        strategy=strategy,
        loss=kind,
        feature_names=tuple(names),
        feature_kinds=tuple(kinds),
        categories=categories,
        response_kind=response_kind,
        response_labels=labels,
    )
