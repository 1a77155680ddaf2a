"""Tree growth, prediction, text rendering, and a lossless JSON format.

Trees are grown depth-first. Under the trinary strategies an internal
node may carry a third child for missing values: that child is trained on
the node's *entire* row set at the *same* depth, with the split feature
removed from the available set, so a chain of middle children walks
through the remaining features without consuming depth budget. Depth is
spent only on left/right edges.

Because a middle child sees the same rows as its parent, its per-feature
scan results are inherited from the parent rather than recomputed; only
the excluded feature is dropped. This is an exact reuse, not an
approximation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, CLASS, Dataset, NUMERIC, REAL, ValidationError
from .loss import LOG_CLAMP, LossKind, eval_loss, fit_leaf, loss_for
from .split import (
    MissingRoute,
    Partition,
    ScoredSplit,
    SplitConfig,
    Strategy,
    _materialize,
    _scan_features,
    _select_best,
    _FC,
    _TRINARY,
)

TREE_FORMAT = "nantree/1"


@dataclass(frozen=True)
class TrainConfig:
    strategy: Strategy
    loss: LossKind | None = None  # None: derived from the dataset's response
    max_depth: int = 5
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise ValidationError("max_depth must be non-negative")
        if self.min_samples < 1:
            raise ValidationError("min_samples must be at least 1")

    @property
    def split_config(self) -> SplitConfig:
        # fc reads the same floor as a minimum child weight
        return SplitConfig(min_child=self.min_samples, min_child_weight=float(self.min_samples))


@dataclass(frozen=True)
class SplitSpec:
    """What an internal node stores: the partition, where missing rows go,
    and for fc the observed fractions used to mix child predictions."""

    partition: Partition
    route: MissingRoute
    w_left: float | None = None
    w_right: float | None = None


@dataclass(frozen=True)
class Leaf:
    value: float | np.ndarray
    n_samples: float
    train_loss: float


@dataclass(frozen=True)
class Branch:
    spec: SplitSpec
    left: "Leaf | Branch"
    right: "Leaf | Branch"
    middle: "Leaf | Branch | None"
    n_samples: float


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


def _row_index(rows, n_rows: int) -> np.ndarray:
    """All ``n_rows`` positions by default; otherwise ``rows`` checked to be
    1-d integer positions in ``[0, n_rows)``."""
    if rows is None:
        return np.arange(n_rows, dtype=np.int64)
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValidationError("rows must be a 1-d sequence of integer row indices")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError(f"row indices must lie in [0, {n_rows})")
    return rows.astype(np.int64, copy=False)


def train(ds: Dataset, cfg: TrainConfig, rows: np.ndarray | None = None) -> Tree:
    """Grow a tree on ``rows`` of ``ds`` (all rows by default).

    A node becomes a leaf when the depth budget is exhausted, its training
    loss is zero, it is too small to split, or no feasible candidate
    exists on the available features.
    """
    kind = cfg.loss if cfg.loss is not None else loss_for(ds)
    if kind.is_classification and ds.response.kind != CLASS:
        raise ValidationError("cross-entropy loss needs a class response")
    if not kind.is_classification and ds.response.kind != REAL:
        raise ValidationError("sse loss needs a real response")
    rows = _row_index(rows, ds.n_rows)
    if rows.size == 0:
        raise ValidationError("cannot train on an empty row set")

    scfg = cfg.split_config
    is_fc = cfg.strategy is Strategy.FC
    all_features = frozenset(range(ds.n_features))

    def grow(node_rows, node_weights, depth, available, inherited):
        y = ds.response.values[node_rows]
        w = node_weights if node_weights is not None else np.ones(len(node_rows))
        value = fit_leaf(y, kind, w)
        node_loss = eval_loss(y, value, kind, w)
        size = float(w.sum()) if is_fc else float(len(node_rows))
        n_stat = float(w.sum()) if is_fc else len(node_rows)

        def leaf():
            return Leaf(value=value, n_samples=n_stat, train_loss=node_loss)

        if depth >= cfg.max_depth or node_loss == 0.0 or not available:
            return leaf()
        floor = 2.0 * scfg.min_child_weight if is_fc else 2 * scfg.min_child
        if size < floor:
            return leaf()

        if inherited is not None:
            scans = {f: inherited[f] for f in sorted(available) if f in inherited}
        else:
            scans = _scan_features(ds, node_rows, available, cfg.strategy, kind, scfg, w, value)
        choice = _select_best(scans, cfg.strategy)
        if choice is None:
            return leaf()
        feature, style, _ = choice
        scored: ScoredSplit = _materialize(ds, node_rows, scans, choice, kind, scfg, w, value)

        if style == _TRINARY:
            left = grow(scored.left_rows, None, depth + 1, available, None)
            right = grow(scored.right_rows, None, depth + 1, available, None)
            sub_avail = available - {feature}
            sub_scans = {f: scans[f] for f in sub_avail if f in scans}
            middle = grow(node_rows, None, depth, sub_avail, sub_scans)
            spec = SplitSpec(scored.partition, MissingRoute.MIDDLE)
            return Branch(spec, left, right, middle, n_stat)
        if style == _FC:
            left = grow(scored.left_rows, scored.left_weights, depth + 1, available, None)
            right = grow(scored.right_rows, scored.right_weights, depth + 1, available, None)
            spec = SplitSpec(scored.partition, MissingRoute.FRACTIONAL,
                             w_left=scored.frac_left, w_right=1.0 - scored.frac_left)
            return Branch(spec, left, right, None, n_stat)
        # majority/mia trees carry unit weights throughout
        left = grow(scored.left_rows, None, depth + 1, available, None)
        right = grow(scored.right_rows, None, depth + 1, available, None)
        spec = SplitSpec(scored.partition, scored.route)
        return Branch(spec, left, right, None, n_stat)

    root = grow(rows, np.ones(len(rows)) if is_fc else None, 0, all_features, None)
    return Tree(
        root=root,
        strategy=cfg.strategy,
        loss=kind,
        feature_names=tuple(c.name for c in ds.columns),
        feature_kinds=tuple(c.kind for c in ds.columns),
        categories={j: c.categories for j, c in enumerate(ds.columns) if c.kind == CATEGORICAL},
        response_kind=ds.response.kind,
        response_labels=ds.response.labels,
    )


# ---------------------------------------------------------------------------
# prediction

def _route_cell(spec: SplitSpec, cell) -> str:
    p = spec.partition
    if p.is_numeric:
        if np.isnan(cell):
            return "missing"
        return "left" if cell <= p.threshold else "right"
    code = int(cell)
    if code in p.left_categories:
        return "left"
    if code in p.right_categories:
        return "right"
    # missing, globally unseen, or a category this node never observed
    return "missing"


def _normalize_probs(v: np.ndarray) -> np.ndarray:
    s = v.sum()
    return v if s == 1.0 else v / s


def predict_row(tree: Tree, cells):
    """Predict one row given per-feature cells (float with NaN for missing
    numerics, int code with -1 for missing categoricals)."""
    if len(cells) != len(tree.feature_names):
        raise ValidationError(f"row has {len(cells)} cells, tree expects {len(tree.feature_names)}")

    def walk(node):
        if isinstance(node, Leaf):
            return node.value
        side = _route_cell(node.spec, cells[node.spec.partition.feature])
        if side == "left":
            return walk(node.left)
        if side == "right":
            return walk(node.right)
        if node.spec.route is MissingRoute.MIDDLE:
            return walk(node.middle)
        if node.spec.route is MissingRoute.LEFT:
            return walk(node.left)
        if node.spec.route is MissingRoute.RIGHT:
            return walk(node.right)
        # fractional: mix both children
        lv = walk(node.left)
        rv = walk(node.right)
        mixed = node.spec.w_left * lv + node.spec.w_right * rv
        if isinstance(mixed, np.ndarray):
            return _normalize_probs(mixed)
        return mixed

    return walk(tree.root)


def _code_remap(tree: Tree, ds: Dataset) -> list[np.ndarray | None]:
    """Per-feature code remap from ``ds`` codes to the tree's training
    dictionary; names unseen in training map to missing."""
    remaps: list[np.ndarray | None] = []
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        col = ds.columns[j]
        if col.name != name or col.kind != kind:
            raise ValidationError(f"feature {j} is {col.name!r}/{col.kind}, tree expects {name!r}/{kind}")
        if kind != CATEGORICAL:
            remaps.append(None)
            continue
        trained = tree.categories.get(j, ())
        if col.categories == trained:
            remaps.append(None)  # identical dictionaries: no remap needed
            continue
        code_of = {c: i for i, c in enumerate(trained)}
        remaps.append(np.array([code_of.get(c, -1) for c in col.categories], dtype=np.int64))
    return remaps


def _sides(p: Partition, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the cells in ``v`` that go left and right at ``p``; a cell
    in neither is missing at this node, as in :func:`_route_cell`."""
    if p.is_numeric:
        left = v <= p.threshold
        return left, ~(left | np.isnan(v))
    # codes past the last slot clip onto it and -1 wraps onto it: both read 0
    top = max(p.left_categories | p.right_categories) + 1
    side = np.zeros(top + 1, dtype=np.int8)
    side[list(p.left_categories)] = 1
    side[list(p.right_categories)] = 2
    s = side[np.minimum(v, top)]
    return s == 1, s == 2


def _fill(node, cols: list[np.ndarray], rows: np.ndarray, out: np.ndarray, at: np.ndarray) -> None:
    """Write the predictions for rows ``rows`` of the feature columns
    ``cols`` into ``out[at]``, mirroring :func:`predict_row` operation for
    operation."""
    if isinstance(node, Leaf):
        out[at] = node.value
        return
    spec = node.spec
    left, right = _sides(spec.partition, cols[spec.partition.feature][rows])
    missing = ~(left | right)
    if spec.route is MissingRoute.LEFT:
        left |= missing
    elif spec.route is MissingRoute.RIGHT:
        right |= missing
    elif spec.route is MissingRoute.MIDDLE:
        if missing.any():
            _fill(node.middle, cols, rows[missing], out, at[missing])
    elif missing.any():
        # fractional: both subtrees predict the missing rows, then mix
        m_rows = rows[missing]
        m_at = np.arange(len(m_rows))
        lv = np.empty((len(m_rows),) + out.shape[1:])
        rv = np.empty_like(lv)
        _fill(node.left, cols, m_rows, lv, m_at)
        _fill(node.right, cols, m_rows, rv, m_at)
        mixed = spec.w_left * lv + spec.w_right * rv
        if mixed.ndim == 2:
            mixed /= mixed.sum(axis=1, keepdims=True)
        out[at[missing]] = mixed
    if left.any():
        _fill(node.left, cols, rows[left], out, at[left])
    if right.any():
        _fill(node.right, cols, rows[right], out, at[right])


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
    rows = _row_index(rows, ds.n_rows)
    remaps = _code_remap(tree, ds)
    cols = []
    for j, col in enumerate(ds.columns):
        v = col.values
        remap = remaps[j]
        if remap is not None:
            v = np.where(v >= 0, remap[np.maximum(v, 0)], -1)
        cols.append(v)
    if tree.loss.is_classification:
        out = np.empty((len(rows), tree.loss.n_classes))
    else:
        out = np.empty(len(rows))
    _fill(tree.root, cols, rows, out, np.arange(len(rows)))
    return out


def evaluate(tree: Tree, ds: Dataset, rows: np.ndarray | None = None) -> tuple[float, float | None]:
    """Total test loss of the tree on rows of ``ds``; for classification
    also the misclassification rate (argmax, lowest class on ties)."""
    rows = _row_index(rows, ds.n_rows)
    preds = predict(tree, ds, rows)
    y = ds.response.values[rows]
    if tree.loss.is_classification:
        p = np.maximum(preds[np.arange(len(y)), y], LOG_CLAMP)
        misclass = float((preds.argmax(axis=1) != y).mean())
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

    def walk(node, depth, indent, label):
        pad = "  " * indent
        tag = f"{label}: " if label else ""
        if isinstance(node, Leaf):
            lines.append(f"d{depth} {pad}{tag}leaf δ={_fmt_value(node.value)} (n={_fmt_n(node.n_samples)})")
            return
        cond = _condition(tree, node.spec)
        lines.append(f"d{depth} {pad}{tag}split {cond} (n={_fmt_n(node.n_samples)}, {_route_note(node.spec)})")
        walk(node.left, depth + 1, indent + 1, "left")
        walk(node.right, depth + 1, indent + 1, "right")
        if node.middle is not None:
            walk(node.middle, depth, indent + 1, "missing")

    walk(tree.root, 0, 0, "")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# serialization: a self-describing JSON document (see docs/tree_format.md)

class TreeFormatError(ValidationError):
    """The tree document is malformed or fails validation."""


def _value_to_json(value):
    if isinstance(value, np.ndarray):
        return [float(p) for p in value]
    return float(value)


def _node_to_json(tree: Tree, node) -> dict:
    if isinstance(node, Leaf):
        return {
            "kind": "leaf",
            "value": _value_to_json(node.value),
            "n": float(node.n_samples),
            "loss": float(node.train_loss),
        }
    spec = node.spec
    p = spec.partition
    doc: dict = {
        "kind": "trinary" if node.middle is not None else "binary",
        "feature": tree.feature_names[p.feature],
        "missing": spec.route.value,
        "n": float(node.n_samples),
    }
    if p.is_numeric:
        doc["threshold"] = float(p.threshold)
    else:
        cats = tree.categories[p.feature]
        doc["left_categories"] = [cats[c] for c in sorted(p.left_categories)]
        doc["right_categories"] = [cats[c] for c in sorted(p.right_categories)]
    if spec.route is MissingRoute.FRACTIONAL:
        doc["w_left"] = spec.w_left
        doc["w_right"] = spec.w_right
    doc["left"] = _node_to_json(tree, node.left)
    doc["right"] = _node_to_json(tree, node.right)
    if node.middle is not None:
        doc["middle"] = _node_to_json(tree, node.middle)
    return doc


def serialize(tree: Tree) -> str:
    """Lossless JSON text for a trained tree."""
    features = []
    for j, (name, kind) in enumerate(zip(tree.feature_names, tree.feature_kinds)):
        entry: dict = {"name": name, "kind": kind}
        if kind == CATEGORICAL:
            entry["categories"] = list(tree.categories.get(j, ()))
        features.append(entry)
    doc = {
        "format": TREE_FORMAT,
        "strategy": tree.strategy.value,
        "loss": {"kind": tree.loss.name, "n_classes": tree.loss.n_classes},
        "features": features,
        "response": {"kind": tree.response_kind, "labels": list(tree.response_labels)},
        "root": _node_to_json(tree, tree.root),
    }
    return json.dumps(doc, indent=2)


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise TreeFormatError(f"{context}: missing field {key!r}")
    return doc[key]


def _value_from_json(raw, kind: LossKind):
    if kind.is_classification:
        if not isinstance(raw, list) or len(raw) != kind.n_classes:
            raise TreeFormatError(f"leaf value must be a list of {kind.n_classes} probabilities")
        probs = np.array([float(p) for p in raw])
        if (probs < 0).any():
            raise TreeFormatError("leaf probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise TreeFormatError(f"leaf probabilities sum to {probs.sum()!r}, not 1")
        return probs
    if isinstance(raw, list):
        raise TreeFormatError("regression leaf value must be a number")
    return float(raw)


def _node_from_json(doc: dict, kind: LossKind, name_to_feature: dict, categories: dict):
    node_kind = _require(doc, "kind", "node")
    if node_kind == "leaf":
        value = _value_from_json(_require(doc, "value", "leaf"), kind)
        return Leaf(value=value, n_samples=float(doc.get("n", 0)), train_loss=float(doc.get("loss", 0.0)))
    if node_kind not in ("binary", "trinary"):
        raise TreeFormatError(f"unknown node kind {node_kind!r}")
    fname = _require(doc, "feature", "split node")
    if fname not in name_to_feature:
        raise TreeFormatError(f"split on unknown feature {fname!r}")
    feature = name_to_feature[fname]
    if "threshold" in doc:
        partition = Partition(feature, threshold=float(doc["threshold"]))
    else:
        cats = categories.get(feature)
        if cats is None:
            raise TreeFormatError(f"feature {fname!r} is numeric but the node has no threshold")
        code_of = {c: i for i, c in enumerate(cats)}
        try:
            left = frozenset(code_of[c] for c in _require(doc, "left_categories", "split node"))
            right = frozenset(code_of[c] for c in _require(doc, "right_categories", "split node"))
        except KeyError as exc:
            raise TreeFormatError(f"unknown category {exc.args[0]!r} on feature {fname!r}") from None
        partition = Partition(feature, left_categories=left, right_categories=right)
    route_raw = _require(doc, "missing", "split node")
    try:
        route = MissingRoute(route_raw)
    except ValueError:
        raise TreeFormatError(f"unknown missing route {route_raw!r}") from None
    w_left = w_right = None
    if route is MissingRoute.FRACTIONAL:
        w_left = float(_require(doc, "w_left", "fractional node"))
        w_right = float(_require(doc, "w_right", "fractional node"))
        if abs(w_left + w_right - 1.0) > 1e-12:
            raise TreeFormatError(f"fractional weights sum to {w_left + w_right!r}, not 1")
        if w_left < 0 or w_right < 0:
            raise TreeFormatError("fractional weights must be non-negative")
    if (route is MissingRoute.MIDDLE) != (node_kind == "trinary"):
        raise TreeFormatError("middle route and trinary node kind must occur together")
    if (node_kind == "trinary") != ("middle" in doc):
        raise TreeFormatError("trinary nodes need a middle child; binary nodes must not have one")
    left_child = _node_from_json(_require(doc, "left", "split node"), kind, name_to_feature, categories)
    right_child = _node_from_json(_require(doc, "right", "split node"), kind, name_to_feature, categories)
    middle_child = None
    if node_kind == "trinary":
        middle_child = _node_from_json(doc["middle"], kind, name_to_feature, categories)
    spec = SplitSpec(partition, route, w_left=w_left, w_right=w_right)
    return Branch(spec, left_child, right_child, middle_child, float(doc.get("n", 0)))


def deserialize(text: str) -> Tree:
    """Parse and validate a tree document produced by :func:`serialize`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeFormatError("tree document must be a JSON object")
    fmt = _require(doc, "format", "document")
    if fmt != TREE_FORMAT:
        raise TreeFormatError(f"unsupported format {fmt!r}")
    try:
        strategy = Strategy(_require(doc, "strategy", "document"))
    except ValueError:
        raise TreeFormatError(f"unknown strategy {doc.get('strategy')!r}") from None
    loss_doc = _require(doc, "loss", "document")
    try:
        kind = LossKind(loss_doc.get("kind", ""), int(loss_doc.get("n_classes", 0)))
    except ValueError as exc:
        raise TreeFormatError(str(exc)) from exc

    names, kinds, categories = [], [], {}
    for j, f in enumerate(_require(doc, "features", "document")):
        names.append(_require(f, "name", "feature"))
        fk = _require(f, "kind", "feature")
        if fk not in (NUMERIC, CATEGORICAL):
            raise TreeFormatError(f"unknown feature kind {fk!r}")
        kinds.append(fk)
        if fk == CATEGORICAL:
            categories[j] = tuple(f.get("categories", []))
    if len(set(names)) != len(names):
        raise TreeFormatError("duplicate feature names")
    name_to_feature = {n: j for j, n in enumerate(names)}

    response = doc.get("response", {})
    response_kind = response.get("kind", CLASS if kind.is_classification else REAL)
    labels = tuple(response.get("labels", ()))
    if kind.is_classification and len(labels) not in (0, kind.n_classes):
        raise TreeFormatError("label list does not match the class count")

    root = _node_from_json(_require(doc, "root", "document"), kind, name_to_feature, categories)
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
