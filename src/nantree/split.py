"""Split enumeration and scoring under five missing-value strategies.

A candidate split partitions the observed values of one feature into a
left and a right block (threshold cut for numeric features, category
bipartition for categorical ones). Rows whose value is missing on that
feature are handled per strategy:

* majority    -- routed to the child with more observed rows (ties right),
* mia         -- routed to whichever child gives the lower training loss,
* fc          -- sent to both children with fractionally scaled weights,
* trinary     -- kept out of both children and priced at the mother value
                 (the node grows a dedicated third child for them),
* trinary_mia -- per node, the better of the mia and trinary objectives
                 (ties go to trinary).

Scoring is exact but vectorized: per feature, candidate child losses are
computed from running sufficient statistics instead of per-candidate
passes over the rows. When a feature has no missing rows at a node, all
strategy objectives coincide and are computed once, so they are equal
bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureColumn, ValidationError
from .loss import LOG_CLAMP, LossKind, eval_loss, fit_leaf

#: Exhaustive category bipartitions are enumerated up to this many observed
#: categories (multiclass only); above it, frequency-ordered prefix cuts.
MAX_EXHAUSTIVE_CATEGORIES = 10


class Strategy(Enum):
    MAJORITY = "majority"
    MIA = "mia"
    FC = "fc"
    TRINARY = "trinary"
    TRINARY_MIA = "trinary_mia"


class MissingRoute(Enum):
    LEFT = "left"
    RIGHT = "right"
    MIDDLE = "middle"
    FRACTIONAL = "fractional"


@dataclass(frozen=True)
class Partition:
    """One candidate bipartition of a feature's observed values."""

    feature: int
    threshold: float | None = None
    left_categories: frozenset[int] | None = None
    right_categories: frozenset[int] | None = None

    def __post_init__(self) -> None:
        numeric = self.threshold is not None
        categorical = self.left_categories is not None and self.right_categories is not None
        if numeric == categorical:
            raise ValueError("partition needs either a threshold or two category sets")
        if categorical:
            left = frozenset(int(c) for c in self.left_categories)
            right = frozenset(int(c) for c in self.right_categories)
            if not left or not right or left & right:
                raise ValueError("category sets must be disjoint and non-empty")
            object.__setattr__(self, "left_categories", left)
            object.__setattr__(self, "right_categories", right)

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None


@dataclass(frozen=True)
class SplitConfig:
    min_child: int = 5
    min_child_weight: float = 5.0

    def __post_init__(self) -> None:
        if self.min_child < 1:
            raise ValidationError("min_child must be at least 1")
        if self.min_child_weight <= 0:
            raise ValidationError("min_child_weight must be positive")


@dataclass(frozen=True)
class ScoredSplit:
    """A feasible split with its fitted children and total training loss.

    ``left_rows``/``right_rows`` are the row index sets the children train
    on (for fc they include the missing rows, with weights in
    ``left_weights``/``right_weights``). ``middle_rows`` is non-empty only
    for trinary scoring, where it holds the feature-missing rows priced at
    the mother value.
    """

    partition: Partition
    route: MissingRoute
    total_loss: float
    left_rows: np.ndarray
    right_rows: np.ndarray
    middle_rows: np.ndarray
    loss_left: float
    loss_right: float
    loss_middle: float = 0.0
    left_weights: np.ndarray | None = None
    right_weights: np.ndarray | None = None
    frac_left: float | None = None


# ---------------------------------------------------------------------------
# losses from sufficient statistics

def _xlogx(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a * np.log(np.where(a > 0, a, 1.0))


def _fitted_sse(W, A1, A2):
    # sum of w*(y - mean)^2 over a block, from W = sum w, A1 = sum w*y,
    # A2 = sum w*y^2; clamped at zero against rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        out = A2 - (A1 * A1) / W
    return np.maximum(out, 0.0)


def _fitted_xe(C):
    # C has class weight sums along the last axis
    W = C.sum(axis=-1)
    return np.maximum(_xlogx(W) - _xlogx(C).sum(axis=-1), 0.0)


def _sse_at_value(delta: float, W: float, A1: float, A2: float) -> float:
    return max(A2 - 2.0 * delta * A1 + delta * delta * W, 0.0)


def _xe_at_value(probs: np.ndarray, C: np.ndarray) -> float:
    return float((C * -np.log(np.maximum(probs, LOG_CLAMP))).sum())


# ---------------------------------------------------------------------------
# candidate tables: partitions plus per-candidate left-block statistics

@dataclass
class _Table:
    partitions: list[Partition]
    n_left: np.ndarray          # observed row counts in the left block
    n_present: int
    n_missing: int
    # weighted stats; for sse the X arrays are (A1, A2), for xe X is the
    # per-class weight matrix and A-fields stay None
    W_left: np.ndarray
    W_present: float
    W_miss: float
    A1_left: np.ndarray | None = None
    A2_left: np.ndarray | None = None
    A1_present: float = 0.0
    A2_present: float = 0.0
    A1_miss: float = 0.0
    A2_miss: float = 0.0
    C_left: np.ndarray | None = None
    C_present: np.ndarray | None = None
    C_miss: np.ndarray | None = None


def _class_matrix(y: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((len(y), k), dtype=np.float64)
    if len(y):
        out[np.arange(len(y)), y] = w
    return out


def _candidate_table(
    column: FeatureColumn,
    feature: int,
    rows: np.ndarray,
    y: np.ndarray,
    kind: LossKind,
    w: np.ndarray,
) -> _Table | None:
    v = column.values[rows]
    if column.kind == CATEGORICAL:
        present = v >= 0
    else:
        present = ~np.isnan(v)
    miss = ~present
    yp, wp, vp = y[present], w[present], v[present]
    ym, wm = y[miss], w[miss]

    n_missing = int(miss.sum())
    n_present = int(present.sum())

    if kind.is_classification:
        cm = _class_matrix(ym, wm, kind.n_classes)
        C_miss = cm.sum(axis=0)
        W_miss = float(C_miss.sum())
    else:
        A1_miss = float((wm * ym).sum())
        A2_miss = float((wm * ym * ym).sum())
        W_miss = float(wm.sum())

    if column.kind == CATEGORICAL:
        built = _categorical_candidates(feature, vp, yp, wp, kind, len(column.categories))
    else:
        built = _numeric_candidates(feature, vp, yp, wp, kind)
    if built is None:
        return None
    partitions, n_left, W_left, X_left = built

    table = _Table(
        partitions=partitions,
        n_left=n_left,
        n_present=n_present,
        n_missing=n_missing,
        W_left=W_left,
        W_present=float(wp.sum()),
        W_miss=W_miss,
    )
    if kind.is_classification:
        table.C_left = X_left
        table.C_present = _class_matrix(yp, wp, kind.n_classes).sum(axis=0)
        table.C_miss = C_miss
    else:
        A1, A2 = X_left
        table.A1_left, table.A2_left = A1, A2
        table.A1_present = float((wp * yp).sum())
        table.A2_present = float((wp * yp * yp).sum())
        table.A1_miss, table.A2_miss = A1_miss, A2_miss
    return table


def _numeric_candidates(feature, vp, yp, wp, kind):
    if len(vp) == 0:
        return None
    order = np.argsort(vp, kind="stable")
    vs, ys, ws = vp[order], yp[order], wp[order]
    cuts = np.flatnonzero(vs[:-1] < vs[1:])
    if cuts.size == 0:
        return None
    lo, hi = vs[cuts], vs[cuts + 1]
    mids = 0.5 * (lo + hi)
    # guard against midpoints that round up to the right value
    thresholds = np.where(mids < hi, mids, lo)
    partitions = [Partition(feature, threshold=float(t)) for t in thresholds]
    n_left = cuts + 1
    cw = np.cumsum(ws)
    W_left = cw[cuts]
    if kind.is_classification:
        C = np.cumsum(_class_matrix(ys, ws, kind.n_classes), axis=0)
        return partitions, n_left, W_left, C[cuts]
    A1 = np.cumsum(ws * ys)[cuts]
    A2 = np.cumsum(ws * ys * ys)[cuts]
    return partitions, n_left, W_left, (A1, A2)


def _categorical_candidates(feature, vp, yp, wp, kind, n_categories):
    if len(vp) == 0:
        return None
    counts = np.bincount(vp, minlength=n_categories)
    observed = np.flatnonzero(counts > 0)
    if observed.size < 2:
        return None
    catW = np.bincount(vp, weights=wp, minlength=n_categories)
    if kind.is_classification:
        catC = np.zeros((n_categories, kind.n_classes))
        for k in range(kind.n_classes):
            catC[:, k] = np.bincount(vp, weights=wp * (yp == k), minlength=n_categories)
    else:
        catA1 = np.bincount(vp, weights=wp * yp, minlength=n_categories)
        catA2 = np.bincount(vp, weights=wp * yp * yp, minlength=n_categories)

    multiclass = kind.is_classification and kind.n_classes > 2
    if multiclass and observed.size <= MAX_EXHAUSTIVE_CATEGORIES:
        m = observed.size
        n_cand = 2 ** (m - 1) - 1
        b = np.arange(n_cand, dtype=np.uint32)
        bits = ((b[:, None] >> np.arange(m - 1, dtype=np.uint32)) & 1).astype(bool)
        left_mask = np.concatenate([np.ones((n_cand, 1), dtype=bool), bits], axis=1)
        all_obs = frozenset(int(c) for c in observed)
        partitions = []
        for row in left_mask:
            left = frozenset(int(c) for c in observed[row])
            partitions.append(Partition(feature, left_categories=left, right_categories=all_obs - left))
        lm = left_mask.astype(np.int64)
        n_left = lm @ counts[observed]
        lmf = left_mask.astype(np.float64)
        W_left = lmf @ catW[observed]
        if kind.is_classification:
            return partitions, n_left, W_left, lmf @ catC[observed]
        return partitions, n_left, W_left, (lmf @ catA1[observed], lmf @ catA2[observed])

    if multiclass:
        # too many categories for exhaustive search: descending frequency
        # prefix cuts, ties by category code
        order = np.lexsort((observed, -counts[observed]))
    else:
        # order categories by weighted mean response (class-1 share for
        # binary classification); prefix cuts of this order contain an
        # optimal bipartition for sse and binary cross-entropy
        if kind.is_classification:
            metric = catC[observed, 1] / catW[observed]
        else:
            metric = catA1[observed] / catW[observed]
        order = np.lexsort((observed, metric))
    ordered = observed[order]
    m = ordered.size
    all_obs = frozenset(int(c) for c in observed)
    partitions = []
    for i in range(1, m):
        left = frozenset(int(c) for c in ordered[:i])
        partitions.append(Partition(feature, left_categories=left, right_categories=all_obs - left))
    n_left = np.cumsum(counts[ordered])[:-1]
    W_left = np.cumsum(catW[ordered])[:-1]
    if kind.is_classification:
        C_left = np.cumsum(catC[ordered], axis=0)[:-1]
        return partitions, n_left, W_left, C_left
    A1_left = np.cumsum(catA1[ordered])[:-1]
    A2_left = np.cumsum(catA2[ordered])[:-1]
    return partitions, n_left, W_left, (A1_left, A2_left)


def enumerate_candidates(
    column: FeatureColumn,
    feature: int,
    rows: np.ndarray,
    y: np.ndarray,
    kind: LossKind,
    weights: np.ndarray | None = None,
) -> list[Partition]:
    """All candidate partitions of one feature at a node, in scan order.

    Numeric: midpoints between consecutive distinct observed values, in
    ascending order. Categorical: prefix cuts of the mean-response
    ordering (regression and two-class problems), exhaustive bipartitions
    for multiclass with few categories, frequency-ordered prefix cuts
    otherwise. Fewer than two distinct observed values yields no
    candidates.
    """
    rows = np.asarray(rows, dtype=np.int64)
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=np.float64)
    table = _candidate_table(column, feature, rows, np.asarray(y), kind, w)
    return table.partitions if table is not None else []


# ---------------------------------------------------------------------------
# single-partition scorers

def _partition_masks(column: FeatureColumn, rows: np.ndarray, partition: Partition):
    v = column.values[rows]
    if partition.is_numeric:
        present = ~np.isnan(v)
        left = present & (v <= partition.threshold)
        right = present & (v > partition.threshold)
    else:
        left = np.isin(v, np.fromiter(partition.left_categories, dtype=np.int64, count=len(partition.left_categories)))
        right = np.isin(v, np.fromiter(partition.right_categories, dtype=np.int64, count=len(partition.right_categories)))
    # cells in neither block (missing, or a category unseen at this node)
    # count as missing
    return left, right, ~(left | right)


def score_binary(
    ds: Dataset,
    rows: np.ndarray,
    partition: Partition,
    route: MissingRoute,
    kind: LossKind,
    min_child: int = 1,
    weights: np.ndarray | None = None,
) -> ScoredSplit | None:
    """Score a two-child split with missing rows routed to one side.

    Returns None when either child ends up with fewer than ``min_child``
    rows (missing rows count toward the side they are routed to).
    """
    if route not in (MissingRoute.LEFT, MissingRoute.RIGHT):
        raise ValueError("score_binary routes missing rows left or right")
    rows = np.asarray(rows, dtype=np.int64)
    col = ds.columns[partition.feature]
    left_m, right_m, miss_m = _partition_masks(col, rows, partition)
    if route is MissingRoute.LEFT:
        left_m = left_m | miss_m
    else:
        right_m = right_m | miss_m
    min_child = max(min_child, 1)
    if left_m.sum() < min_child or right_m.sum() < min_child:
        return None
    y = ds.response.values[rows]
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=np.float64)
    ll = eval_loss(y[left_m], fit_leaf(y[left_m], kind, w[left_m]), kind, w[left_m])
    lr = eval_loss(y[right_m], fit_leaf(y[right_m], kind, w[right_m]), kind, w[right_m])
    return ScoredSplit(
        partition=partition,
        route=route,
        total_loss=ll + lr,
        left_rows=rows[left_m],
        right_rows=rows[right_m],
        middle_rows=rows[:0],
        loss_left=ll,
        loss_right=lr,
    )


def score_trinary(
    ds: Dataset,
    rows: np.ndarray,
    partition: Partition,
    kind: LossKind,
    mother_value=None,
    min_child: int = 1,
) -> ScoredSplit | None:
    """Score a split whose missing rows stay out of both children.

    The missing block is priced at ``mother_value`` (the fitted value of
    the whole node, computed here when not supplied); it is not refit.
    Feasibility constrains only the observed children.
    """
    rows = np.asarray(rows, dtype=np.int64)
    col = ds.columns[partition.feature]
    left_m, right_m, miss_m = _partition_masks(col, rows, partition)
    min_child = max(min_child, 1)
    if left_m.sum() < min_child or right_m.sum() < min_child:
        return None
    y = ds.response.values[rows]
    if mother_value is None:
        mother_value = fit_leaf(y, kind)
    ll = eval_loss(y[left_m], fit_leaf(y[left_m], kind), kind)
    lr = eval_loss(y[right_m], fit_leaf(y[right_m], kind), kind)
    lm = eval_loss(y[miss_m], mother_value, kind)
    return ScoredSplit(
        partition=partition,
        route=MissingRoute.MIDDLE,
        total_loss=ll + lr + lm,
        left_rows=rows[left_m],
        right_rows=rows[right_m],
        middle_rows=rows[miss_m],
        loss_left=ll,
        loss_right=lr,
        loss_middle=lm,
    )


def score_fractional(
    ds: Dataset,
    rows: np.ndarray,
    partition: Partition,
    kind: LossKind,
    min_child_weight: float = 1.0,
    weights: np.ndarray | None = None,
) -> ScoredSplit | None:
    """Score a split whose missing rows enter both children.

    Missing rows keep their weight scaled by the observed fraction of each
    side; the fractions come from unweighted observed row counts. Returns
    None when a child's total weight falls below ``min_child_weight`` or
    when the feature is missing (or one-sided) on all rows.
    """
    rows = np.asarray(rows, dtype=np.int64)
    col = ds.columns[partition.feature]
    left_m, right_m, miss_m = _partition_masks(col, rows, partition)
    n_lo = int(left_m.sum())
    n_ro = int(right_m.sum())
    if n_lo == 0 or n_ro == 0:
        return None
    frac_left = n_lo / (n_lo + n_ro)
    frac_right = 1.0 - frac_left
    y = ds.response.values[rows]
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=np.float64)

    left_rows = np.concatenate([rows[left_m], rows[miss_m]])
    left_w = np.concatenate([w[left_m], w[miss_m] * frac_left])
    right_rows = np.concatenate([rows[right_m], rows[miss_m]])
    right_w = np.concatenate([w[right_m], w[miss_m] * frac_right])
    if left_w.sum() < min_child_weight or right_w.sum() < min_child_weight:
        return None
    y_left = np.concatenate([y[left_m], y[miss_m]])
    y_right = np.concatenate([y[right_m], y[miss_m]])
    ll = eval_loss(y_left, fit_leaf(y_left, kind, left_w), kind, left_w)
    lr = eval_loss(y_right, fit_leaf(y_right, kind, right_w), kind, right_w)
    return ScoredSplit(
        partition=partition,
        route=MissingRoute.FRACTIONAL,
        total_loss=ll + lr,
        left_rows=left_rows,
        right_rows=right_rows,
        middle_rows=rows[:0],
        loss_left=ll,
        loss_right=lr,
        left_weights=left_w,
        right_weights=right_w,
        frac_left=frac_left,
    )


# ---------------------------------------------------------------------------
# vectorized per-feature scan

_MAJORITY = "majority"
_MIA = "mia"
_FC = "fc"
_TRINARY = "trinary"

_STYLES = {
    Strategy.MAJORITY: (_MAJORITY,),
    Strategy.MIA: (_MIA,),
    Strategy.FC: (_FC,),
    Strategy.TRINARY: (_TRINARY,),
    Strategy.TRINARY_MIA: (_MIA, _TRINARY),
}


@dataclass(frozen=True)
class _Entry:
    loss: float
    cand: int
    route: MissingRoute
    frac_left: float | None = None


@dataclass
class _FeatureScan:
    partitions: list[Partition]
    entries: dict[str, _Entry | None]


def _argbest(losses: np.ndarray, feasible: np.ndarray) -> int | None:
    masked = np.where(feasible, losses, np.inf)
    if masked.size == 0:
        return None
    i = int(np.argmin(masked))
    if not np.isfinite(masked[i]):
        return None
    return i


def _scan_feature(ds, feature, rows, y, w, kind, cfg, styles, node_value) -> _FeatureScan | None:
    table = _candidate_table(ds.columns[feature], feature, rows, y, kind, w)
    if table is None:
        return None
    mc, mw = cfg.min_child, cfg.min_child_weight
    n_l = table.n_left
    n_r = table.n_present - n_l
    n_m = table.n_missing
    W_l = table.W_left
    W_r = table.W_present - W_l

    if kind.is_classification:
        f_l = _fitted_xe(table.C_left)
        f_r = _fitted_xe(table.C_present - table.C_left)
    else:
        A1_l, A2_l = table.A1_left, table.A2_left
        A1_r, A2_r = table.A1_present - A1_l, table.A2_present - A2_l
        f_l = _fitted_sse(W_l, A1_l, A2_l)
        f_r = _fitted_sse(W_r, A1_r, A2_r)

    entries: dict[str, _Entry | None] = {}

    if n_m == 0:
        # No missing rows at this node-feature: every strategy objective is
        # the same plain two-child loss, computed once so they agree exactly.
        base = f_l + f_r
        count_ok = (n_l >= mc) & (n_r >= mc)
        weight_ok = (W_l >= mw) & (W_r >= mw)
        for style in styles:
            i = _argbest(base, weight_ok if style == _FC else count_ok)
            if i is None:
                entries[style] = None
                continue
            if style == _FC:
                entries[style] = _Entry(float(base[i]), i, MissingRoute.FRACTIONAL,
                                        frac_left=float(n_l[i] / table.n_present))
            elif style == _TRINARY:
                entries[style] = _Entry(float(base[i]), i, MissingRoute.MIDDLE)
            else:
                # majority routing; mia route ties resolve to the majority
                # side, which is what makes the two strategies coincide on
                # missing-free training data
                route = MissingRoute.LEFT if n_l[i] > n_r[i] else MissingRoute.RIGHT
                entries[style] = _Entry(float(base[i]), i, route)
        return _FeatureScan(table.partitions, entries)

    # merged-block losses for routing strategies
    if _MAJORITY in styles or _MIA in styles:
        if kind.is_classification:
            loss_left_routed = _fitted_xe(table.C_left + table.C_miss) + f_r
            loss_right_routed = f_l + _fitted_xe((table.C_present - table.C_left) + table.C_miss)
        else:
            loss_left_routed = _fitted_sse(W_l + table.W_miss, A1_l + table.A1_miss, A2_l + table.A2_miss) + f_r
            loss_right_routed = f_l + _fitted_sse(W_r + table.W_miss, A1_r + table.A1_miss, A2_r + table.A2_miss)
        feas_left = (n_l + n_m >= mc) & (n_r >= mc)
        feas_right = (n_l >= mc) & (n_r + n_m >= mc)
        majority_left = n_l > n_r

    if _MAJORITY in styles:
        loss = np.where(majority_left, loss_left_routed, loss_right_routed)
        feas = np.where(majority_left, feas_left, feas_right)
        i = _argbest(loss, feas)
        entries[_MAJORITY] = None if i is None else _Entry(
            float(loss[i]), i,
            MissingRoute.LEFT if majority_left[i] else MissingRoute.RIGHT,
        )

    if _MIA in styles:
        ml = np.where(feas_left, loss_left_routed, np.inf)
        mr = np.where(feas_right, loss_right_routed, np.inf)
        loss = np.minimum(ml, mr)
        i = _argbest(loss, np.isfinite(loss))
        if i is None:
            entries[_MIA] = None
        else:
            if ml[i] < mr[i]:
                route = MissingRoute.LEFT
            elif mr[i] < ml[i]:
                route = MissingRoute.RIGHT
            else:
                route = MissingRoute.LEFT if majority_left[i] else MissingRoute.RIGHT
            entries[_MIA] = _Entry(float(loss[i]), i, route)

    if _TRINARY in styles:
        if kind.is_classification:
            g = _xe_at_value(node_value, table.C_miss)
        else:
            g = _sse_at_value(node_value, table.W_miss, table.A1_miss, table.A2_miss)
        loss = f_l + f_r + g
        i = _argbest(loss, (n_l >= mc) & (n_r >= mc))
        entries[_TRINARY] = None if i is None else _Entry(float(loss[i]), i, MissingRoute.MIDDLE)

    if _FC in styles:
        alpha = n_l / table.n_present
        beta = 1.0 - alpha
        if kind.is_classification:
            C_lf = table.C_left + alpha[:, None] * table.C_miss
            C_rf = (table.C_present - table.C_left) + beta[:, None] * table.C_miss
            fl = _fitted_xe(C_lf)
            fr = _fitted_xe(C_rf)
            W_lf = C_lf.sum(axis=1)
            W_rf = C_rf.sum(axis=1)
        else:
            W_lf = W_l + alpha * table.W_miss
            W_rf = W_r + beta * table.W_miss
            fl = _fitted_sse(W_lf, A1_l + alpha * table.A1_miss, A2_l + alpha * table.A2_miss)
            fr = _fitted_sse(W_rf, A1_r + beta * table.A1_miss, A2_r + beta * table.A2_miss)
        loss = fl + fr
        i = _argbest(loss, (W_lf >= mw) & (W_rf >= mw))
        entries[_FC] = None if i is None else _Entry(
            float(loss[i]), i, MissingRoute.FRACTIONAL, frac_left=float(alpha[i]))

    return _FeatureScan(table.partitions, entries)


def _scan_features(ds, rows, features, strategy, kind, cfg, w, node_value) -> dict[int, _FeatureScan]:
    styles = _STYLES[strategy]
    y = ds.response.values[rows]
    scans = {}
    for feature in sorted(features):
        scan = _scan_feature(ds, feature, rows, y, w, kind, cfg, styles, node_value)
        if scan is not None:
            scans[feature] = scan
    return scans


def _best_over(scans: dict[int, _FeatureScan], style: str):
    best = None
    for feature in sorted(scans):
        entry = scans[feature].entries.get(style)
        if entry is None:
            continue
        if best is None or entry.loss < best[2].loss:
            best = (feature, style, entry)
    return best


def _select_best(scans: dict[int, _FeatureScan], strategy: Strategy):
    """Pick the winning (feature, style, entry); ties prefer the lowest
    feature index, then the earliest candidate, and for trinary_mia the
    trinary objective."""
    if strategy is Strategy.TRINARY_MIA:
        best_m = _best_over(scans, _MIA)
        best_t = _best_over(scans, _TRINARY)
        if best_t is None:
            return best_m
        if best_m is None or best_t[2].loss <= best_m[2].loss:
            return best_t
        return best_m
    return _best_over(scans, _STYLES[strategy][0])


def _materialize(ds, rows, scans, choice, kind, cfg, weights, node_value) -> ScoredSplit:
    feature, style, entry = choice
    partition = scans[feature].partitions[entry.cand]
    if style == _TRINARY:
        scored = score_trinary(ds, rows, partition, kind, mother_value=node_value, min_child=cfg.min_child)
    elif style == _FC:
        scored = score_fractional(ds, rows, partition, kind, min_child_weight=cfg.min_child_weight, weights=weights)
    else:
        scored = score_binary(ds, rows, partition, entry.route, kind, min_child=cfg.min_child, weights=weights)
    if scored is None:
        raise AssertionError("scan selected an infeasible split")
    return scored


def best_split(
    ds: Dataset,
    rows: np.ndarray,
    features,
    strategy: Strategy,
    kind: LossKind,
    config: SplitConfig = SplitConfig(),
    weights: np.ndarray | None = None,
    node_value=None,
) -> ScoredSplit | None:
    """The lowest-loss feasible split at a node, or None.

    Scans features in ascending index order and candidates in enumeration
    order; only a strictly lower loss displaces the incumbent, which makes
    tie-breaking deterministic.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cannot split an empty node")
    if weights is not None and strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
        # trinary middle children always carry the full unweighted row set,
        # so weighted trinary scoring has no meaning here
        raise ValueError("trinary strategies do not take row weights")
    w = np.ones(len(rows)) if weights is None else np.asarray(weights, dtype=np.float64)
    if node_value is None:
        node_value = fit_leaf(ds.response.values[rows], kind, w)
    scans = _scan_features(ds, rows, features, strategy, kind, config, w, node_value)
    choice = _select_best(scans, strategy)
    if choice is None:
        return None
    return _materialize(ds, rows, scans, choice, kind, config, w, node_value)
