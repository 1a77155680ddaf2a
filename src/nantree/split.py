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

Scoring is exact but vectorized, over one statistics core shared by both
losses. A node's rows get one statistics matrix (:func:`loss.row_stats`:
the weight, then ``w·y`` and ``w·y²`` for SSE or the class weights for
cross-entropy), and every block of rows is priced from the sum ``S`` of
its columns. Per feature, prefix sums of the matrix over the candidate
order give each candidate's left block ``S_l``; :func:`loss.sum_stats`
gives the observed and the missing totals, and the right block ``S_r`` is
the observed total minus ``S_l``. Each strategy is then arithmetic on
blocks:

* the two children cost ``fitted(S_l) + fitted(S_r)``,
* mia and majority merge the missing block into one child,
  ``fitted(S_l + S_miss)``,
* fc adds it to both, scaled by the observed fractions,
  ``fitted(S_l + α·S_miss)``, each child weighing ``block_weight``,
* trinary prices it at the mother value, ``at_value(S_miss, v)``.

Only :mod:`loss` knows what the statistics mean. When a feature has no
missing rows at a node, all strategy objectives coincide and are computed
once, so they are equal bit for bit.

Under cross-entropy, a node without row weights (None) has whole class
counts in every block, unscaled, of at most its row count: sums of ones
and zeros are exact in floats. Its blocks are then priced by
:func:`loss.fitted_counts`, which reads ``x·log x`` from a table instead
of taking logs per candidate and gives :func:`loss.fitted`'s bits. The
choice reads whether the node has weights, not their values or the
strategy: a weighted node, even one whose weights all read 1, and fc's
α-scaled blocks at every node go through ``fitted``.

:func:`scan_features` takes a frontier of nodes: growth passes the fresh
nodes of one depth, a batch of rows at a time. Nodes on the count path
(cross-entropy, no weights) are scanned together, a feature at a time:
one sort of their observed rows by (node, value) and cumulative class
counts across the nodes give every numeric cut, each node's category
counts go through the same categorical cuts as a lone node's, and the
arithmetic and the first-lowest pick run once over the concatenated
tables. Counts are whole numbers, so a sum across nodes less a node's
start is that node's own sum, and every node's entries are bit for bit
those of a frontier of that node alone. Weighted nodes and SSE nodes are
scanned one at a time, each as a table of one node. Every candidate is
still built as a :class:`Partition`.

A scan keeps what outlives a node in a ``memo`` dict: growth passes one
per tree, each public call a fresh one. A multiclass feature's exhaustive
cuts depend only on its observed categories, so they are built the first
time a scan meets the category set; prefix cuts follow the node's
category order and are built at each node. The ``x·log x`` table is built
at the first frontier on the count path, the root in growth, for its
largest row count, which bounds every later node's; a numeric column's
distinct values and each cell's rank among them are built at the first
count-path scan of the column.
"""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureColumn, ValidationError, check_integer, row_index
from .loss import (LossKind, at_value, block_weight, eval_loss, fit_leaf, fitted, fitted_counts, row_stats,
                   row_weights, sum_stats, xlogx_table)

#: Exhaustive category bipartitions are enumerated up to this many observed
#: categories (multiclass only); above it, frequency-ordered prefix cuts.
MAX_EXHAUSTIVE_CATEGORIES = 10


class Strategy(Enum):
    MAJORITY = "majority"
    MIA = "mia"
    FC = "fc"
    TRINARY = "trinary"
    TRINARY_MIA = "trinary_mia"


def check_strategy(strategy) -> None:
    """A ValidationError naming the valid values unless ``strategy`` is a
    :class:`Strategy` member."""
    if not isinstance(strategy, Strategy):
        valid = ", ".join(s.value for s in Strategy)
        raise ValidationError(f"unknown strategy {strategy!r} (valid: {valid})")


class MissingRoute(Enum):
    LEFT = "left"
    RIGHT = "right"
    MIDDLE = "middle"
    FRACTIONAL = "fractional"


def majority_route(n_left, n_right) -> MissingRoute:
    """Where majority sends missing rows: to the child with more observed
    rows, ties right. mia's route ties go there too, which makes the two
    coincide on missing-free training data."""
    return MissingRoute.LEFT if n_left > n_right else MissingRoute.RIGHT


@dataclass(frozen=True, slots=True)
class Partition:
    """One candidate bipartition of a feature's observed values."""

    feature: int
    threshold: float | None = None
    left_categories: frozenset[int] | None = None
    right_categories: frozenset[int] | None = None

    # Hand-written because split search builds one Partition per candidate
    # at each node, about 1.3M per cross-validation sweep (a tree builds a
    # feature's exhaustive categorical cuts once per category set), and the
    # generated frozen __init__ stores each field through
    # object.__setattr__. Storing through the slots' own setters, which skip
    # the frozen __setattr__, cuts a numeric candidate from about 1.2 to
    # 0.7 µs. __post_init__ is called through self, never bound once, so a
    # wrapper set on the class sees every construction: the benchmark's
    # tracer counts candidates that way.
    def __init__(
        self,
        feature: int,
        threshold: float | None = None,
        left_categories: frozenset[int] | None = None,
        right_categories: frozenset[int] | None = None,
    ) -> None:
        _set_feature(self, feature)
        _set_threshold(self, threshold)
        _set_left(self, left_categories)
        _set_right(self, right_categories)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.threshold is not None:
            if self.left_categories is None and self.right_categories is None:
                return
        elif self.left_categories is not None and self.right_categories is not None:
            left = frozenset(map(operator.index, self.left_categories))
            right = frozenset(map(operator.index, self.right_categories))
            if not left or not right or left & right:
                raise ValidationError("category sets must be disjoint and non-empty")
            if min(left) < 0 or min(right) < 0:
                raise ValidationError("category codes must be non-negative")
            _set_left(self, left)
            _set_right(self, right)
            return
        raise ValidationError("partition needs either a threshold or two category sets")

    @property
    def is_numeric(self) -> bool:
        return self.threshold is not None

    def sides(self, v: np.ndarray, route: MissingRoute) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masks ``(left, right, missing)`` of the cells of this feature in
        ``v`` (floats with NaN for missing, or category codes with -1 for
        missing). A cell is missing here when it is NaN, -1, or a category
        in neither set, such as one this node never observed; a LEFT or
        RIGHT ``route`` also sends the missing cells to that side."""
        if self.is_numeric:
            left, missing = v <= self.threshold, np.isnan(v)
            right = ~(left | missing)
        else:
            # codes past the last slot clip onto it and -1 wraps onto it: both read 0
            top = max(self.left_categories | self.right_categories) + 1
            side = np.zeros(top + 1, dtype=np.int8)
            side[list(self.left_categories)] = 1
            side[list(self.right_categories)] = 2
            s = side[np.minimum(v, top)]
            left, right, missing = s == 1, s == 2, s == 0
        if route is MissingRoute.LEFT:
            left |= missing
        elif route is MissingRoute.RIGHT:
            right |= missing
        return left, right, missing

    def side(self, cell, route: MissingRoute) -> MissingRoute:
        """Where :meth:`sides` sends one cell: LEFT or RIGHT, or ``route`` when
        it is missing. A cell that is not a number (numeric partition) or not
        an integer (categorical) raises TypeError or ValueError."""
        if self.is_numeric:
            # math.isnan is far cheaper on a float, but it would accept Fraction and Decimal cells
            if math.isnan(cell) if isinstance(cell, float) else np.isnan(cell):
                return route
            return LEFT if cell <= self.threshold else RIGHT
        code = operator.index(cell)
        if code in self.left_categories:
            return LEFT
        return RIGHT if code in self.right_categories else route


# the setters of the decorated class's slots (see Partition.__init__)
_set_feature = Partition.feature.__set__
_set_threshold = Partition.threshold.__set__
_set_left = Partition.left_categories.__set__
_set_right = Partition.right_categories.__set__
# routes by name for one-row routing: a lookup through the Enum class takes EnumType's slow attribute hook
LEFT, RIGHT, MIDDLE = MissingRoute.LEFT, MissingRoute.RIGHT, MissingRoute.MIDDLE


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
# argument checks of the public entry points; growth's per-node calls skip them

def _checked(ds: Dataset, rows, features, weights) -> tuple[np.ndarray, list, np.ndarray | None]:
    """The arguments of a public entry point checked: ``rows`` as by
    :func:`data.row_index`, ``features`` as column indices of ``ds``,
    ``weights`` as by :func:`_positive_weights`."""
    rows = row_index(rows, ds.n_rows)
    features = list(features)
    for f in features:
        if isinstance(f, bool) or not isinstance(f, (int, np.integer)) or not 0 <= f < ds.n_features:
            raise ValidationError(f"feature {f!r} is not a column index in [0, {ds.n_features})")
    return rows, features, _positive_weights(rows, weights)


def _min_child(min_child) -> int:
    """A scorer's row floor; below 1 it is 1."""
    check_integer(min_child, "min_child")
    return max(min_child, 1)


def _positive_weights(rows: np.ndarray, weights) -> np.ndarray | None:
    """``weights`` as by :func:`loss.row_weights`, each positive and finite, as
    growth's are: a block of no weight has a NaN fit."""
    w = row_weights(rows, weights)
    if w is not None and not ((w > 0) & (w < np.inf)).all():
        raise ValidationError("row weights must be positive and finite")
    return w


# ---------------------------------------------------------------------------
# candidate tables: partitions plus per-candidate left-block statistics

@dataclass
class _Table:
    """A feature's candidates at one or more nodes, node after node.
    Statistics are block sums of :func:`loss.row_stats` columns: ``S_left``
    has one row per candidate; ``n_present``, ``n_missing``, ``S_present``
    and ``S_miss`` have one per node, over its rows observed and missing on
    the feature, or are the one node's count and row. ``starts`` holds each
    node's first candidate."""

    partitions: Sequence[Partition]  # a tuple when shared through ``memo``
    starts: np.ndarray
    n_left: np.ndarray          # observed row counts in the left block
    n_present: np.ndarray | int
    n_missing: np.ndarray | int
    S_left: np.ndarray
    S_present: np.ndarray
    S_miss: np.ndarray


_ONE_NODE = np.zeros(1, dtype=np.intp)  # the starts of a one-node table


def _candidate_table(column: FeatureColumn, feature: int, rows: np.ndarray, S: np.ndarray,
                     kind: LossKind, memo: dict) -> _Table | None:
    """The table of the one node of ``rows``, whose statistics are ``S``."""
    v = column.values[rows]
    present = v >= 0 if column.kind == CATEGORICAL else ~np.isnan(v)
    vp = v[present]
    # compress keeps each statistic's row contiguous, as sum_stats needs
    # (S[:, mask] would not)
    S_p = np.compress(present, S, axis=1)
    if column.kind == CATEGORICAL:
        n = len(column.categories)
        cat = np.stack([np.bincount(vp, weights=stat, minlength=n) for stat in S_p], axis=1)
        built = _categorical_candidates(feature, np.bincount(vp, minlength=n), cat, kind, memo)
    else:
        built = _numeric_candidates(feature, vp, S_p)
    if built is None:
        return None
    partitions, n_left, S_left = built
    S_miss = sum_stats(np.compress(~present, S, axis=1), kind)
    return _Table(partitions, _ONE_NODE, n_left, vp.size, v.size - vp.size, S_left, sum_stats(S_p, kind), S_miss)


def _thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cuts between consecutive distinct values ``lo < hi``: midpoints."""
    with np.errstate(over="ignore"):
        mids = 0.5 * (lo + hi)
    # guard against midpoints that round up to the right value, or overflow to an infinity outside [lo, hi)
    return np.where((lo <= mids) & (mids < hi), mids, lo)


def _numeric_candidates(feature, vp, S_p):
    order = np.argsort(vp, kind="stable")
    vs = vp[order]
    cuts = np.flatnonzero(vs[:-1] < vs[1:])
    if cuts.size == 0:
        return None
    partitions = list(map(Partition, repeat(feature), _thresholds(vs[cuts], vs[cuts + 1]).tolist()))
    return partitions, cuts + 1, np.cumsum(S_p.T[order], axis=0)[cuts]


def _categorical_candidates(feature, counts, cat, kind, memo):
    """The cuts of a node's categories, from its row ``counts`` and its
    statistics ``cat`` (one row per category)."""
    observed = np.flatnonzero(counts > 0)
    if observed.size < 2:
        return None

    # exhaustive cuts are kept in ``memo`` under (feature, observed codes)
    # and shared read-only by every node; prefix cuts are built per node
    multiclass = kind.n_classes > 2
    if multiclass and observed.size <= MAX_EXHAUSTIVE_CATEGORIES:
        key = (feature, observed.tobytes())
        if key not in memo:
            m = observed.size
            n_cand = 2 ** (m - 1) - 1
            b = np.arange(n_cand, dtype=np.uint32)
            bits = ((b[:, None] >> np.arange(m - 1, dtype=np.uint32)) & 1).astype(bool)
            left_mask = np.concatenate([np.ones((n_cand, 1), dtype=bool), bits], axis=1)
            mask, lm = left_mask.astype(np.int64), left_mask.astype(np.float64)
            mask.flags.writeable = lm.flags.writeable = False
            lefts = [frozenset(observed[row].tolist()) for row in left_mask]
            memo[key] = mask, lm, _bipartitions(feature, observed, lefts)
        mask, lm, partitions = memo[key]
        n_left = mask @ counts[observed]
        S_left = lm @ cat[observed]
        # the weights by a matrix-vector product, which BLAS sums in its own
        # order; the fc weight floor reads them
        S_left[:, 0] = lm @ cat[observed, 0]
    else:
        if multiclass:
            # too many categories for exhaustive search: descending frequency
            # prefix cuts, ties by category code
            order = np.lexsort((observed, -counts[observed]))
        else:
            # order categories by weighted mean response (class-1 share for
            # binary classification); prefix cuts of this order contain an
            # optimal bipartition for sse and binary cross-entropy
            metric = cat[observed, 2 if kind.is_classification else 1] / cat[observed, 0]
            order = np.lexsort((observed, metric))
        ordered = observed[order]
        lefts = [frozenset(ordered[:i].tolist()) for i in range(1, ordered.size)]
        partitions = _bipartitions(feature, observed, lefts)
        n_left = np.cumsum(counts[ordered])[:-1]
        S_left = np.cumsum(cat[ordered], axis=0)[:-1]
    return partitions, n_left, S_left


def _count_table(ds: Dataset, feature: int, rows: np.ndarray, node: np.ndarray, y: np.ndarray,
                 totals: np.ndarray, kind: LossKind, memo: dict) -> tuple[_Table, np.ndarray] | None:
    """The table of ``feature`` over several nodes without row weights under
    cross-entropy, and the nodes it covers. ``rows`` holds the nodes' rows
    node after node, ``node`` the node of each row, ``y`` its label, and
    ``totals`` each node's class counts. Every statistic is a whole count,
    so sums across nodes less a node's start are the node's own sums."""
    column = ds.columns[feature]
    K, m = kind.n_classes, len(totals)
    if column.kind == CATEGORICAL:
        v = column.values[rows]
    else:
        uniq, rank = _ranks(column, feature, memo)
        v = rank[rows]
    present = v >= 0
    node_p, v_p, y_p = node[present], v[present], y[present]
    n_present = np.bincount(node_p, minlength=m)
    if column.kind == CATEGORICAL:
        built = _categorical_counts(feature, len(column.categories), v_p * K + y_p, n_present, kind, memo)
    else:
        keys = (node_p * uniq.size + v_p) * K + y_p
        built = _numeric_counts(feature, uniq, keys, np.cumsum(n_present) - n_present, K)
    if built is None:
        return None
    partitions, starts, at, n_left, S_left = built
    n_p, n_m = n_present[at], totals[at].sum(axis=1) - n_present[at]
    c_p = np.bincount(node_p * K + y_p, minlength=m * K).reshape(m, K)[at]
    S_present = np.column_stack([n_p, c_p]).astype(np.float64)
    S_miss = np.column_stack([n_m, totals[at] - c_p]).astype(np.float64)
    return _Table(partitions, starts, n_left, n_p, n_m, S_left, S_present, S_miss), at


def _ranks(column: FeatureColumn, feature: int, memo: dict) -> tuple[np.ndarray, np.ndarray]:
    """A numeric column's distinct observed values, ascending, and each
    cell's place among them (-1 when missing), kept in ``memo``."""
    key = ("ranks", feature)
    if key not in memo:
        present = ~np.isnan(column.values)
        uniq, inverse = np.unique(column.values[present], return_inverse=True)
        rank = np.full(column.values.size, -1, dtype=np.int64)
        rank[present] = inverse
        memo[key] = uniq, rank
    return memo[key]


def _numeric_counts(feature, uniq, keys, first, K):
    """Threshold cuts of several nodes from the ``keys`` (node · R + rank) · K
    + label of their observed rows, R the number of distinct values, and
    each node's ``first`` place among those rows: one sort orders every
    node's rows by value, node after node."""
    place, label = np.divmod(np.sort(keys), K)
    at_node, rank = np.divmod(place, uniq.size)
    # candidate i cuts between sorted positions i and i + 1 of one node
    cuts = np.flatnonzero((place[:-1] < place[1:]) & (at_node[:-1] == at_node[1:]))
    if cuts.size == 0:
        return None
    partitions = list(map(Partition, repeat(feature), _thresholds(uniq[rank[cuts]], uniq[rank[cuts + 1]]).tolist()))
    cut_node = at_node[cuts]
    starts = np.flatnonzero(np.r_[True, cut_node[1:] != cut_node[:-1]])
    # the rows, then each class's rows, before each sorted position: one
    # array per statistic, as 1-d sums are far cheaper than a sum per column
    before = np.empty((K + 1, label.size + 1))
    before[0] = np.arange(label.size + 1)
    before[1:, 0] = 0.0
    for k in range(K):
        np.cumsum(label == k, out=before[k + 1, 1:])
    first = first[cut_node]
    S_left = np.ascontiguousarray((np.take(before, cuts + 1, axis=1) - np.take(before, first, axis=1)).T)
    return partitions, starts, cut_node[starts], cuts + 1 - first, S_left


def _categorical_counts(feature, n_categories, keys, n_present, kind, memo):
    """Category cuts of several nodes from the ``keys`` category · K + label
    of their observed rows, node after node: each node's cuts by
    :func:`_categorical_candidates`."""
    K = kind.n_classes
    partitions, at, n_left, S_left = [], [], [], []
    ends = np.cumsum(n_present)
    for j in np.flatnonzero(n_present > 1).tolist():
        c = np.bincount(keys[ends[j] - n_present[j]:ends[j]], minlength=n_categories * K).reshape(n_categories, K)
        counts = c.sum(axis=1)
        built = _categorical_candidates(feature, counts, np.column_stack([counts, c]).astype(np.float64), kind, memo)
        if built is not None:
            partitions += built[0]
            at.append(j)
            n_left.append(built[1])
            S_left.append(built[2])
    if not at:
        return None
    starts = np.cumsum([0] + [len(n) for n in n_left[:-1]])
    return partitions, starts, np.array(at), np.concatenate(n_left), np.concatenate(S_left)


def _bipartitions(feature, observed, lefts) -> tuple[Partition, ...]:
    """The partitions of the ``observed`` categories with left blocks ``lefts``."""
    all_obs = frozenset(observed.tolist())
    return tuple(Partition(feature, left_categories=left, right_categories=all_obs - left) for left in lefts)


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
    rows = row_index(rows, len(column.values))
    y = np.asarray(y)
    if y.shape != rows.shape:
        raise ValidationError("y must hold one response per row")
    table = _candidate_table(column, feature, rows, row_stats(y, _positive_weights(rows, weights), kind), kind, {})
    return list(table.partitions) if table is not None else []


# ---------------------------------------------------------------------------
# single-partition row routing and scorers

@dataclass(frozen=True)
class ChildRows:
    """The rows a split sends to its children, without their losses.

    ``left_rows``/``right_rows`` are the row index sets the children train
    on, with weights ``left_weights``/``right_weights`` (None when
    unweighted); fractional children also take the missing rows, their
    weights scaled by ``frac_left`` and ``1 - frac_left``. ``middle_rows``
    holds the missing rows of a middle-routed split, else it is empty.
    """

    left_rows: np.ndarray
    right_rows: np.ndarray
    middle_rows: np.ndarray
    left_weights: np.ndarray | None
    right_weights: np.ndarray | None
    frac_left: float | None = None


def split_rows(
    ds: Dataset,
    rows: np.ndarray,
    partition: Partition,
    route: MissingRoute,
    weights: np.ndarray | None = None,
) -> ChildRows | None:
    """Send ``rows`` to the children of ``partition``, missing rows by ``route``.

    This only routes; it checks no child size. Growth and :func:`best_split`
    take a split's feasibility from the scan that chose it, the public
    scorers check their own floors. A fractional split with no observed
    rows on a side has no fractions and is None; the fractions come from
    unweighted observed row counts. Other routes' children take slices of
    ``weights``, or None without; fractional children are always weighted.
    ``rows`` and ``weights`` are taken as checked arrays.
    """
    left, right, missing = partition.sides(ds.columns[partition.feature].values[rows], route)
    if route is MissingRoute.FRACTIONAL:
        n_lo, n_ro = int(left.sum()), int(right.sum())
        if n_lo == 0 or n_ro == 0:
            return None
        frac_left = n_lo / (n_lo + n_ro)
        w = np.ones(len(rows)) if weights is None else weights
        miss_rows, miss_w = rows[missing], w[missing]
        return ChildRows(
            left_rows=np.concatenate([rows[left], miss_rows]),
            right_rows=np.concatenate([rows[right], miss_rows]),
            middle_rows=rows[:0],
            left_weights=np.concatenate([w[left], miss_w * frac_left]),
            right_weights=np.concatenate([w[right], miss_w * (1.0 - frac_left)]),
            frac_left=frac_left,
        )
    return ChildRows(
        left_rows=rows[left],
        right_rows=rows[right],
        middle_rows=rows[missing] if route is MissingRoute.MIDDLE else rows[:0],
        left_weights=None if weights is None else weights[left],
        right_weights=None if weights is None else weights[right],
    )


def _scored(ds: Dataset, partition: Partition, route: MissingRoute, kind: LossKind,
            children: ChildRows, mother_value) -> ScoredSplit:
    """``children`` priced: each child at its own weighted fit, the middle
    rows of a middle-routed split at ``mother_value``."""
    y = ds.response.values
    y_left, y_right = y[children.left_rows], y[children.right_rows]
    w_left, w_right = children.left_weights, children.right_weights
    ll = eval_loss(y_left, fit_leaf(y_left, kind, w_left), kind, w_left)
    lr = eval_loss(y_right, fit_leaf(y_right, kind, w_right), kind, w_right)
    total, lm = ll + lr, 0.0
    if route is MissingRoute.MIDDLE:
        lm = eval_loss(y[children.middle_rows], mother_value, kind)
        total += lm
    fc = route is MissingRoute.FRACTIONAL
    return ScoredSplit(
        partition=partition,
        route=route,
        total_loss=total,
        left_rows=children.left_rows,
        right_rows=children.right_rows,
        middle_rows=children.middle_rows,
        loss_left=ll,
        loss_right=lr,
        loss_middle=lm,
        left_weights=w_left if fc else None,
        right_weights=w_right if fc else None,
        frac_left=children.frac_left,
    )


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
    rows, or none (missing rows count toward the side they are routed to).
    ``weights`` must be positive and finite.
    """
    if route not in (MissingRoute.LEFT, MissingRoute.RIGHT):
        raise ValidationError("score_binary routes missing rows left or right")
    rows, _, weights = _checked(ds, rows, [partition.feature], weights)
    children = split_rows(ds, rows, partition, route, weights)
    if min(children.left_rows.size, children.right_rows.size) < _min_child(min_child):
        return None
    return _scored(ds, partition, route, kind, children, None)


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
    Returns None when the left or the right child holds fewer than
    ``min_child`` observed rows, or none; the middle rows count toward neither.
    """
    rows, _, _ = _checked(ds, rows, [partition.feature], None)
    children = split_rows(ds, rows, partition, MissingRoute.MIDDLE)
    if min(children.left_rows.size, children.right_rows.size) < _min_child(min_child):
        return None
    if mother_value is None:
        mother_value = fit_leaf(ds.response.values[rows], kind)
    return _scored(ds, partition, MissingRoute.MIDDLE, kind, children, mother_value)


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
    when the feature is missing (or one-sided) on all rows. ``weights``
    must be positive and finite.

    The weight floor is checked on direct sums of the child weights, while
    the scan (and so :func:`best_split` and growth) uses cumulative sums.
    At the boundary the two can round apart, so this can reject a split
    the scan accepts (CHANGES.md, the ``FOUND`` entry on the fc
    child-weight floor).
    """
    if not isinstance(min_child_weight, numbers.Real) or math.isnan(min_child_weight):
        raise ValidationError(f"min_child_weight must be a real number, not {min_child_weight!r}")
    rows, _, weights = _checked(ds, rows, [partition.feature], weights)
    children = split_rows(ds, rows, partition, MissingRoute.FRACTIONAL, weights)
    if children is None or min(children.left_weights.sum(), children.right_weights.sum()) < min_child_weight:
        return None
    return _scored(ds, partition, MissingRoute.FRACTIONAL, kind, children, None)


# ---------------------------------------------------------------------------
# vectorized per-feature scan

@dataclass(frozen=True)
class _Entry:
    loss: float
    partition: Partition
    route: MissingRoute


def _picks(losses: np.ndarray, starts: np.ndarray, route, partitions: Sequence[Partition]) -> list[_Entry | None]:
    """Per node of a table, the first lowest of its candidates' ``losses``
    (inf where infeasible) with its partition, or None when none is finite;
    its missing route is ``route``, or ``route(i)`` for candidate ``i`` when
    ``route`` is a function. A one-node table takes np.argmin's rule, which
    puts a NaN first; tables of several nodes are priced from counts, whose
    losses are never NaN."""
    if len(starts) == 1:
        first = [int(np.argmin(losses))]
        lows = [float(losses[first[0]])]
    else:
        low = np.repeat(np.minimum.reduceat(losses, starts), np.diff(starts, append=losses.size))
        first = np.minimum.reduceat(np.where(losses == low, np.arange(losses.size), losses.size), starts)
        first, lows = first.tolist(), losses[first].tolist()
    return [_Entry(loss, partitions[i], route(i) if callable(route) else route) if math.isfinite(loss) else None
            for i, loss in zip(first, lows)]


def _scan_table(table: _Table, values, kind: LossKind, cfg: SplitConfig, styles,
                price) -> list[dict[Strategy, _Entry | None]]:
    """Each node's best feasible entry of ``table`` per objective in
    ``styles``. ``values`` holds the nodes' leaf values, or is the one node's
    value; ``price`` prices blocks at their own fit."""
    mc, mw = cfg.min_child, cfg.min_child_weight
    n_l, S_l, starts = table.n_left, table.S_left, table.starts
    one = len(starts) == 1
    repeats = None if one else np.diff(starts, append=n_l.size)

    def spread(a):  # a node's count or row over its candidates; one node's broadcasts
        return a if one else np.repeat(a, repeats, axis=0)

    n_r = spread(table.n_present) - n_l
    S_r = spread(table.S_present) - S_l
    f_l, f_r = price(S_l), price(S_r)
    count_ok = (n_l >= mc) & (n_r >= mc)
    partitions = table.partitions

    def majority(i):
        return majority_route(n_l[i], n_r[i])

    picks: dict[Strategy, list[_Entry | None]] = {}
    if not (table.n_missing if one else table.n_missing.any()):
        # No missing rows at these nodes: every strategy objective is the
        # same plain two-child loss, computed once so they agree exactly.
        base = f_l + f_r
        # fc's children are the observed blocks, weighed by their summed row weights
        weight_ok = (S_l[:, 0] >= mw) & (S_r[:, 0] >= mw)
        routes = {Strategy.FC: MissingRoute.FRACTIONAL, Strategy.TRINARY: MissingRoute.MIDDLE}
        for style in styles:
            picks[style] = _picks(np.where(weight_ok if style is Strategy.FC else count_ok, base, np.inf), starts,
                                  routes.get(style, majority), partitions)
    else:
        # a node without missing rows prices each strategy's blocks as the
        # branch above does, bit for bit, when its blocks are whole counts
        n_m, S_m = spread(table.n_missing), spread(table.S_miss)
        if Strategy.MAJORITY in styles or Strategy.MIA in styles:
            # mia and majority merge the missing block into one child
            ml = np.where((n_l + n_m >= mc) & (n_r >= mc), price(S_l + S_m) + f_r, np.inf)
            mr = np.where((n_l >= mc) & (n_r + n_m >= mc), f_l + price(S_r + S_m), np.inf)
        if Strategy.MAJORITY in styles:
            picks[Strategy.MAJORITY] = _picks(np.where(n_l > n_r, ml, mr), starts, majority, partitions)
        if Strategy.MIA in styles:
            loss = np.minimum(ml, mr)
            picks[Strategy.MIA] = _picks(np.where(np.isfinite(loss), loss, np.inf), starts, lambda i: (
                MissingRoute.LEFT if ml[i] < mr[i] else MissingRoute.RIGHT if mr[i] < ml[i] else majority(i)),
                partitions)
        if Strategy.TRINARY in styles:
            # trinary prices the missing block at the mother value
            loss = f_l + f_r + spread(at_value(table.S_miss, values, kind))
            picks[Strategy.TRINARY] = _picks(np.where(count_ok, loss, np.inf), starts, MissingRoute.MIDDLE, partitions)
        if Strategy.FC in styles:
            # fc adds the missing block to both children, scaled by the observed
            # fractions: fractional blocks, which only ``fitted`` prices
            alpha = (n_l / spread(table.n_present))[:, None]
            S_lf, S_rf = S_l + alpha * S_m, S_r + (1.0 - alpha) * S_m
            feasible = (block_weight(S_lf, kind) >= mw) & (block_weight(S_rf, kind) >= mw)
            loss = fitted(S_lf, kind) + fitted(S_rf, kind)
            picks[Strategy.FC] = _picks(np.where(feasible, loss, np.inf), starts, MissingRoute.FRACTIONAL, partitions)
    return [{style: entries[j] for style, entries in picks.items()} for j in range(len(starts))]


def scan_features(ds, nodes, strategy, kind, cfg, memo: dict) -> Iterator[dict[int, dict[Strategy, _Entry | None]]]:
    """Scan a frontier of ``nodes``, each ``(rows, features, w, value)``: its
    rows, the features to scan, its row weights or None and its leaf value.
    Yields, node after node, each feature's best feasible entry (loss,
    partition and missing route) per objective of ``strategy``. Each run of
    nodes without weights under cross-entropy is scanned together, a
    feature at a time; every other node alone. Either way a node's entries
    are those of a frontier of that node alone. ``memo`` holds the
    exhaustive categorical cut lists, the ``x·log x`` table and the numeric
    columns' value ranks already built for this loss; growth passes one
    dict per tree, whose first frontier is its root. Growth calls this and
    :func:`select_best`; neither is re-exported from the package."""
    styles = (Strategy.MIA, Strategy.TRINARY) if strategy is Strategy.TRINARY_MIA else (strategy,)
    run: list = []
    for node in nodes:
        rows, features, w, value = node
        if kind.is_classification and w is None:
            run.append(node)
            continue
        if run:
            yield from _scan_counts(ds, run, kind, cfg, styles, memo)
            run = []
        yield _scan_node(ds, rows, features, w, value, kind, cfg, styles, memo)
    if run:
        yield from _scan_counts(ds, run, kind, cfg, styles, memo)


def _scan_node(ds, rows, features, w, value, kind, cfg, styles, memo) -> dict[int, dict[Strategy, _Entry | None]]:
    """One node's scan, its blocks priced by ``fitted``."""
    S = row_stats(ds.response.values[rows], w, kind)
    price = partial(fitted, kind=kind)
    scan = {}
    for feature in sorted(features):
        table = _candidate_table(ds.columns[feature], feature, rows, S, kind, memo)
        if table is not None:
            scan[feature] = _scan_table(table, value, kind, cfg, styles, price)[0]
    return scan


def _scan_counts(ds, group, kind, cfg, styles, memo) -> list[dict[int, dict[Strategy, _Entry | None]]]:
    """The scans of the nodes of ``group``, nodes without weights under
    cross-entropy: whole counts of at most a node's row count, priced by
    ``fitted_counts``."""
    K = kind.n_classes
    sizes = [rows.size for rows, *_ in group]
    table = memo.get("xlogx")
    if table is None:
        # no later node of a tree has more rows than the first frontier's largest
        table = memo["xlogx"] = xlogx_table(max(sizes))
    price = partial(fitted_counts, table=table)
    rows = np.concatenate([rows for rows, *_ in group])
    node = np.repeat(np.arange(len(group)), sizes)
    y = ds.response.values[rows]
    totals = np.bincount(node * K + y, minlength=len(group) * K).reshape(-1, K)
    values = np.array([value for *_, value in group])
    scans: list = [{} for _ in group]
    for feature in sorted(frozenset().union(*(features for _, features, _, _ in group))):
        has = np.array([feature in features for _, features, _, _ in group])
        keep = slice(None) if has.all() else has[node]
        built = _count_table(ds, feature, rows[keep], node[keep], y[keep], totals, kind, memo)
        if built is not None:
            table, at = built
            for j, entries in zip(at.tolist(), _scan_table(table, values[at], kind, cfg, styles, price)):
                scans[j][feature] = entries
    return scans


def _best_over(scans: dict[int, dict[Strategy, _Entry | None]], style: Strategy) -> _Entry | None:
    best = None
    for feature in sorted(scans):
        entry = scans[feature].get(style)
        if entry is not None and (best is None or entry.loss < best.loss):
            best = entry
    return best


def select_best(scans: dict[int, dict[Strategy, _Entry | None]],
                strategy: Strategy) -> tuple[Partition, MissingRoute] | None:
    """Pick the winning partition and its missing route; ties prefer the
    lowest feature index, then the earliest candidate, and for trinary_mia
    the trinary objective."""
    if strategy is Strategy.TRINARY_MIA:
        best = best_m = _best_over(scans, Strategy.MIA)
        best_t = _best_over(scans, Strategy.TRINARY)
        if best_t is not None and (best_m is None or best_t.loss <= best_m.loss):
            best = best_t
    else:
        best = _best_over(scans, strategy)
    return None if best is None else (best.partition, best.route)


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
    rows, features, w = _checked(ds, rows, features, weights)
    if rows.size == 0:
        raise ValidationError("cannot split an empty node")
    if weights is not None and strategy in (Strategy.TRINARY, Strategy.TRINARY_MIA):
        # trinary middle children always carry the full unweighted row set,
        # so weighted trinary scoring has no meaning here
        raise ValidationError("trinary strategies do not take row weights")
    if node_value is None:
        node_value = fit_leaf(ds.response.values[rows], kind, w)
    scans = next(scan_features(ds, [(rows, features, w, node_value)], strategy, kind, config, {}))
    choice = select_best(scans, strategy)
    if choice is None:
        return None
    partition, route = choice
    # the scan decided the winner's feasibility: its rows are only routed
    children = split_rows(ds, rows, partition, route, w)
    return _scored(ds, partition, route, kind, children, node_value)
