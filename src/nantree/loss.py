"""Training losses and closed-form leaf values.

Two losses are supported: sum of squared errors for real responses and
cross-entropy (negative log-likelihood) for class responses. Both are
implemented in their weighted form and, without weights, in the plain
form, which unit weights reproduce bit for bit. Leaf values are a float
(weighted mean) for SSE and a probability vector (weighted class
frequencies) for cross-entropy.

The split scan prices blocks of rows from their sufficient statistics:
:func:`row_stats` gives each row a statistics vector, a block's vector is
the sum over its rows (:func:`sum_stats` for a block's direct total), and
:func:`fitted`, :func:`at_value` and :func:`block_weight` read block
vectors. These are the only split-scan code that knows the loss.

Without row weights (None), a cross-entropy block's statistics are whole
counts, its row count and then its class counts, each at most the node's
row count n: float sums of ones and zeros below 2**53 are exact.
:func:`fitted_counts` then reads the ``x·log x`` terms from a table of
0..n (:func:`xlogx_table`) instead of taking two logs per block. Each
entry is what :func:`fitted`'s expression gives for that count, the row
count equals the class sum :func:`fitted` takes, and both add a block's K
class terms in one order along one axis, so the two agree bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CLASS, Dataset, ValidationError

SSE = "sse"
CROSS_ENTROPY = "xe"

#: Probabilities are clamped to this floor before taking logs, so the
#: loss stays finite when a leaf assigns probability zero to a test label.
LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LossKind:
    name: str
    n_classes: int = 0

    def __post_init__(self) -> None:
        if self.name not in (SSE, CROSS_ENTROPY):
            raise ValidationError(f"unknown loss {self.name!r}")
        if self.name == CROSS_ENTROPY and self.n_classes < 2:
            raise ValidationError("cross-entropy needs at least two classes")

    @staticmethod
    def sse() -> "LossKind":
        return LossKind(SSE)

    @staticmethod
    def cross_entropy(n_classes: int) -> "LossKind":
        return LossKind(CROSS_ENTROPY, n_classes)

    @property
    def is_classification(self) -> bool:
        return self.name == CROSS_ENTROPY


def loss_for(ds: Dataset) -> LossKind:
    if ds.response.kind == CLASS:
        return LossKind.cross_entropy(ds.response.n_classes)
    return LossKind.sse()


def row_weights(y: np.ndarray, weights: np.ndarray | None) -> np.ndarray | None:
    """``weights`` checked to hold one weight per sample of ``y``; None,
    unit weights, stays None."""
    if weights is None:
        return None
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != np.shape(y):
        raise ValidationError(f"weights must hold one weight per sample: {w.shape} for {len(y)} samples")
    return w


def _check_labels(y: np.ndarray, kind: LossKind) -> np.ndarray:
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= kind.n_classes):
        raise ValidationError(f"class label outside 0..{kind.n_classes - 1}")
    return y.astype(np.int64, copy=False)


def fit_leaf(y: np.ndarray, kind: LossKind, weights: np.ndarray | None = None):
    """Loss-minimizing constant for a sample: weighted mean, or weighted
    class frequencies for cross-entropy. Errors on an empty sample."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValidationError("cannot fit a leaf on an empty sample")
    w = row_weights(y, weights)
    if w is not None and w.sum() <= 0:
        raise ValidationError("total weight must be positive")
    return leaf_value(_check_labels(y, kind) if kind.is_classification else y, kind, w)


def leaf_value(y: np.ndarray, kind: LossKind, w: np.ndarray | None = None):
    """:func:`fit_leaf` without its checks, for a non-empty sample whose
    labels lie in 0..K-1 and whose weights are positive, as growth's are."""
    if w is None:
        # the float64 sums the weighted form takes, for any sample dtype
        if kind.is_classification:
            return np.bincount(y, minlength=kind.n_classes) / y.size
        return float(np.asarray(y, dtype=np.float64).sum() / y.size)
    total = w.sum()
    if kind.is_classification:
        return np.bincount(y, weights=w, minlength=kind.n_classes) / total
    return float((w * y).sum() / total)


def eval_loss(y: np.ndarray, value, kind: LossKind, weights: np.ndarray | None = None) -> float:
    """Weighted loss of a sample under a fixed leaf value; 0 when empty."""
    y = np.asarray(y)
    if y.size == 0:
        return 0.0
    w = row_weights(y, weights)
    if kind.is_classification:
        y = _check_labels(y, kind)
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (kind.n_classes,):
            raise ValidationError(f"leaf value must have {kind.n_classes} probabilities")
    return leaf_loss(y, value, kind, w)


def leaf_loss(y: np.ndarray, value, kind: LossKind, w: np.ndarray | None = None) -> float:
    """:func:`eval_loss` without its checks, for a non-empty sample as
    :func:`leaf_value` takes and a value it fitted."""
    if kind.is_classification:
        log_p = np.log(np.maximum(value[y], LOG_CLAMP))
        return float(-(log_p if w is None else w * log_p).sum())
    resid = y - float(value)
    return float((np.square(resid, dtype=np.float64) if w is None else w * resid * resid).sum())


def row_stats(y: np.ndarray, w: np.ndarray | None, kind: LossKind) -> np.ndarray:
    """Sufficient statistics of each row, one column per row: the weight
    ``w`` (1 when None), then ``w·y`` and ``w·y²`` for SSE, or ``w`` in the
    row of the row's class and zero in the other K - 1 class rows for
    cross-entropy. A block of rows is priced from the sum of its columns."""
    S = np.zeros((1 + (kind.n_classes if kind.is_classification else 2), len(y)))
    S[0] = 1.0 if w is None else w
    if kind.is_classification:
        S[1 + _check_labels(y, kind), np.arange(len(y))] = S[0]
    else:
        np.multiply(S[0], y, out=S[1])
        np.multiply(S[1], y, out=S[2])
    return S


def sum_stats(S: np.ndarray, kind: LossKind) -> np.ndarray:
    """Statistics of the block whose rows are the columns of ``S`` (each
    statistic's row contiguous): the weight and the SSE moments summed
    pairwise, class weights row by row, as :func:`fit_leaf` counts them.
    Candidate ties and the fc weight floor hang on these last bits, so the
    orders are part of the scan's contract."""
    out = S.sum(axis=1)
    if kind.is_classification:
        out[1:] = np.ascontiguousarray(S[1:].T).sum(axis=0)
    return out


def block_weight(S: np.ndarray, kind: LossKind) -> np.ndarray:
    """Weight of each block, statistics along the last axis, as
    :func:`fitted` normalises it: the weight statistic for SSE, the sum of
    the class weights for cross-entropy."""
    return S[..., 1:].sum(axis=-1) if kind.is_classification else S[..., 0]


def _xlogx(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a * np.log(np.where(a > 0, a, 1.0))


def xlogx_table(n: int) -> np.ndarray:
    """``x·log x`` at x = 0, 1, ..., n, as :func:`fitted` computes it."""
    return _xlogx(np.arange(n + 1))


def fitted_counts(S: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`fitted` under cross-entropy, bit for bit, for blocks of
    unit-weight rows, statistics along the last axis: the weight is the
    block's row count and each class weight its class's count, whole
    numbers of at most ``len(table) - 1``, where ``table`` is
    :func:`xlogx_table`."""
    t = table[S.astype(np.intp)]
    return np.maximum(t[..., 0] - t[..., 1:].sum(axis=-1), 0.0)


def fitted(S: np.ndarray, kind: LossKind) -> np.ndarray:
    """Loss of each block at its own fitted leaf value, statistics along
    the last axis; clamped at zero against rounding. An empty block costs
    0 under cross-entropy and NaN under SSE."""
    W = block_weight(S, kind)
    if kind.is_classification:
        return np.maximum(_xlogx(W) - _xlogx(S[..., 1:]).sum(axis=-1), 0.0)
    A1, A2 = S[..., 1], S[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = A2 - (A1 * A1) / W
    return np.maximum(out, 0.0)


def at_value(S: np.ndarray, value, kind: LossKind) -> np.ndarray:
    """Loss of one block, statistics ``S``, or of each row's block of a
    2-d ``S``, under the fixed leaf ``value`` (one per block, or one for all)."""
    if kind.is_classification:
        return (S[..., 1:] * -np.log(np.maximum(value, LOG_CLAMP))).sum(axis=-1)
    W, A1, A2 = S.T
    return np.maximum(A2 - 2.0 * value * A1 + value * value * W, 0.0)
