import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nantree import LossKind, eval_loss, fit_leaf
from nantree.loss import LOG_CLAMP, fitted, fitted_counts, row_stats, xlogx_table

from oracle import fit_value, sse_fit, xe_fit

SSE = LossKind.sse()
XE2 = LossKind.cross_entropy(2)


def test_sse_leaf_is_the_mean():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    assert fit_leaf(y, SSE) == 3.0
    assert eval_loss(y, 3.0, SSE) == 14.0


def test_weighted_sse_frozen():
    y = np.array([0.0, 10.0])
    w = np.array([3.0, 1.0])
    assert fit_leaf(y, SSE, w) == 2.5
    # 3*(2.5)^2 + 1*(7.5)^2
    assert eval_loss(y, 2.5, SSE, w) == 75.0


def test_xe_leaf_is_class_frequency():
    y = np.array([0, 0, 1])
    probs = fit_leaf(y, XE2)
    assert np.allclose(probs, [2 / 3, 1 / 3])
    expected = 2 * math.log(1.5) + math.log(3.0)
    assert eval_loss(y, probs, XE2) == pytest.approx(expected, abs=1e-12)


def test_xe_clamps_zero_probability():
    y = np.array([1])
    loss = eval_loss(y, np.array([1.0, 0.0]), XE2)
    assert loss == pytest.approx(-math.log(LOG_CLAMP))


@pytest.mark.parametrize("n_classes", [0, 2, 3])
def test_no_weights_equal_unit_weights_bit_for_bit(n_classes):
    # sizes on both sides of numpy's pairwise-summation blocks, a pure
    # sample, whose cross-entropy is -0.0 either way, and float32 and
    # integer responses; the split scan's row statistics as well
    rng = np.random.default_rng(n_classes)
    kind = LossKind.cross_entropy(n_classes) if n_classes else SSE
    for n in (1, 2, 7, 8, 9, 130, 1000, 4099):
        y = rng.integers(0, n_classes, n) if n_classes else rng.normal(1e3, 50.0, n)
        samples = [y, np.full(n, y[0])]
        if not n_classes:
            samples += [y.astype(np.float32), np.rint(y).astype(np.int64)]
        for sample in samples:
            ones = np.ones(n)
            assert row_stats(sample, None, kind).tobytes() == row_stats(sample, ones, kind).tobytes()
            value = fit_leaf(sample, kind)
            assert np.asarray(value).tobytes() == np.asarray(fit_leaf(sample, kind, ones)).tobytes()
            other = rng.dirichlet(np.ones(n_classes)) if n_classes else value + 1.5
            for v in (value, other):
                unweighted = np.float64(eval_loss(sample, v, kind)).tobytes()
                assert unweighted == np.float64(eval_loss(sample, v, kind, ones)).tobytes()


def test_empty_sample():
    assert eval_loss(np.array([]), 0.0, SSE) == 0.0
    with pytest.raises(ValueError):
        fit_leaf(np.array([]), SSE)


def test_label_out_of_range_rejected():
    with pytest.raises(ValueError):
        fit_leaf(np.array([0, 2]), XE2)


@pytest.mark.parametrize("bad", [-1, 2, -3, 7, -0.5])
def test_every_label_check_names_the_range(bad):
    # every public path that reads class labels gives the one message
    y = np.array([0, 1, bad, 1])
    w = np.full(4, 0.5)
    half = np.array([0.5, 0.5])
    for call in (lambda: fit_leaf(y, XE2), lambda: fit_leaf(y, XE2, w),
                 lambda: eval_loss(y, half, XE2), lambda: eval_loss(y, half, XE2, w),
                 lambda: row_stats(y, w, XE2)):
        with pytest.raises(ValueError, match=r"^class label outside 0\.\.1$"):
            call()


def test_nonpositive_total_weight_rejected():
    with pytest.raises(ValueError):
        fit_leaf(np.array([1.0, 2.0]), SSE, np.array([0.0, 0.0]))


@given(
    y=st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    deltas=st.lists(st.floats(-5, 5).filter(lambda d: abs(d) > 1e-6), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_sse_mean_minimizes(y, deltas):
    arr = np.asarray(y)
    mean = fit_leaf(arr, SSE)
    base = eval_loss(arr, mean, SSE)
    for d in deltas:
        assert base <= eval_loss(arr, mean + d, SSE) + 1e-9


@given(
    y=st.lists(st.integers(0, 2), min_size=1, max_size=20),
    probs=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_xe_frequency_minimizes(y, probs):
    kind = LossKind.cross_entropy(3)
    arr = np.asarray(y)
    fitted = fit_leaf(arr, kind)
    base = eval_loss(arr, fitted, kind)
    other = np.asarray(probs) / sum(probs)
    assert base <= eval_loss(arr, other, kind) + 1e-9


@given(
    y=st.lists(st.floats(-10, 10), min_size=1, max_size=15),
    w=st.data(),
    c=st.floats(0.1, 10),
)
@settings(max_examples=200, deadline=None)
def test_weight_scaling(y, w, c):
    arr = np.asarray(y)
    ws = np.asarray(w.draw(st.lists(st.floats(0.1, 5), min_size=len(y), max_size=len(y))))
    v = fit_leaf(arr, SSE, ws)
    assert fit_leaf(arr, SSE, c * ws) == pytest.approx(v, rel=1e-12, abs=1e-12)
    assert eval_loss(arr, v, SSE, c * ws) == pytest.approx(c * eval_loss(arr, v, SSE, ws), rel=1e-9, abs=1e-9)


@given(
    y=st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    reps=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_integer_weights_match_repetition(y, reps):
    counts = reps.draw(st.lists(st.integers(1, 4), min_size=len(y), max_size=len(y)))
    arr = np.asarray(y)
    w = np.asarray(counts, dtype=float)
    repeated = np.repeat(arr, counts)
    assert fit_leaf(arr, SSE, w) == pytest.approx(fit_leaf(repeated, SSE), rel=1e-12, abs=1e-12)
    v = fit_leaf(arr, SSE, w)
    assert eval_loss(arr, v, SSE, w) == pytest.approx(eval_loss(repeated, v, SSE), rel=1e-9, abs=1e-9)


@st.composite
def _count_blocks(draw):
    """A node of at most 5000 unit-weight rows and K in {2, 3, 5}
    classes, some possibly empty: its statistics and blocks that
    candidates cut from them, as the scan forms them (left, right, the
    missing block, each observed block merged with it, and an empty one)."""
    k = draw(st.sampled_from([2, 3, 5]))
    totals = draw(st.lists(st.integers(0, 5000 // k), min_size=k, max_size=k))
    miss = [draw(st.integers(0, t)) for t in totals]
    observed = [t - m for t, m in zip(totals, miss)]
    lefts = draw(st.lists(st.tuples(*(st.integers(0, o) for o in observed)), min_size=1, max_size=20))
    C_l = np.array(lefts, dtype=np.int64).reshape(-1, k)
    C_r = np.array(observed) - C_l
    C_m = np.broadcast_to(np.array(miss), C_l.shape)
    C = np.concatenate([C_l, C_r, C_m, C_l + C_m, C_r + C_m, np.zeros((1, k), dtype=np.int64)])
    S = np.concatenate([C.sum(axis=1, keepdims=True), C], axis=1).astype(np.float64)
    return k, sum(totals), S


@given(blocks=_count_blocks())
@settings(max_examples=300, deadline=None)
def test_count_price_matches_fitted_bit_for_bit(blocks):
    k, n, S = blocks
    table = xlogx_table(n)
    kind = LossKind.cross_entropy(k)
    assert fitted_counts(S, table).tobytes() == fitted(S, kind).tobytes()
    assert fitted_counts(S[0], table).tobytes() == fitted(S[0], kind).tobytes()  # one block alone


def test_matches_oracle_forms():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        y = rng.normal(size=n)
        w = rng.uniform(0.2, 3.0, size=n)
        pairs = list(zip(y.tolist(), w.tolist()))
        assert fit_leaf(y, SSE, w) == pytest.approx(fit_value(pairs, 0), rel=1e-12)
        assert eval_loss(y, fit_leaf(y, SSE, w), SSE, w) == pytest.approx(sse_fit(pairs), rel=1e-9, abs=1e-12)
        labels = rng.integers(0, 2, size=n)
        lp = list(zip(labels.tolist(), w.tolist()))
        fitted = fit_leaf(labels, XE2, w)
        assert eval_loss(labels, fitted, XE2, w) == pytest.approx(xe_fit(lp, 2), rel=1e-9, abs=1e-12)
