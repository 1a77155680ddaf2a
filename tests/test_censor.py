import hashlib

import numpy as np
import pytest

from nantree import (
    CensorSpec,
    Dataset,
    FeatureColumn,
    ResponseColumn,
    ValidationError,
    apply_scenario,
    censor_im,
    censor_mcar,
)
from nantree.censor import IM, MCAR, MCAR_TEST, SCENARIOS
from nantree.data import CATEGORICAL, NUMERIC, REAL


def make_ds(n=20, seed=5, with_categorical=True):
    rng = np.random.default_rng(seed)
    cols = [FeatureColumn("x", NUMERIC, rng.normal(size=n))]
    if with_categorical:
        codes = rng.integers(0, 3, size=n).astype(np.int64)
        cols.append(FeatureColumn("c", CATEGORICAL, codes, ("a", "b", "c")))
    return Dataset(tuple(cols), ResponseColumn(REAL, rng.normal(size=n)))


def n_missing(ds):
    return [int((~c.present_mask()).sum()) for c in ds.columns]


def test_spec_validation():
    CensorSpec(MCAR, 0.0)
    CensorSpec(IM, 0.9)
    with pytest.raises(ValidationError):
        CensorSpec("mar", 0.1)
    with pytest.raises(ValidationError):
        CensorSpec(MCAR, 0.95)
    assert SCENARIOS == (MCAR, MCAR_TEST, IM)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.9])
def test_mcar_exact_counts(q):
    ds = make_ds(n=40)
    out = censor_mcar(ds, q, seed=3)
    assert n_missing(out) == [round(q * 40)] * 2
    # responses are never censored
    assert np.array_equal(out.response.values, ds.response.values)


@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.9])
def test_im_exact_counts(q):
    ds = make_ds(n=40)
    out = censor_im(ds, q)
    assert n_missing(out) == [round(q * 40)] * 2


def test_mcar_deterministic_and_seed_sensitive():
    ds = make_ds()
    a = censor_mcar(ds, 0.3, seed=11)
    b = censor_mcar(ds, 0.3, seed=11)
    c = censor_mcar(ds, 0.3, seed=12)
    for ca, cb in zip(a.columns, b.columns):
        assert np.array_equal(ca.values, cb.values, equal_nan=True)
    assert any(
        not np.array_equal(ca.values, cc.values, equal_nan=True)
        for ca, cc in zip(a.columns, c.columns)
    )


def test_mcar_streams_differ_per_column():
    # two identical numeric columns must not lose the same rows
    rng = np.random.default_rng(0)
    v = rng.normal(size=60)
    ds = Dataset(
        (FeatureColumn("x", NUMERIC, v), FeatureColumn("y", NUMERIC, v.copy())),
        ResponseColumn(REAL, rng.normal(size=60)),
    )
    out = censor_mcar(ds, 0.4, seed=1)
    m0 = ~out.columns[0].present_mask()
    m1 = ~out.columns[1].present_mask()
    assert m0.sum() == m1.sum() == 24
    assert not np.array_equal(m0, m1)


def test_q_zero_is_identity_sharing_columns():
    ds = make_ds()
    out = censor_mcar(ds, 0.0, seed=9)
    assert all(oc is c for oc, c in zip(out.columns, ds.columns))
    out_im = censor_im(ds, 0.0)
    assert all(oc is c for oc, c in zip(out_im.columns, ds.columns))


def test_mcar_censors_only_present_cells():
    x = np.array([1.0, np.nan, 3.0, np.nan, 5.0, 6.0])
    ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, np.zeros(6)))
    out = censor_mcar(ds, 0.5, seed=2)
    # round(0.5*6)=3 newly censored on top of the 2 already missing
    assert int((~out.columns[0].present_mask()).sum()) == 5
    # a q high enough to exceed the present count censors all present cells
    out2 = censor_mcar(ds, 0.9, seed=2)
    assert int((~out2.columns[0].present_mask()).sum()) == 6


def test_im_numeric_censors_top_values():
    x = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 0.0])
    ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, np.zeros(6)))
    out = censor_im(ds, 0.5)
    vals = out.columns[0].values
    present = vals[~np.isnan(vals)]
    # the censored cells held {5,4,3}: everything present <= everything gone
    assert sorted(present) == [0.0, 1.0, 2.0]
    assert present.max() <= 3.0


def test_im_numeric_rank_property_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(10, 40))
        x = rng.normal(size=n)
        ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, np.zeros(n)))
        q = float(rng.choice([0.2, 0.5, 0.7]))
        out = censor_im(ds, q)
        mask = np.isnan(out.columns[0].values)
        assert int(mask.sum()) == round(q * n)
        if mask.any() and (~mask).any():
            assert x[~mask].max() <= x[mask].min()


def test_im_numeric_value_ties_break_by_row_index():
    x = np.array([7.0, 7.0, 7.0, 1.0])
    ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, np.zeros(4)))
    out = censor_im(ds, 0.5)
    assert np.isnan(out.columns[0].values).tolist() == [True, True, False, False]


def test_im_categorical_whole_categories_first():
    # a:5 rows, b:3, c:2; q=0.5 of 10 -> exactly the 5 a-rows
    codes = np.array([0, 0, 0, 0, 0, 1, 1, 1, 2, 2])
    ds = Dataset(
        (FeatureColumn("c", CATEGORICAL, codes, ("a", "b", "c")),),
        ResponseColumn(REAL, np.zeros(10)),
    )
    out = censor_im(ds, 0.5)
    vals = out.columns[0].values
    assert (vals[:5] == -1).all()
    assert np.array_equal(vals[5:], codes[5:])
    # q=0.7 -> 7 cells: all of a, then b partially, lowest row indices first
    out2 = censor_im(ds, 0.7)
    vals2 = out2.columns[0].values
    assert (vals2[:7] == -1).all()
    assert np.array_equal(vals2[7:], codes[7:])


def test_im_categorical_frequency_ties_break_by_name():
    # b and a both have 2 rows; "a" is censored first on the name tie
    codes = np.array([1, 1, 0, 0])
    ds = Dataset(
        (FeatureColumn("c", CATEGORICAL, codes, ("a", "b")),),
        ResponseColumn(REAL, np.zeros(4)),
    )
    out = censor_im(ds, 0.5)
    assert out.columns[0].values.tolist() == [1, 1, -1, -1]


def test_apply_scenario_mcar_test_leaves_training_untouched():
    train = make_ds(seed=1)
    test = make_ds(seed=2)
    got_train, got_test = apply_scenario(train, test, CensorSpec(MCAR_TEST, 0.5, seed=4))
    assert got_train is train
    assert n_missing(got_test) == [10, 10]


def test_apply_scenario_mcar_censors_both_sides_independently():
    train = make_ds(seed=1)
    test = make_ds(seed=1)  # identical tables
    got_train, got_test = apply_scenario(train, test, CensorSpec(MCAR, 0.5, seed=4))
    assert n_missing(got_train) == [10, 10]
    assert n_missing(got_test) == [10, 10]
    masks_train = [c.present_mask() for c in got_train.columns]
    masks_test = [c.present_mask() for c in got_test.columns]
    assert any(not np.array_equal(a, b) for a, b in zip(masks_train, masks_test))


def test_apply_scenario_im_is_seed_free():
    train = make_ds(seed=1)
    test = make_ds(seed=2)
    a = apply_scenario(train, test, CensorSpec(IM, 0.4, seed=0))
    b = apply_scenario(train, test, CensorSpec(IM, 0.4, seed=999))
    for da, db in zip(a, b):
        for ca, cb in zip(da.columns, db.columns):
            assert np.array_equal(ca.values, cb.values, equal_nan=True)


def test_censor_rejects_bad_q():
    ds = make_ds()
    with pytest.raises(ValidationError):
        censor_mcar(ds, -0.1, seed=0)
    with pytest.raises(ValidationError):
        censor_im(ds, 1.5)


# ---------------------------------------------------------------------------
# frozen digests of censored tables


PINNED_QS = (0.0, 0.1, 0.37, 0.5, 0.9, 1.0)
PINNED = [
    "18f0a3a452a8552bcba31d4cdee09440",
    "7c855a2bff24fd576835f52d3ad5a7d1",
    "5424b00cfc08a261bd8024dbe9c9082c",
    "0cb75e985ada6375b1529aab1fceafc6",
]


def pinned_table(seed, n=37):
    """A mixed table with numeric value ties, cells missing before
    censoring, and a categorical column whose categories ``b`` and ``c``
    tie on frequency and ``e`` is never used. With 37 rows, q = 0.37
    blanks all 9 ``a`` cells and then 5 of the 8 ``b`` cells."""
    rng = np.random.default_rng(seed)
    ties = rng.integers(0, 4, n).astype(float)
    ties[rng.random(n) < 0.2] = np.nan
    smooth = rng.normal(size=n)
    smooth[rng.random(n) < 0.1] = np.nan
    tied = rng.permutation(np.repeat([0, 1, 2, 3, -1], [9, 8, 8, 7, 5]))
    mixed = rng.integers(-1, 5, n)
    return Dataset((
        FeatureColumn("ties", NUMERIC, ties),
        FeatureColumn("smooth", NUMERIC, smooth),
        FeatureColumn("tied", CATEGORICAL, tied, ("a", "b", "c", "d", "e")),
        FeatureColumn("mixed", CATEGORICAL, mixed, ("p", "q", "r", "s", "t")),
    ), ResponseColumn(REAL, rng.normal(size=n)))


def censored_digest(seed):
    """One hash of censor_mcar and censor_im on ``pinned_table(seed)`` at every q."""
    ds = pinned_table(seed)
    h = hashlib.sha256()
    for q in PINNED_QS:
        for out in (censor_mcar(ds, q, seed=seed + 10), censor_im(ds, q)):
            for col in out.columns:
                h.update(col.values.tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("seed", range(len(PINNED)))
def test_censored_tables_match_pinned_digests(seed):
    assert censored_digest(seed) == PINNED[seed]
