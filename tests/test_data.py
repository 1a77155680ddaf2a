import re

import numpy as np
import pytest

from nantree import (
    BiasScenario,
    CensorSpec,
    Dataset,
    ExperimentConfig,
    FeatureColumn,
    ParseError,
    ResponseColumn,
    Schema,
    SchemaError,
    ValidationError,
    apply_scenario,
    censor_mcar,
    load_csv,
    save_csv,
    schema_for,
    step_data,
    stratified_kfold,
    tree_structured_data,
)
from nantree.data import CATEGORICAL, CLASS, NUMERIC, REAL, read_schema_file


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_mixed_csv(tmp_path):
    path = write(tmp_path, "x,color,y\n1.5,red,10\n,blue,20\n2.5,,30\n0.25,red,40\n")
    ds = load_csv(path, Schema(target="y", kinds={"color": "categorical"}))
    assert ds.n_rows == 4 and ds.n_features == 2
    x = ds.columns[0]
    assert x.kind == NUMERIC
    assert np.isnan(x.values[1]) and x.values[3] == 0.25
    color = ds.columns[1]
    assert color.kind == CATEGORICAL
    assert color.categories == ("blue", "red")  # sorted names
    assert list(color.values) == [1, 0, -1, 1]
    assert ds.response.kind == REAL
    assert list(ds.response.values) == [10.0, 20.0, 30.0, 40.0]


def test_missing_tokens(tmp_path):
    path = write(tmp_path, "x,y\nNA,1\nnan,2\n3,4\n")
    ds = load_csv(path, Schema(target="y"))
    assert np.isnan(ds.columns[0].values[0])
    assert np.isnan(ds.columns[0].values[1])


def test_classification_labels_sorted(tmp_path):
    path = write(tmp_path, "x,y\n1,dog\n2,ant\n3,dog\n")
    ds = load_csv(path, Schema(target="y", task="classification"))
    assert ds.response.kind == CLASS
    assert ds.response.labels == ("ant", "dog")
    assert list(ds.response.values) == [1, 0, 1]


def test_parse_error_reports_location(tmp_path):
    path = write(tmp_path, "x,y\nok,1\n")
    with pytest.raises(ParseError, match="row 2.*'x'"):
        load_csv(path, Schema(target="y"))


def test_non_finite_rejected(tmp_path):
    path = write(tmp_path, "x,y\ninf,1\n")
    with pytest.raises(ParseError):
        load_csv(path, Schema(target="y"))


def test_missing_response_rejected(tmp_path):
    path = write(tmp_path, "x,y\n1,\n")
    with pytest.raises(ValidationError):
        load_csv(path, Schema(target="y"))


def test_unknown_target_rejected(tmp_path):
    path = write(tmp_path, "x,y\n1,2\n")
    with pytest.raises(SchemaError):
        load_csv(path, Schema(target="z"))


def test_duplicate_column_rejected(tmp_path):
    path = write(tmp_path, "x,x,y\n1,2,3\n")
    with pytest.raises(SchemaError):
        load_csv(path, Schema(target="y"))


def test_schema_unknown_kind():
    with pytest.raises(SchemaError):
        Schema(target="y", kinds={"x": "weird"})


def test_schema_file_roundtrip(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text('{"target": "y", "task": "classification", "columns": {"c": "categorical"}}')
    schema = read_schema_file(str(p))
    assert schema.target == "y" and schema.task == "classification"
    assert schema.kinds == {"c": "categorical"}


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=20)
    x[3] = np.nan
    codes = rng.integers(-1, 3, size=20).astype(np.int64)
    ds = Dataset(
        (
            FeatureColumn("x", NUMERIC, x),
            FeatureColumn("c", CATEGORICAL, codes, ("a", "b", "z")),
        ),
        ResponseColumn(REAL, rng.normal(size=20)),
    )
    path = str(tmp_path / "round.csv")
    save_csv(ds, path)
    back = load_csv(path, schema_for(ds))
    assert np.array_equal(back.columns[0].values, ds.columns[0].values, equal_nan=True)
    assert np.array_equal(back.response.values, ds.response.values)
    # category codes survive via names even if the dictionary shrinks
    orig_names = [None if c < 0 else ds.columns[1].categories[c] for c in ds.columns[1].values]
    back_names = [None if c < 0 else back.columns[1].categories[c] for c in back.columns[1].values]
    assert orig_names == back_names


def test_feature_column_validations():
    with pytest.raises(ValidationError):
        FeatureColumn("x", NUMERIC, np.array([1.0, np.inf]))
    with pytest.raises(ValidationError):
        FeatureColumn("c", CATEGORICAL, np.array([0, 3]), ("a", "b"))
    col = FeatureColumn("x", NUMERIC, np.array([1.0, np.nan]))
    assert list(col.present_mask()) == [True, False]
    with pytest.raises(ValueError):
        col.values[0] = 5.0  # arrays are read-only


def test_response_validations():
    with pytest.raises(ValidationError):
        ResponseColumn(REAL, np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        ResponseColumn(CLASS, np.array([0, 1]), ("only",))
    with pytest.raises(ValidationError):
        ResponseColumn(CLASS, np.array([0, 2]), ("a", "b"))


def test_dataset_validations():
    y = ResponseColumn(REAL, np.array([1.0, 2.0]))
    short = FeatureColumn("x", NUMERIC, np.array([1.0]))
    with pytest.raises(ValidationError):
        Dataset((short,), y)
    dup = FeatureColumn("x", NUMERIC, np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        Dataset((dup, dup), y)


def test_subset_preserves_dictionaries():
    ds = Dataset(
        (FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2]), ("a", "b", "z")),),
        ResponseColumn(REAL, np.array([1.0, 2.0, 3.0])),
    )
    sub = ds.subset(np.array([0]))
    assert sub.columns[0].categories == ("a", "b", "z")


def test_kfold_partitions_regression():
    ds = Dataset(
        (FeatureColumn("x", NUMERIC, np.arange(23, dtype=float)),),
        ResponseColumn(REAL, np.arange(23, dtype=float)),
    )
    folds = stratified_kfold(ds, 5, seed=3)
    sizes = [len(folds.test_rows(f)) for f in range(5)]
    assert sum(sizes) == 23
    assert max(sizes) - min(sizes) <= 1
    for f in range(5):
        train, test = folds.train_rows(f), folds.test_rows(f)
        assert len(np.intersect1d(train, test)) == 0
        assert len(train) + len(test) == 23
    # deterministic in the seed
    again = stratified_kfold(ds, 5, seed=3)
    assert np.array_equal(folds.fold_of_row, again.fold_of_row)
    assert not np.array_equal(folds.fold_of_row, stratified_kfold(ds, 5, seed=4).fold_of_row)


def test_kfold_stratifies_classes():
    y = np.array([0] * 12 + [1] * 6)
    ds = Dataset(
        (FeatureColumn("x", NUMERIC, np.arange(18, dtype=float)),),
        ResponseColumn(CLASS, y, ("n", "p")),
    )
    folds = stratified_kfold(ds, 3, seed=0)
    for f in range(3):
        test = folds.test_rows(f)
        assert (y[test] == 0).sum() == 4
        assert (y[test] == 1).sum() == 2


def test_kfold_small_class_never_empties_fold():
    # class counts below k still must leave every fold populated
    y = np.array([0] * 7 + [1])
    ds = Dataset(
        (FeatureColumn("x", NUMERIC, np.arange(8, dtype=float)),),
        ResponseColumn(CLASS, y, ("n", "p")),
    )
    for seed in range(10):
        folds = stratified_kfold(ds, 4, seed=seed)
        assert all(len(folds.test_rows(f)) > 0 for f in range(4))


@pytest.mark.parametrize("call", [
    lambda: ExperimentConfig(datasets=(("step", step_data()),), seed=-1),
    lambda: BiasScenario(seed=-1),
    lambda: apply_scenario(step_data(), step_data(), CensorSpec("mcar", 0.3, seed=-1)),
    lambda: censor_mcar(step_data(), 0.3, seed=-1),
    lambda: stratified_kfold(step_data(), 3, seed=-1),
    lambda: tree_structured_data(50, seed=-1),
    lambda: step_data(seed=-1),
], ids=["ExperimentConfig", "BiasScenario", "CensorSpec", "censor_mcar", "stratified_kfold",
        "tree_structured_data", "step_data"])
def test_negative_seed_is_a_validation_error(call):
    with pytest.raises(ValidationError, match=r"^seed must be a nonnegative integer, not -1$"):
        call()


def test_repeated_category_or_label_names_are_rejected():
    # a tree trained on such a column would write a document deserialize rejects
    with pytest.raises(ValidationError, match="column 'c' repeats category 'a'"):
        FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2, 0]), ("a", "a", "b"))
    with pytest.raises(ValidationError, match="response repeats label 'no'"):
        ResponseColumn(CLASS, np.array([0, 1, 2]), ("no", "yes", "no"))
    FeatureColumn("c", NUMERIC, np.array([1.0]))  # numeric columns have no names to repeat


@pytest.mark.parametrize("token", ["", "NA", "nan"])
@pytest.mark.parametrize("where", ["category", "label"])
def test_save_csv_rejects_names_that_read_back_as_missing(tmp_path, token, where):
    names = tuple(sorted(("b", token)))
    codes = np.array([0, 1, 0, 1])
    if where == "category":
        ds = Dataset((FeatureColumn("c", CATEGORICAL, codes, names),), ResponseColumn(REAL, np.zeros(4)))
        column = "c"
    else:
        ds = Dataset((FeatureColumn("x", NUMERIC, np.arange(4.0)),), ResponseColumn(CLASS, codes, names))
        column = "y"
    path = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match=f"column {column!r}: cannot write the name {token!r}"):
        save_csv(ds, str(path))
    assert not path.exists()


@pytest.mark.parametrize("codes, bad", [([0.0, 1.5, 1.9], "1.5"), ([0.0, np.nan], "nan"),
                                        ([0.0, np.inf], "inf"), ([0.0, 1e20], "1e+20")])
def test_float_codes_must_be_integers(codes, bad):
    with pytest.raises(ValidationError, match=re.escape(f"column 'g': code {bad} is not an int64 integer")):
        FeatureColumn("g", CATEGORICAL, np.array(codes), ("a", "b"))
    with pytest.raises(ValidationError, match=re.escape(f"response: code {bad} is not an int64 integer")):
        ResponseColumn(CLASS, np.array(codes), ("a", "b"))


def test_integral_float_codes_are_accepted():
    col = FeatureColumn("g", CATEGORICAL, np.array([0.0, 1.0, -1.0]), ("a", "b"))
    assert col.values.dtype == np.int64 and col.values.tolist() == [0, 1, -1]
    response = ResponseColumn(CLASS, np.array([1.0, 0.0]), ("a", "b"))
    assert response.values.dtype == np.int64 and response.values.tolist() == [1, 0]
