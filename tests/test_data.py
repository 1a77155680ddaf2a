import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# each rejection of a column constructor, with its message; a tree trained
# on repeated or non-str names would write a document that deserialize
# rejects, and save_csv and render could not write it
_BAD_COLUMNS = {
    "non-finite feature": (lambda: FeatureColumn("x", NUMERIC, np.array([1.0, np.inf])),
                           "column 'x' contains non-finite values"),
    "code outside the categories": (lambda: FeatureColumn("c", CATEGORICAL, np.array([0, 3]), ("a", "b")),
                                    "column 'c' has codes outside the category list"),
    "repeated category": (lambda: FeatureColumn("c", CATEGORICAL, np.array([0, 1, 2, 0]), ("a", "a", "b")),
                          "column 'c' repeats category 'a'"),
    "int category": (lambda: FeatureColumn("c", CATEGORICAL, np.array([0, 1]), (1, 2)),
                     "column 'c': category 1 is not a str"),
    "bytes category": (lambda: FeatureColumn("c", CATEGORICAL, np.array([0, 1]), ("a", b"b")),
                       "column 'c': category b'b' is not a str"),
    "unhashable category": (lambda: FeatureColumn("c", CATEGORICAL, np.array([0, 1]), ("a", ["b"])),
                            "column 'c': category ['b'] is not a str"),
    "non-finite response": (lambda: ResponseColumn(REAL, np.array([1.0, np.nan])),
                            "response contains non-finite values"),
    "one label": (lambda: ResponseColumn(CLASS, np.array([0, 1]), ("only",)),
                  "classification needs at least two labels"),
    "label outside the labels": (lambda: ResponseColumn(CLASS, np.array([0, 2]), ("a", "b")),
                                 "response has labels outside the label list"),
    "repeated label": (lambda: ResponseColumn(CLASS, np.array([0, 1, 2]), ("no", "yes", "no")),
                       "response repeats label 'no'"),
    "int label": (lambda: ResponseColumn(CLASS, np.array([0, 1]), (0, 1)),
                  "response: label 0 is not a str"),
    "None label": (lambda: ResponseColumn(CLASS, np.array([0, 1]), ("a", None)),
                   "response: label None is not a str"),
}


@pytest.mark.parametrize("make, message", _BAD_COLUMNS.values(), ids=_BAD_COLUMNS.keys())
def test_column_constructors_reject_bad_input(make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()


def test_feature_column_validations():
    col = FeatureColumn("x", NUMERIC, np.array([1.0, np.nan]))
    assert list(col.present_mask()) == [True, False]
    with pytest.raises(ValueError):
        col.values[0] = 5.0  # arrays are read-only
    FeatureColumn("c", NUMERIC, np.array([1.0]))  # numeric columns have no names to check
    # numpy's strings are str
    names = tuple(np.array(["b", "a"]))
    assert FeatureColumn("c", CATEGORICAL, np.array([0, 1]), names).categories == ("b", "a")
    assert ResponseColumn(CLASS, np.array([0, 1]), names).labels == ("b", "a")


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


_NAMES = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), unique=True, max_size=5)


@given(_NAMES, _NAMES, st.data())
@settings(max_examples=200, deadline=None)
def test_recoded_looks_each_cell_up_by_name(own, categories, data):
    # lists in any order, empty ones, names the other list lacks, and missing cells
    codes = data.draw(st.lists(st.integers(-1, len(own) - 1), max_size=8))
    col = FeatureColumn("c", CATEGORICAL, np.array(codes, dtype=np.int64), own)
    got = col.recoded(categories)
    names = [own[code] if code >= 0 else None for code in codes]
    assert got.name == "c" and got.kind == CATEGORICAL and got.categories == tuple(categories)
    assert got.values.tolist() == [categories.index(n) if n in categories else -1 for n in names]


def test_recoded_returns_a_column_already_under_the_list():
    col = FeatureColumn("c", CATEGORICAL, np.array([1, -1, 0]), ("b", "a"))
    assert col.recoded(["b", "a"]) is col
    x = FeatureColumn("x", NUMERIC, np.array([1.0, np.nan]))
    assert x.recoded(()) is x and x.recoded(("a",)) is x


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
