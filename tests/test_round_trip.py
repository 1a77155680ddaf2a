"""Round trips through the two stored forms, ``nantree/1`` text and CSV, on
small mixed tables whose category and label names are arbitrary text:
commas, quotes, line ends and non-ASCII included, missing tokens excluded."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nantree import (
    Dataset,
    FeatureColumn,
    ResponseColumn,
    Strategy,
    TrainConfig,
    deserialize,
    load_csv,
    predict,
    save_csv,
    schema_for,
    serialize,
    train,
)
from nantree.data import CATEGORICAL, CLASS, DEFAULT_MISSING_TOKENS, NUMERIC, REAL

NAMES = st.text(
    st.one_of(st.sampled_from(',"\r\n é€'), st.characters(blacklist_categories=("Cs",))), max_size=5,
).filter(lambda name: name not in DEFAULT_MISSING_TOKENS)
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(float("nan")))
RESPONSES = st.floats(-1e6, 1e6)


def _codes(draw, n, names, missing_ok):
    """``n`` codes into sorted ``names`` with every name present, so a CSV
    reload rebuilds the same dictionary."""
    codes = draw(st.lists(st.integers(-1 if missing_ok else 0, len(names) - 1), min_size=n, max_size=n))
    codes[:len(names)] = range(len(names))
    return np.array(codes)


@st.composite
def tables(draw):
    n = draw(st.integers(4, 10))
    columns = []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            columns.append(FeatureColumn(f"x{j}", NUMERIC, np.array(draw(st.lists(CELLS, min_size=n, max_size=n)))))
        else:
            names = tuple(sorted(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))))
            columns.append(FeatureColumn(f"c{j}", CATEGORICAL, _codes(draw, n, names, True), names))
    if draw(st.booleans()):
        labels = tuple(sorted(draw(st.lists(NAMES, min_size=2, max_size=3, unique=True))))
        response = ResponseColumn(CLASS, _codes(draw, n, labels, False), labels)
    else:
        response = ResponseColumn(REAL, np.array(draw(st.lists(RESPONSES, min_size=n, max_size=n))))
    return Dataset(tuple(columns), response)


@given(tables())
@settings(max_examples=40, deadline=None)
def test_tree_text_and_csv_round_trip(tmp_path_factory, ds):
    for strategy in Strategy:
        tree = train(ds, TrainConfig(strategy, max_depth=3, min_samples=1))
        text = serialize(tree)
        back = deserialize(text)
        assert serialize(back) == text
        assert predict(back, ds).tobytes() == predict(tree, ds).tobytes()

    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    save_csv(ds, str(path))
    loaded = load_csv(str(path), schema_for(ds))
    for got, want in zip(loaded.columns, ds.columns, strict=True):
        assert (got.name, got.kind, got.categories) == (want.name, want.kind, want.categories)
        assert got.values.tobytes() == want.values.tobytes()
    assert (loaded.response.kind, loaded.response.labels) == (ds.response.kind, ds.response.labels)
    assert loaded.response.values.tobytes() == ds.response.values.tobytes()
