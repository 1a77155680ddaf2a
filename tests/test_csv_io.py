"""CSV reading and writing: pinned output bytes, and the two readers
(``load_csv`` for training tables, ``load_features`` for prediction input)
agreeing cell for cell."""
import contextlib
import csv
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nantree import censor, datasets
from nantree.cli import main
from nantree.data import (
    CATEGORICAL,
    CLASS,
    NUMERIC,
    REAL,
    Dataset,
    FeatureColumn,
    ParseError,
    ResponseColumn,
    Schema,
    SchemaError,
    ValidationError,
    _read_table,
    load_csv,
    load_features,
    save_csv,
)

# ---------------------------------------------------------------------------
# pinned bytes: the writers' output, byte for byte

REG_TABLE = Dataset(
    (FeatureColumn("x", NUMERIC, np.array([0.1, np.nan, -2.5, 1e-300, 123456789.125, 3.0])),
     FeatureColumn("c", CATEGORICAL, np.array([0, 1, -1, 2, 1, 0]), ("a,b", "plain", 'q"uote'))),
    ResponseColumn(REAL, np.array([1.0, 0.1 + 0.2, -0.0, 2.5e20, 7.0, 1 / 3])),
)
REG_TABLE_BYTES = (
    b'x,c,y\r\n0.1,"a,b",1.0\r\n,plain,0.30000000000000004\r\n-2.5,,-0.0\r\n'
    b'1e-300,"q""uote",2.5e+20\r\n123456789.125,plain,7.0\r\n3.0,"a,b",0.3333333333333333\r\n'
)
CLASS_TABLE = Dataset(
    (FeatureColumn("x", NUMERIC, np.array([0.5, np.nan, 2.0, -1.0])),),
    ResponseColumn(CLASS, np.array([0, 1, 1, 0]), ("no", 'say "hi"')),
)
CLASS_TABLE_BYTES = b'x,y\r\n0.5,no\r\n,"say ""hi"""\r\n2.0,"say ""hi"""\r\n-1.0,no\r\n'


def _tree_doc(loss, labels, leaves):
    return {
        "format": "nantree/1", "strategy": "fc", "loss": loss,
        "features": [{"name": "x", "kind": "numeric"},
                     {"name": "c", "kind": "categorical", "categories": ["a,b", "plain"]}],
        "response": {"kind": "class" if labels is not None else "real", "labels": labels or []},
        "root": {"kind": "binary", "feature": "x", "threshold": 0.5, "missing": "fractional",
                 "w_left": 0.3, "w_right": 0.7,
                 "left": {"kind": "leaf", "value": leaves[0]},
                 "right": {"kind": "binary", "feature": "c", "left_categories": ["a,b"],
                           "right_categories": ["plain"], "missing": "fractional",
                           "w_left": 0.25, "w_right": 0.75,
                           "left": {"kind": "leaf", "value": leaves[1]},
                           "right": {"kind": "leaf", "value": leaves[2]}}},
    }


REG_TREE = _tree_doc({"kind": "sse", "n_classes": 0}, None, [1.1, 2.2, -3.3])
CLASS_LEAVES = [[0.1, 0.2, 0.7], [0.5, 0.25, 0.25], [0.6, 0.3, 0.1]]
CLASS_TREE = _tree_doc({"kind": "xe", "n_classes": 3}, ["no", 'say "hi"', "z"], CLASS_LEAVES)
UNLABELLED_TREE = _tree_doc({"kind": "xe", "n_classes": 3}, [], CLASS_LEAVES)

# columns out of order, an extra column, a quoted comma, missing tokens,
# an unseen category
PREDICT_INPUT = 'c,x,extra\n"a,b",0.1,zz\nplain,0.9,\n,NA,1\nunseen,0.7,2\n"a,b",,3\nplain,nan,4\n'
REG_PREDICTIONS = (
    b'prediction\r\n1.1\r\n-3.3\r\n-1.0174999999999996\r\n-1.9249999999999996\r\n1.87\r\n'
    b'-1.9799999999999995\r\n'
)
CLASS_PREDICTIONS = (
    b'prediction,p_no,"p_say ""hi""",p_z\r\nz,0.1,0.2,0.7\r\nno,0.6,0.3,0.1\r\n'
    b'no,0.4325,0.26125,0.30625\r\nno,0.575,0.2875,0.1375\r\nz,0.38,0.235,0.385\r\n'
    b'no,0.44999999999999996,0.27,0.27999999999999997\r\n'
)
# a document without labels: class indices stand in for them
UNLABELLED_PREDICTIONS = (
    b'prediction,p_0,p_1,p_2\r\n2,0.1,0.2,0.7\r\n0,0.6,0.3,0.1\r\n'
    b'0,0.4325,0.26125,0.30625\r\n0,0.575,0.2875,0.1375\r\n2,0.38,0.235,0.385\r\n'
    b'0,0.44999999999999996,0.27,0.27999999999999997\r\n'
)
# no quotes, so read without the csv module; "plain" stands in for "a,b"
UNQUOTED_INPUT = 'c,x,extra\nplain,0.1,zz\nplain,0.9,\n,NA,1\nunseen,0.7,2\nplain,,3\nplain,nan,4\n'
UNQUOTED_REG_PREDICTIONS = (
    b'prediction\r\n1.1\r\n-3.3\r\n-1.0174999999999996\r\n-1.9249999999999996\r\n'
    b'-1.9799999999999995\r\n-1.9799999999999995\r\n'
)
# labels that csv.writer quotes, in the header and in the prediction column
QUOTED_LABELS_TREE = _tree_doc({"kind": "xe", "n_classes": 3}, ["a,b", 'say "hi"', "z"],
                               [[0.1, 0.2, 0.7], [0.25, 0.5, 0.25], [0.6, 0.3, 0.1]])
QUOTED_LABELS_PREDICTIONS = (
    b'prediction,"p_a,b","p_say ""hi""",p_z\r\nz,0.1,0.2,0.7\r\n"a,b",0.6,0.3,0.1\r\n'
    b'"a,b",0.38875,0.305,0.3062500000000001\r\n"a,b",0.5125,0.35,0.1375\r\n'
    b'"say ""hi""",0.205,0.41,0.385\r\n"a,b",0.44999999999999996,0.27,0.27999999999999997\r\n'
)


@pytest.mark.parametrize("ds, expected", [(REG_TABLE, REG_TABLE_BYTES), (CLASS_TABLE, CLASS_TABLE_BYTES)],
                         ids=["regression", "classification"])
def test_save_csv_bytes(tmp_path, ds, expected):
    path = tmp_path / "t.csv"
    save_csv(ds, str(path))
    assert path.read_bytes() == expected


def test_save_csv_bytes_of_a_censored_table(tmp_path):
    ds = censor.censor_mcar(datasets.tree_structured_data(300, seed=1), 0.3, 2)
    path = tmp_path / "t.csv"
    save_csv(ds, str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "53e8524153592372b8c1728451fc7a8670c7e51442f5b42321ef24d5ddf0d446"


@pytest.mark.parametrize("doc, text, expected", [
    (REG_TREE, PREDICT_INPUT, REG_PREDICTIONS),
    (CLASS_TREE, PREDICT_INPUT, CLASS_PREDICTIONS),
    (UNLABELLED_TREE, PREDICT_INPUT, UNLABELLED_PREDICTIONS),
    (REG_TREE, PREDICT_INPUT.replace("\n", "\r\n"), REG_PREDICTIONS),
    (REG_TREE, UNQUOTED_INPUT, UNQUOTED_REG_PREDICTIONS),
    (REG_TREE, UNQUOTED_INPUT.replace("\n", "\r\n"), UNQUOTED_REG_PREDICTIONS),
    (QUOTED_LABELS_TREE, PREDICT_INPUT, QUOTED_LABELS_PREDICTIONS),
], ids=["regression", "classification", "unlabelled", "regression-crlf", "unquoted", "unquoted-crlf",
        "quoted-labels"])
def test_predict_output_bytes(tmp_path, capsys, doc, text, expected):
    tree_path, data, out = tmp_path / "tree.json", tmp_path / "in.csv", tmp_path / "out.csv"
    tree_path.write_text(json.dumps(doc))
    data.write_bytes(text.encode())
    assert main(["predict", "--tree", str(tree_path), "--data", str(data), "--out", str(out)]) == 0
    assert "wrote 6 predictions" in capsys.readouterr().out
    assert out.read_bytes() == expected


# ---------------------------------------------------------------------------
# the two readers agree

SCHEMA = Schema(target="y", kinds={"c": CATEGORICAL})


def write(tmp_path, text, newline="\n"):
    path = tmp_path / "data.csv"
    path.write_bytes(text.replace("\n", newline).encode())
    return str(path)


def both(path, categories=None):
    """load_csv's Dataset, and load_features' reading of its feature columns."""
    ds = load_csv(path, SCHEMA)
    names = tuple(c.name for c in ds.columns)
    kinds = tuple(c.kind for c in ds.columns)
    cats = {j: c.categories for j, c in enumerate(ds.columns) if c.kind == CATEGORICAL}
    return ds, load_features(path, names, kinds, cats if categories is None else categories)


def cell_values(ds):
    """Per column: floats with None for missing, or category names with None."""
    out = []
    for col in ds.columns:
        if col.kind == NUMERIC:
            out.append([None if np.isnan(v) else float(v) for v in col.values])
        else:
            out.append([None if v < 0 else col.categories[v] for v in col.values])
    return out


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_readers_agree_on_quotes_newlines_and_missing_tokens(tmp_path, newline):
    text = 'x,c,y\n1.5,"two\nlines",1\nNA,"a,b",2\nnan,,3\n,NA,4\n-0.25,nan,5\n'
    ds, features = both(write(tmp_path, text, newline))
    # a newline inside quotes stays in the cell as written
    inner = "two" + newline + "lines"
    expected = [[1.5, None, None, None, -0.25], [inner, "a,b", None, None, None]]
    assert cell_values(ds) == expected
    assert cell_values(features) == expected
    assert list(ds.response.values) == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert features.n_rows == 5


def test_unseen_category_is_missing(tmp_path):
    path = write(tmp_path, "x,c,y\n1,a,1\n2,b,2\n3,NA,3\n")
    # a category named like a missing token still reads as missing
    ds, features = both(path, categories={1: ("a", "NA", "zz")})
    assert cell_values(ds)[1] == ["a", "b", None]
    assert features.columns[1].categories == ("a", "NA", "zz")
    assert cell_values(features)[1] == ["a", None, None]


@pytest.mark.parametrize("token", ["NaN", "inf", "-inf"])
def test_readers_reject_non_finite_cells_alike(tmp_path, token):
    path = write(tmp_path, f"x,c,y\n1,a,1\n{token},b,2\n")
    message = f"row 3, column 'x': non-finite value {token!r}"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_csv(path, SCHEMA)
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_features(path, ("x",), (NUMERIC,), {})


def test_readers_reject_unparsable_cells_alike(tmp_path):
    path = write(tmp_path, "x,c,y\n1,a,1\n\n2,b,2\n1e,b,3\n")
    message = "row 5, column 'x': cannot parse '1e' as a number"
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_csv(path, SCHEMA)
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_features(path, ("x",), (NUMERIC,), {})


def test_readers_reject_a_missing_column_alike(tmp_path):
    path = write(tmp_path, "x,y\n1,2\n")
    with pytest.raises(SchemaError, match="'c'"):
        load_csv(path, SCHEMA)
    with pytest.raises(SchemaError, match="'c'"):
        load_features(path, ("x", "c"), (NUMERIC, CATEGORICAL), {1: ("a",)})


def test_readers_reject_a_ragged_row_alike(tmp_path):
    # the quoted newline and the blank line each count as one record
    path = write(tmp_path, 'x,c,y\n1,"a\nb",1\n\n2,b,2\n3,b\n')
    message = "row 5 has 2 cells, expected 3"
    with pytest.raises(ParseError, match=message):
        load_csv(path, SCHEMA)
    with pytest.raises(ParseError, match=message):
        load_features(path, ("x",), (NUMERIC,), {})


def test_readers_skip_blank_lines_in_wide_files(tmp_path):
    ds, features = both(write(tmp_path, "x,c,y\n\n1,a,1\n\n\n2,b,2\n\n"))
    assert cell_values(ds) == cell_values(features) == [[1.0, 2.0], ["a", "b"]]


def test_blank_line_in_one_column_file_is_a_missing_cell(tmp_path):
    path = write(tmp_path, "x\n0.2\n\n0.9\n")
    features = load_features(path, ("x",), (NUMERIC,), {})
    assert cell_values(features) == [[0.2, None, 0.9]]
    # the same blank line read as a one-column training table: its only
    # column is the response, which must not be missing
    with pytest.raises(ValidationError, match="row 3: missing response value"):
        load_csv(path, Schema(target="x"))


@pytest.mark.parametrize("text, error", [
    ("", "empty file"),
    ("\nx,y\n1,2\n", "blank header row"),
    ("x,y\n", "no data rows"),
    ("x,y\n\n", "no data rows"),
])
def test_readers_reject_tables_without_rows(tmp_path, text, error):
    path = write(tmp_path, text)
    with pytest.raises(ValidationError, match=error):
        load_csv(path, Schema(target="y"))
    with pytest.raises(ValidationError, match=error):
        load_features(path, ("x",), (NUMERIC,), {})


# ---------------------------------------------------------------------------
# the two paths of _read_table against a csv.reader reference


def reference_table(path):
    """What ``_read_table`` returns, read the plain way: every file through
    ``csv.reader``, one list per row, columns by ``zip``. This was the
    library's only reader before unquoted files got their own path."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if not header:
        raise ValidationError(f"{path}: empty file" if header is None else f"{path}: blank header row")
    seen = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"{path}: duplicate column {name!r} in header")
        seen.add(name)
    width = len(header)
    row_numbers = range(2, len(rows) + 2)
    if width == 1:
        rows = [row or [""] for row in rows]
    elif not all(rows):
        row_numbers = [number for number, row in zip(row_numbers, rows) if row]
        rows = [row for row in rows if row]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    if set(map(len, rows)) != {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ParseError(f"{path}: row {row_numbers[i]} has {len(rows[i])} cells, expected {width}")
    return header, list(zip(*rows)), row_numbers


def outcome(read, path):
    try:
        header, columns, row_numbers = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return header, [tuple(column) for column in columns], list(row_numbers)


TOKENS = [",", '"', "\n", "\r\n", "\r", "\x0b", "\n\n", "NA", "a", "1", " "]
LINE_ENDS = st.sampled_from(["\n", "\r\n"])
random_texts = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)
# well-formed tables of one or more columns, with blank lines, stray tokens
# or a quote mixed in
tables = st.builds(
    lambda width, cells, end, tail: end.join(",".join(cells[i:i + width]) for i in range(0, len(cells), width)) + tail,
    st.integers(1, 8),
    st.lists(st.sampled_from(["", "NA", "x", "1.5", "a b", "\x0b"]), max_size=40),
    LINE_ENDS,
    random_texts,
)


@given(st.one_of(random_texts, tables))
@example("a\r\r\n\n\n")
@example("x,y\r\n1,2\r\n\r\n3,4")
@example("x\r\n\r\n1\r\n")
@settings(max_examples=400, deadline=None)
def test_read_table_matches_csv_reader_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    path.write_bytes(text.encode())
    assert outcome(_read_table, str(path)) == outcome(reference_table, str(path))


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("text", [
    ",".join(f"c{j}" for j in range(LIMIT // 4)) + "\n" + ",".join(["1.25"] * (LIMIT // 4)) + "\n",
    "x,y\n" + "1" * LIMIT + ",2\n",
], ids=["long-line-short-cells", "cell-at-the-limit"])
@pytest.mark.parametrize("quote", [False, True], ids=["unquoted", "quoted"])
def test_read_table_accepts_lines_and_cells_up_to_the_field_limit(tmp_path, text, quote):
    if quote:  # quote the first column name, so csv.reader reads the file
        text = '"' + text.replace(",", '",', 1)
    path = tmp_path / "long.csv"
    path.write_text(text)
    assert outcome(_read_table, str(path)) == outcome(reference_table, str(path))


@given(st.lists(st.text(st.sampled_from(',"\r\n a'), max_size=4), min_size=2, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_predict_quotes_labels_as_csv_writer_does(tmp_path_factory, labels):
    n = len(labels)
    leaves = [[float(k == i % n) for k in range(n)] for i in range(3)]
    doc = _tree_doc({"kind": "xe", "n_classes": n}, labels, leaves)
    base = tmp_path_factory.getbasetemp()
    tree_path, data, out = base / "labels.json", base / "labels.csv", base / "labels_out.csv"
    tree_path.write_text(json.dumps(doc))
    data.write_text(PREDICT_INPUT)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["predict", "--tree", str(tree_path), "--data", str(data), "--out", str(out)]) == 0
    written = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(written, newline="")))
    assert rows[0] == ["prediction"] + [f"p_{label}" for label in labels]
    assert {row[0] for row in rows[1:]} <= set(labels)
    again = io.StringIO()
    csv.writer(again).writerows(rows)
    assert written == again.getvalue()
