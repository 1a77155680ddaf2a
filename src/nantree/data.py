"""Tabular data with explicit per-cell missingness.

Feature columns are typed (numeric or categorical) and stored as numpy
arrays. Missing cells are NaN in numeric columns and the code -1 in
categorical columns. Responses are never missing. Datasets are treated
as immutable: the backing arrays are marked read-only at construction.
"""
from __future__ import annotations

import csv
import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import filterfalse, repeat

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

REAL = "real"
CLASS = "class"

REGRESSION = "regression"
CLASSIFICATION = "classification"

#: Cell tokens that are read as a missing value.
DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "nan"})


class NantreeError(ValueError):
    """Base class for errors raised by this package."""


class SchemaError(NantreeError):
    """The schema does not match the file (unknown columns, bad target...)."""


class ParseError(NantreeError):
    """A cell could not be parsed; carries row and column context."""


class ValidationError(NantreeError):
    """Structurally invalid data (missing response, empty file, bad folds...)."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureColumn:
    """One typed feature column.

    ``values`` is float64 with NaN for missing (numeric) or int64 codes
    with -1 for missing (categorical). ``categories`` maps codes to names
    and is sorted; it may contain names that no longer occur in ``values``
    (e.g. after censoring or row subsetting).
    """

    name: str
    kind: str
    values: np.ndarray
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValidationError(f"unknown column kind {self.kind!r}")
        dtype = np.float64 if self.kind == NUMERIC else np.int64
        values = np.ascontiguousarray(self.values, dtype=dtype)
        if values.ndim != 1:
            raise ValidationError(f"column {self.name!r} must be 1-d")
        if self.kind == NUMERIC:
            if np.isinf(values).any():
                raise ValidationError(f"column {self.name!r} contains non-finite values")
        else:
            if values.size and (values.min() < -1 or values.max() >= len(self.categories)):
                raise ValidationError(f"column {self.name!r} has codes outside the category list")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "categories", tuple(self.categories))

    def present_mask(self) -> np.ndarray:
        """Boolean mask of cells that carry a value."""
        if self.kind == NUMERIC:
            return ~np.isnan(self.values)
        return self.values >= 0

    def take(self, rows: np.ndarray) -> "FeatureColumn":
        return FeatureColumn(self.name, self.kind, self.values[rows], self.categories)


@dataclass(frozen=True)
class ResponseColumn:
    """The target column. Real-valued or a class label in 0..K-1."""

    kind: str
    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (REAL, CLASS):
            raise ValidationError(f"unknown response kind {self.kind!r}")
        dtype = np.float64 if self.kind == REAL else np.int64
        values = np.ascontiguousarray(self.values, dtype=dtype)
        if values.ndim != 1:
            raise ValidationError("response must be 1-d")
        if self.kind == REAL:
            if not np.isfinite(values).all():
                raise ValidationError("response contains non-finite values")
        else:
            if len(self.labels) < 2:
                raise ValidationError("classification needs at least two labels")
            if values.size and (values.min() < 0 or values.max() >= len(self.labels)):
                raise ValidationError("response has labels outside the label list")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray) -> "ResponseColumn":
        return ResponseColumn(self.kind, self.values[rows], self.labels)


@dataclass(frozen=True)
class Dataset:
    columns: tuple[FeatureColumn, ...]
    response: ResponseColumn

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        n = len(self.response.values)
        if n == 0:
            raise ValidationError("dataset has no rows")
        for col in self.columns:
            if len(col.values) != n:
                raise ValidationError(f"column {col.name!r} has {len(col.values)} rows, expected {n}")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names")

    @property
    def n_rows(self) -> int:
        return len(self.response.values)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """Row subset; category and label dictionaries are preserved."""
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            tuple(col.take(rows) for col in self.columns),
            self.response.take(rows),
        )


def row_index(rows, n_rows: int) -> np.ndarray:
    """All ``n_rows`` positions when ``rows`` is None; otherwise ``rows``
    checked to be 1-d integer positions in ``[0, n_rows)``. Every public
    entry point that takes row indices checks them here."""
    if rows is None:
        return np.arange(n_rows, dtype=np.int64)
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValidationError("rows must be a 1-d sequence of integer row indices")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise ValidationError(f"row indices must lie in [0, {n_rows})")
    return rows.astype(np.int64, copy=False)


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_row: np.ndarray
    k: int

    def __post_init__(self) -> None:
        folds = np.ascontiguousarray(self.fold_of_row, dtype=np.int64)
        if self.k < 2:
            raise ValidationError("need at least 2 folds")
        if folds.min() < 0 or folds.max() >= self.k:
            raise ValidationError("fold index out of range")
        if len(np.unique(folds)) != self.k:
            raise ValidationError("some fold received no rows")
        object.__setattr__(self, "fold_of_row", _readonly(folds))

    def train_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row != fold)

    def test_rows(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_row == fold)


@dataclass(frozen=True)
class Schema:
    """Column typing for CSV ingestion.

    ``kinds`` maps feature column names to "numeric"/"categorical";
    columns not listed default to numeric. ``task`` decides how the
    target column is read.
    """

    target: str
    task: str = REGRESSION
    kinds: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise SchemaError(f"unknown task {self.task!r}")
        for name, kind in self.kinds.items():
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"unknown kind {kind!r} for column {name!r}")


def read_schema_file(path: str) -> Schema:
    """Read a sidecar JSON config: {"target": ..., "task": ..., "columns": {...}}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"schema file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"schema file {path}: expected a JSON object")
    target = doc.get("target", "")
    task = doc.get("task", REGRESSION)
    kinds = doc.get("columns", {})
    if not isinstance(kinds, dict):
        raise SchemaError(f"schema file {path}: 'columns' must be an object")
    return Schema(target=target, task=task, kinds=dict(kinds))


def _parse_numeric(token: str, row: int, name: str) -> float:
    """A finite float from a CSV cell; ``row`` (1-based, header included)
    and ``name`` locate the cell in the error message."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"row {row}, column {name!r}: cannot parse {token!r} as a number") from exc
    if not np.isfinite(value):
        raise ParseError(f"row {row}, column {name!r}: non-finite value {token!r}")
    return value


def _read_table(path: str) -> tuple[list[str], list[tuple[str, ...]], Sequence[int]]:
    """Header, cell columns and file row numbers of an RFC-4180 CSV file.

    Row numbers count file records with the header as row 1; they are
    what error messages report. In a one-column file a blank line is one
    empty cell; in wider files blank lines are skipped.
    """
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
    row_numbers: Sequence[int] = range(2, len(rows) + 2)
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


def _numeric_column(cells: tuple[str, ...], name: str, row_numbers: Sequence[int],
                    missing_tokens: frozenset[str]) -> np.ndarray:
    """float64 values of a cell column, NaN where the cell is a missing token."""
    is_missing = missing_tokens.__contains__
    present = ~np.fromiter(map(is_missing, cells), dtype=bool, count=len(cells))
    try:
        parsed = np.fromiter(map(float, filterfalse(is_missing, cells)), dtype=np.float64,
                             count=int(present.sum()))
    except ValueError:
        parsed = None
    if parsed is None or not np.isfinite(parsed).all():
        # rescan cell by cell so the message names the first bad cell
        for token, row in zip(cells, row_numbers):
            if not is_missing(token):
                _parse_numeric(token, row, name)
    values = np.full(len(cells), np.nan)
    values[present] = parsed
    return values


def _category_codes(cells: tuple[str, ...], categories: Sequence[str],
                    missing_tokens: frozenset[str]) -> np.ndarray:
    """int64 codes into ``categories``; missing tokens and unknown names are -1."""
    code_of = {name: code for code, name in enumerate(categories)}
    code_of.update(dict.fromkeys(missing_tokens, -1))
    return np.fromiter(map(code_of.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))


def load_csv(path: str, schema: Schema, missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a typed Dataset.

    Cells equal to one of ``missing_tokens`` become Missing. A missing
    response cell is an error: responses must always be observed. In a
    one-column file a blank line is one empty cell; in wider files blank
    lines are skipped. Error messages count rows as file records, the
    header being row 1.
    """
    header, cells, row_numbers = _read_table(path)
    if schema.target not in header:
        raise SchemaError(f"{path}: target column {schema.target!r} not in header")
    for name in schema.kinds:
        if name not in header:
            raise SchemaError(f"{path}: schema lists unknown column {name!r}")
    if schema.kinds.get(schema.target) is not None:
        raise SchemaError(f"{path}: target {schema.target!r} must not appear in feature kinds")

    columns = []
    for name, column in zip(header, cells):
        if name == schema.target:
            continue
        if schema.kinds.get(name, NUMERIC) == NUMERIC:
            columns.append(FeatureColumn(name, NUMERIC, _numeric_column(column, name, row_numbers, missing_tokens)))
        else:
            names = sorted(set(column).difference(missing_tokens))
            codes = _category_codes(column, names, missing_tokens)
            columns.append(FeatureColumn(name, CATEGORICAL, codes, tuple(names)))

    raw_target = cells[header.index(schema.target)]
    if any(map(missing_tokens.__contains__, raw_target)):
        i = next(i for i, token in enumerate(raw_target) if token in missing_tokens)
        raise ValidationError(f"{path}: row {row_numbers[i]}: missing response value")
    if schema.task == REGRESSION:
        response = ResponseColumn(REAL, _numeric_column(raw_target, schema.target, row_numbers, frozenset()))
    else:
        labels = sorted(set(raw_target))
        response = ResponseColumn(CLASS, _category_codes(raw_target, labels, frozenset()), tuple(labels))

    return Dataset(tuple(columns), response)


def load_features(path: str, names: Sequence[str], kinds: Sequence[str],
                  categories: Mapping[int, Sequence[str]]) -> Dataset:
    """Read the feature columns ``names`` from a CSV file, e.g. to predict with a tree.

    ``kinds[j]`` types column ``names[j]``, and ``categories[j]`` lists the
    category names of a categorical one in code order. Columns are matched
    by name; other columns, the response included, are ignored. Cells in
    ``DEFAULT_MISSING_TOKENS`` and category names not in the list are
    missing. The returned Dataset's response is a placeholder of zeros.
    """
    header, cells, row_numbers = _read_table(path)
    position = {name: i for i, name in enumerate(header)}
    columns = []
    for j, (name, kind) in enumerate(zip(names, kinds)):
        if name not in position:
            raise SchemaError(f"{path}: feature column {name!r} not in header")
        column = cells[position[name]]
        if kind == CATEGORICAL:
            cats = tuple(categories.get(j, ()))
            codes = _category_codes(column, cats, DEFAULT_MISSING_TOKENS)
            columns.append(FeatureColumn(name, CATEGORICAL, codes, cats))
        else:
            values = _numeric_column(column, name, row_numbers, DEFAULT_MISSING_TOKENS)
            columns.append(FeatureColumn(name, kind, values))
    return Dataset(tuple(columns), ResponseColumn(REAL, np.zeros(len(row_numbers))))


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back to CSV; loading it with the same schema is lossless."""
    columns = []
    for col in ds.columns:
        if col.kind == NUMERIC:
            columns.append(_float_cells(col.values))
        else:
            # code -1 indexes the trailing "", the missing cell
            columns.append(list(map((col.categories + ("",)).__getitem__, col.values.tolist())))
    if ds.response.kind == REAL:
        columns.append(_float_cells(ds.response.values))
    else:
        columns.append(list(map(ds.response.labels.__getitem__, ds.response.values.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.columns] + [_target_name(ds)])
        writer.writerows(zip(*columns))


def _float_cells(values: np.ndarray) -> list[str]:
    # repr of a Python float is the shortest string that round-trips exactly
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def _target_name(ds: Dataset) -> str:
    taken = {c.name for c in ds.columns}
    for candidate in ("y", "target", "response"):
        if candidate not in taken:
            return candidate
    return "y_target"


def schema_for(ds: Dataset, target: str | None = None) -> Schema:
    """Schema that reloads a Dataset written by save_csv."""
    return Schema(
        target=target or _target_name(ds),
        task=REGRESSION if ds.response.kind == REAL else CLASSIFICATION,
        kinds={c.name: c.kind for c in ds.columns},
    )


def stratified_kfold(ds: Dataset, k: int, seed: int) -> FoldAssignment:
    """Deterministic k-fold assignment.

    Regression: a seeded shuffle dealt round-robin, so fold sizes differ
    by at most one. Classification: rows are shuffled within each class
    and dealt round-robin with a fold counter that continues across
    classes, so per-class fold counts differ by at most one and every
    fold is non-empty whenever n_rows >= k.
    """
    if k < 2:
        raise ValidationError("need at least 2 folds")
    if k > ds.n_rows:
        raise ValidationError(f"cannot make {k} folds from {ds.n_rows} rows")
    rng = np.random.default_rng(seed)
    fold_of_row = np.empty(ds.n_rows, dtype=np.int64)
    if ds.response.kind == REAL:
        order = rng.permutation(ds.n_rows)
        fold_of_row[order] = np.arange(ds.n_rows) % k
    else:
        slot = 0
        for c in range(ds.response.n_classes):
            rows = np.flatnonzero(ds.response.values == c)
            if rows.size == 0:
                raise ValidationError(f"class {ds.response.labels[c]!r} has no rows")
            rows = rng.permutation(rows)
            for r in rows:
                fold_of_row[r] = slot % k
                slot += 1
    return FoldAssignment(fold_of_row, k)
