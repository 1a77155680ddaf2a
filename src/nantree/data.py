"""Tabular data with explicit per-cell missingness.

Feature columns are typed (numeric or categorical) and stored as numpy
arrays. Missing cells are NaN in numeric columns and the code -1 in
categorical columns. Responses are never missing. Datasets are treated
as immutable: the backing arrays are marked read-only at construction.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

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


def parse_numeric(token: str, row: int, name: str) -> float:
    """A finite float from a CSV cell; ``row`` (1-based, header included)
    and ``name`` locate the cell in the error message."""
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(f"row {row}, column {name!r}: cannot parse {token!r} as a number") from exc
    if not np.isfinite(value):
        raise ParseError(f"row {row}, column {name!r}: non-finite value {token!r}")
    return value


def load_csv(path: str, schema: Schema, missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a typed Dataset.

    Cells equal to one of ``missing_tokens`` become Missing. A missing
    response cell is an error: responses must always be observed.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = [r for r in reader]

    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    if schema.target not in header:
        raise SchemaError(f"{path}: target column {schema.target!r} not in header")
    for name in schema.kinds:
        if name not in header:
            raise SchemaError(f"{path}: schema lists unknown column {name!r}")
    if schema.kinds.get(schema.target) is not None:
        raise SchemaError(f"{path}: target {schema.target!r} must not appear in feature kinds")
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    target_pos = header.index(schema.target)
    feature_names = [name for name in header if name != schema.target]
    feature_pos = [header.index(name) for name in feature_names]

    n = len(rows)
    for i, record in enumerate(rows, start=2):
        if len(record) != len(header):
            raise ParseError(f"{path}: row {i} has {len(record)} cells, expected {len(header)}")

    columns = []
    for name, pos in zip(feature_names, feature_pos):
        kind = schema.kinds.get(name, NUMERIC)
        if kind == NUMERIC:
            values = np.empty(n, dtype=np.float64)
            for i, record in enumerate(rows):
                token = record[pos]
                values[i] = np.nan if token in missing_tokens else parse_numeric(token, i + 2, name)
            columns.append(FeatureColumn(name, NUMERIC, values))
        else:
            raw = [record[pos] for record in rows]
            names = sorted({tok for tok in raw if tok not in missing_tokens})
            code_of = {tok: c for c, tok in enumerate(names)}
            codes = np.array([code_of.get(tok, -1) if tok not in missing_tokens else -1 for tok in raw], dtype=np.int64)
            columns.append(FeatureColumn(name, CATEGORICAL, codes, tuple(names)))

    raw_target = [record[target_pos] for record in rows]
    for i, token in enumerate(raw_target):
        if token in missing_tokens:
            raise ValidationError(f"{path}: row {i + 2}: missing response value")
    if schema.task == REGRESSION:
        values = np.array([parse_numeric(tok, i + 2, schema.target) for i, tok in enumerate(raw_target)])
        response = ResponseColumn(REAL, values)
    else:
        labels = sorted(set(raw_target))
        code_of = {lab: c for c, lab in enumerate(labels)}
        response = ResponseColumn(CLASS, np.array([code_of[tok] for tok in raw_target], dtype=np.int64), tuple(labels))

    return Dataset(tuple(columns), response)


def _format_float(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(value))


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back to CSV; loading it with the same schema is lossless."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.columns] + [_target_name(ds)])
        for i in range(ds.n_rows):
            record = []
            for col in ds.columns:
                v = col.values[i]
                if col.kind == NUMERIC:
                    record.append("" if np.isnan(v) else _format_float(v))
                else:
                    record.append("" if v < 0 else col.categories[v])
            if ds.response.kind == REAL:
                record.append(_format_float(ds.response.values[i]))
            else:
                record.append(ds.response.labels[ds.response.values[i]])
            writer.writerow(record)


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
