"""Tabular data with explicit per-cell missingness.

Feature columns are typed (numeric or categorical) and stored as numpy
arrays. Missing cells are NaN in numeric columns and the code -1 in
categorical columns. Responses are never missing. Datasets are treated
as immutable: the backing arrays are marked read-only at construction.

A CSV file of at least :data:`PARALLEL_CHARS` characters with no quotes
is read on every usable CPU, one row range per process through
:func:`parallel.fork_map`, with the values and errors of a one-process
read.
"""
from __future__ import annotations

import csv
import json
import numbers
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice, repeat

import numpy as np

from . import parallel

NUMERIC = "numeric"
CATEGORICAL = "categorical"

REAL = "real"
CLASS = "class"

REGRESSION = "regression"
CLASSIFICATION = "classification"

#: Cell tokens that are read as a missing value.
DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "nan"})

#: Characters that put a written CSV cell in quotes.
_SPECIAL = re.compile('[,"\r\n]')

#: One line end of an unquoted file, as ``csv.reader`` ends a record.
_LINE_END = re.compile("\r\n?|\n")

#: the fewest characters at which an unquoted CSV file is read on every
#: usable CPU; below it, forking costs more than it saves
PARALLEL_CHARS = 1_000_000


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


def first_repeat(names: Iterable[str]) -> str | None:
    """The first name in ``names`` that an earlier one equals, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _check_names(names: Sequence[str], what: str, noun: str) -> None:
    """Raise ValidationError, naming ``what``, on a name not a ``str`` or repeated."""
    for name in names:
        if not isinstance(name, str):
            raise ValidationError(f"{what}: {noun} {name!r} is not a str")
    if len(set(names)) != len(names):
        raise ValidationError(f"{what} repeats {noun} {first_repeat(names)!r}")


def _column_values(values, dtype, what: str) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array; codes (int64) given as
    floats must be whole numbers, else a ValidationError names ``what``."""
    values = np.asarray(values)
    if dtype is np.int64 and values.dtype.kind == "f":
        whole = (np.abs(values) < 2.0 ** 63) & (values == np.trunc(values))
        if not whole.all():
            raise ValidationError(f"{what}: code {values[~whole][0]} is not an int64 integer")
    return np.ascontiguousarray(values, dtype=dtype)


@dataclass(frozen=True)
class FeatureColumn:
    """One typed feature column.

    ``values`` is float64 with NaN for missing (numeric) or int64 codes
    with -1 for missing (categorical). ``categories`` lists the category
    names in code order, each a ``str`` and none twice; :func:`load_csv`
    sorts them, but any order is kept. It may contain names that no
    longer occur in ``values`` (e.g. after censoring or row subsetting).
    """

    name: str
    kind: str
    values: np.ndarray
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValidationError(f"unknown column kind {self.kind!r}")
        dtype = np.float64 if self.kind == NUMERIC else np.int64
        values = _column_values(self.values, dtype, f"column {self.name!r}")
        if values.ndim != 1:
            raise ValidationError(f"column {self.name!r} must be 1-d")
        if self.kind == NUMERIC:
            if np.isinf(values).any():
                raise ValidationError(f"column {self.name!r} contains non-finite values")
        else:
            if values.size and (values.min() < -1 or values.max() >= len(self.categories)):
                raise ValidationError(f"column {self.name!r} has codes outside the category list")
            _check_names(self.categories, f"column {self.name!r}", "category")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "categories", tuple(self.categories))

    def present_mask(self) -> np.ndarray:
        """Boolean mask of cells that carry a value."""
        if self.kind == NUMERIC:
            return ~np.isnan(self.values)
        return self.values >= 0

    def take(self, rows: np.ndarray) -> "FeatureColumn":
        return FeatureColumn(self.name, self.kind, self.values[rows], self.categories)

    def recoded(self, categories: Sequence[str]) -> "FeatureColumn":
        """The same cells under the category list ``categories``: a name the
        list lacks becomes missing. A numeric column, or one already under
        that list, is returned as it is."""
        if self.kind == NUMERIC or self.categories == tuple(categories):
            return self
        code_of = {name: code for code, name in enumerate(categories)}
        # code -1 indexes the trailing -1, the missing cell
        codes = np.array([code_of.get(name, -1) for name in self.categories] + [-1], dtype=np.int64)
        return FeatureColumn(self.name, CATEGORICAL, codes[self.values], categories)


@dataclass(frozen=True)
class ResponseColumn:
    """The target column. Real-valued or a class label in 0..K-1; no two
    labels are equal."""

    kind: str
    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (REAL, CLASS):
            raise ValidationError(f"unknown response kind {self.kind!r}")
        dtype = np.float64 if self.kind == REAL else np.int64
        values = _column_values(self.values, dtype, "response")
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
            _check_names(self.labels, "response", "label")
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
        """Row subset, its rows checked by :func:`row_index`; category and
        label dictionaries are preserved."""
        rows = row_index(rows, self.n_rows)
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


def check_integer(value, name: str) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an int or a
    numpy integer; a bool, a float such as 2.0 or NaN, a string or None is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, not {value!r}")


def check_seed(seed: int) -> None:
    """Raise ValidationError unless ``seed`` is a nonnegative integer, as
    numpy's generators need; every public function that takes a seed checks it here."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, not {seed!r}")


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
    except UnicodeDecodeError as exc:
        raise SchemaError(f"schema file {path}: not valid UTF-8 text ({exc.reason})") from None
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


def _read_text(path: str) -> str:
    """The file's text, its line ends as written; text that is not UTF-8 is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text ({exc.reason})") from None


def _lines(text: str) -> list[str]:
    r"""The lines of a text with no ``"``: its ``\r\n`` and bare ``\r`` become
    ``\n``, as ``csv.reader`` ends a record at any of them."""
    if "\r" in text:  # one statement each: a text no caller holds is freed before the second copy
        text = text.replace("\r\n", "\n")
        text = text.replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ends with a line end, or is empty
    return lines


def _unquoted_table(lines: list[str], path: str) -> tuple[list[str], list[Sequence[str]], Sequence[int]]:
    """The table of the :func:`_lines` of a text with no ``"``: its columns
    are strided slices of one list of cells, with no list per row. ``lines``
    is emptied once its cells are joined, so the caller's reference keeps
    no line alive."""
    limit = csv.field_size_limit()
    if lines and max(map(len, lines)) > limit:  # a long line may still hold only short cells
        for number, line in enumerate(lines, 1):
            if len(line) > limit and max(map(len, line.split(","))) > limit:
                raise ParseError(f"{path}: row {number}: field larger than field limit ({limit})")
    first = lines.pop(0) if lines else None
    header = _checked_header(first and first.split(","), path)  # "" is a blank header row
    width = len(header)
    row_numbers: Sequence[int] = range(2, len(lines) + 2)
    if width > 1 and "" in lines:
        row_numbers = [number for number, line in zip(row_numbers, lines) if line]
        lines[:] = filter(None, lines)
    if not lines:
        raise ValidationError(f"{path}: no data rows")
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        i = next(i for i, line in enumerate(lines) if line.count(",") != width - 1)
        raise ParseError(f"{path}: row {row_numbers[i]} has {lines[i].count(',') + 1} cells, expected {width}")
    joined = ",".join(lines)
    lines.clear()
    cells = joined.split(",")
    del joined
    return header, [cells[j::width] for j in range(width)], row_numbers


def read_rows(path: str) -> Iterator[list[str]]:
    """The records of an RFC-4180 CSV file, read as they are iterated.

    Text that is not UTF-8 and a malformed record, such as one with a cell
    longer than ``csv.field_size_limit()`` characters, raise ParseError;
    its row number counts records, the first being row 1.
    """
    number = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for number, row in enumerate(csv.reader(fh), 1):
                yield row
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {number + 1}: {exc}") from None


def write_columns(path: str, header: Sequence[str], columns: Sequence[Sequence[str]]) -> None:
    r"""Write string cells, given column by column under ``header``, as the
    ``csv`` module's writer does: ``\r\n`` line ends, and a cell in quotes,
    its quotes doubled, only when it holds ``,``, ``"``, ``\r`` or ``\n`` or
    is empty and alone in its row. Text that is not UTF-8 is a
    ValidationError, raised before the file is opened; lines are written a
    chunk at a time, so the file's text is never held whole."""
    alone = len(header) == 1
    fields = []
    for cells in [header, *columns]:
        text = "".join(cells)  # one scan of the column finds whether any cell needs quotes
        try:
            text.isascii() or text.encode("utf-8")  # ASCII text needs no copy to check
        except UnicodeEncodeError as exc:
            raise ValidationError(f"{path}: cannot write {exc.object[exc.start:exc.end]!r}, "
                                  "which is not UTF-8 text") from None
        if any(c in text for c in ',"\r\n') or (alone and "" in cells):
            cells = ['"' + c.replace('"', '""') + '"' if _SPECIAL.search(c) or (alone and not c) else c
                     for c in cells]
        fields.append(cells)
        del text  # hold one column's text at a time
    lines = chain([",".join(fields.pop(0))], fields[0] if len(fields) == 1 else map(",".join, zip(*fields)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for chunk in iter(lambda: list(islice(lines, 4096)), []):
            fh.write("\r\n".join(chunk) + "\r\n")


def _read_records(path: str) -> tuple[list[str], list[Sequence[str]], Sequence[int]]:
    """The table of a file with a ``"``, read by :func:`read_rows`."""
    rows = list(read_rows(path))
    header = _checked_header(rows.pop(0) if rows else None, path)
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


def _checked_header(header: list[str] | str | None, path: str) -> list[str]:
    """``header`` when it names at least one column and no column twice."""
    if not header:
        raise ValidationError(f"{path}: empty file" if header is None else f"{path}: blank header row")
    name = first_repeat(header)
    if name is not None:
        raise SchemaError(f"{path}: duplicate column {name!r} in header")
    return header


def _numeric_column(cells: Sequence[str], name: str, row_numbers: Sequence[int]) -> np.ndarray:
    """float64 values of a cell column, NaN where the cell is a missing token."""
    is_missing = DEFAULT_MISSING_TOKENS.__contains__
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


def _column(name: str, kind: str, cells: Sequence[str], row_numbers: Sequence[int]) -> FeatureColumn:
    """A typed column of cells, missing tokens missing; a categorical
    column's categories are the sorted names in its cells."""
    if kind != CATEGORICAL:
        return FeatureColumn(name, kind, _numeric_column(cells, name, row_numbers))
    categories = sorted(set(cells).difference(DEFAULT_MISSING_TOKENS))
    code_of = {category: code for code, category in enumerate(categories)}  # a missing token is -1
    codes = np.fromiter(map(code_of.get, cells, repeat(-1)), dtype=np.int64, count=len(cells))
    return FeatureColumn(name, CATEGORICAL, codes, categories)


def _range_cuts(text: str, p: int) -> list[int]:
    """Where the header line of an unquoted ``text`` ends, then the end of
    each of at most ``p`` row ranges of about equal length after it, each
    cut just after a line end; of two or more ranges, none is empty."""
    first = _LINE_END.search(text)
    cuts = [first.end() if first else len(text)]
    step = (len(text) - cuts[0]) // p
    for k in range(1, p):
        end = _LINE_END.search(text, max(cuts[-1], cuts[0] + k * step))
        if end is None or end.end() == len(text):
            break
        cuts.append(end.end())
    cuts.append(len(text))
    return cuts


def _joined(parts: Sequence[FeatureColumn]) -> FeatureColumn:
    """One column from the same column of consecutive row ranges, under their
    shared category list in its order, or else their lists' sorted union."""
    categories = parts[0].categories
    if any(part.categories != categories for part in parts):
        categories = tuple(sorted(set().union(*(part.categories for part in parts))))
    values = np.concatenate([part.recoded(categories).values for part in parts])
    return FeatureColumn(parts[0].name, parts[0].kind, values, categories)


def _read_columns(path: str, convert) -> list[FeatureColumn]:
    """``convert(header, cells, row_numbers)`` of the RFC-4180 CSV file at
    ``path``: cells come column by column, and row numbers count file
    records with the header as row 1, as error messages report them. In a
    one-column file a blank line is one empty cell; in wider files blank
    lines are skipped. A file with a ``"`` is read again by ``csv.reader``,
    the only path that reads quoted cells; one without has one record per
    line and one cell per comma (:func:`_unquoted_table`), with the same
    cells and errors. A cell longer than ``csv.field_size_limit()``
    characters is a ParseError on either path, raised before any other check.

    An unquoted file of at least :data:`PARALLEL_CHARS` characters is cut
    after line ends into one row range per usable CPU; each
    :func:`parallel.fork_map` task reads the header and its range as a
    table of its own and converts it, and the ranges' columns are joined in
    order. An error raised in any range, whose row numbers count from the
    range's start, is raised again by reading the whole text as one range,
    with the message, row number and order of checks of a one-process read.
    """
    text = _read_text(path)
    if '"' in text:
        del text  # csv.reader reads the file again: an io.StringIO of the text holds 4 bytes a character
        return convert(*_read_records(path))
    cuts = _range_cuts(text, parallel.processes()) if len(text) >= PARALLEL_CHARS else []
    if len(cuts) > 2:
        header = text[:cuts[0]]
        try:
            parts = parallel.fork_map(
                lambda i: convert(*_unquoted_table(_lines(header + text[cuts[i]:cuts[i + 1]]), path)), len(cuts) - 1)
        except NantreeError:
            pass  # raised again below
        else:
            return list(map(_joined, zip(*parts)))
    lines = _lines(text)
    del text
    return convert(*_unquoted_table(lines, path))


def load_csv(path: str, schema: Schema) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a typed Dataset.

    Cells in ``DEFAULT_MISSING_TOKENS`` become Missing. A missing
    response cell is an error: responses must always be observed. In a
    one-column file a blank line is one empty cell; in wider files blank
    lines are skipped. Error messages count rows as file records, the
    header being row 1. A large unquoted file is read on every usable CPU
    (:data:`PARALLEL_CHARS`), with the values and errors of a one-process read.
    """
    def convert(header, cells, row_numbers):
        if schema.target not in header:
            raise SchemaError(f"{path}: target column {schema.target!r} not in header")
        for name in schema.kinds:
            if name not in header:
                raise SchemaError(f"{path}: schema lists unknown column {name!r}")
        if schema.kinds.get(schema.target) is not None:
            raise SchemaError(f"{path}: target {schema.target!r} must not appear in feature kinds")
        columns = [_column(name, schema.kinds.get(name, NUMERIC), column, row_numbers)
                   for name, column in zip(header, cells) if name != schema.target]
        raw_target = cells[header.index(schema.target)]
        if any(map(DEFAULT_MISSING_TOKENS.__contains__, raw_target)):
            i = next(i for i, token in enumerate(raw_target) if token in DEFAULT_MISSING_TOKENS)
            raise ValidationError(f"{path}: row {row_numbers[i]}: missing response value")
        # the cells hold no missing token, so the column is the target's values or labels
        kind = NUMERIC if schema.task == REGRESSION else CATEGORICAL
        return columns + [_column(schema.target, kind, raw_target, row_numbers)]

    *columns, target = _read_columns(path, convert)
    if schema.task == REGRESSION:
        response = ResponseColumn(REAL, target.values)
    else:
        response = ResponseColumn(CLASS, target.values, target.categories)
    return Dataset(tuple(columns), response)


def load_features(path: str, names: Sequence[str], kinds: Sequence[str],
                  categories: Mapping[int, Sequence[str]]) -> Dataset:
    """Read the feature columns ``names`` from a CSV file, e.g. to predict with a tree.

    ``kinds[j]`` types column ``names[j]``, and ``categories[j]`` lists the
    category names of a categorical one in code order. Columns are matched
    by name; other columns, the response included, are ignored. Cells in
    ``DEFAULT_MISSING_TOKENS`` and category names not in the list are
    missing. The returned Dataset's response is a placeholder of zeros. A
    large unquoted file is read on every usable CPU (:data:`PARALLEL_CHARS`),
    with the values and errors of a one-process read.
    """
    def convert(header, cells, row_numbers):
        position = {name: i for i, name in enumerate(header)}
        columns = []
        for j, (name, kind) in enumerate(zip(names, kinds)):
            if name not in position:
                raise SchemaError(f"{path}: feature column {name!r} not in header")
            columns.append(_column(name, kind, cells[position[name]], row_numbers).recoded(categories.get(j, ())))
        return columns + [FeatureColumn("", NUMERIC, np.zeros(len(row_numbers)))]

    *columns, placeholder = _read_columns(path, convert)
    return Dataset(tuple(columns), ResponseColumn(REAL, placeholder.values))


def save_csv(ds: Dataset, path: str) -> None:
    """Write a Dataset back to CSV; loading it with the same schema is lossless.

    A category or label spelled like a missing token would read back as
    missing, so it is a ValidationError, raised before the file is opened.
    """
    target = _target_name(ds)
    for name, names in [(c.name, c.categories) for c in ds.columns] + [(target, ds.response.labels)]:
        clash = DEFAULT_MISSING_TOKENS.intersection(names)
        if clash:
            raise ValidationError(f"column {name!r}: cannot write the name {min(clash)!r}, "
                                  "which reads back as a missing cell")
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
    write_columns(path, [c.name for c in ds.columns] + [target], columns)


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
    check_seed(seed)
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
            fold_of_row[rng.permutation(rows)] = np.arange(slot, slot + rows.size) % k
            slot += rows.size
    return FoldAssignment(fold_of_row, k)
