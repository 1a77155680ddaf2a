"""Deterministic cell censoring for the benchmark scenarios.

Three scenarios: ``mcar`` censors train and test uniformly at random
(independent streams), ``mcar_test`` leaves training data untouched and
censors only the test side, and ``im`` (informative missingness) censors
deterministically from the top of each feature. Responses are never
censored. Every censored feature column loses exactly round(q * n_rows)
cells (given a fully observed input column).

MCAR and IM differ only in the order in which a column's present cells
go missing: one blanking step takes the first round(q * n_rows) cells of
a seeded random choice (MCAR) or of a ranking by value or category
frequency (IM).
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, Dataset, FeatureColumn, ValidationError, check_seed

MCAR = "mcar"
MCAR_TEST = "mcar_test"
IM = "im"

SCENARIOS = (MCAR, MCAR_TEST, IM)


@dataclass(frozen=True)
class CensorSpec:
    scenario: str
    q: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        if not 0.0 <= self.q <= 0.9:
            raise ValidationError("q must lie in [0, 0.9]")
        check_seed(self.seed)


def _blank(ds: Dataset, q: float, order: Callable[..., np.ndarray]) -> Dataset:
    """``ds`` with the first min(round(q * n_rows), present) cells of
    ``order(j, column, present, m)`` blanked in each feature column ``j``;
    ``present`` holds the column's present rows, ascending, and ``m`` is
    that count. A column with nothing to blank is kept as it is."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    columns = []
    for j, col in enumerate(ds.columns):
        present = np.flatnonzero(col.present_mask())
        m = min(int(round(q * ds.n_rows)), present.size)
        if m:
            values = col.values.copy()
            values[order(j, col, present, m)[:m]] = -1 if col.kind == CATEGORICAL else np.nan
            col = FeatureColumn(col.name, col.kind, values, col.categories)
        columns.append(col)
    return Dataset(tuple(columns), ds.response)


def censor_mcar(ds: Dataset, q: float, seed: int) -> Dataset:
    """Censor exactly round(q*n) present cells per feature, uniformly at
    random, with an independent stream per (seed, column index)."""
    check_seed(seed)
    return _blank(ds, q, lambda j, col, present, m:
                   np.random.default_rng([seed, j]).choice(present, size=m, replace=False))


def _im_order(j: int, col: FeatureColumn, present: np.ndarray, m: int) -> np.ndarray:
    """Present rows by descending value (numeric) or by category, most
    frequent first and ties by name (categorical); then by row."""
    values = col.values[present]
    if col.kind == CATEGORICAL:
        counts = np.bincount(values, minlength=len(col.categories))
        by_rank = np.lexsort((np.array(col.categories, dtype=object), -counts))
        key = np.argsort(by_rank)[values]  # the inverse permutation: each code's rank
    else:
        key = -values
    return present[np.lexsort((present, key))]


def censor_im(ds: Dataset, q: float) -> Dataset:
    """Informative censoring: the largest values (numeric) or the most
    frequent categories (categorical) go missing first. Deterministic."""
    return _blank(ds, q, _im_order)


def _derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def apply_scenario(train: Dataset, test: Dataset, spec: CensorSpec) -> tuple[Dataset, Dataset]:
    """Censor a train/test pair according to the scenario."""
    if spec.scenario == MCAR:
        return (
            censor_mcar(train, spec.q, _derive_seed(spec.seed, 0)),
            censor_mcar(test, spec.q, _derive_seed(spec.seed, 1)),
        )
    if spec.scenario == MCAR_TEST:
        return train, censor_mcar(test, spec.q, _derive_seed(spec.seed, 1))
    return censor_im(train, spec.q), censor_im(test, spec.q)
