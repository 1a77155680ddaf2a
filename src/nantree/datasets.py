"""Bundled synthetic data for the benchmark and the demos."""
from __future__ import annotations

import numpy as np

from .data import Dataset, FeatureColumn, NUMERIC, REAL, ResponseColumn, check_seed

#: Default seed for the bundled benchmark table; fixed so every run sees
#: the same data.
BENCHMARK_SEED = 20240901


def tree_structured_data(
    n_rows: int = 2000,
    seed: int = BENCHMARK_SEED,
    noise: float = 0.25,
    proxy_noise: float = 0.05,
) -> Dataset:
    """A regression table whose response is a depth-3 tree in x1..x3.

    Six numeric features: x1..x3 drive the response through threshold
    indicators at 0.5; z1..z3 are noisy copies of x1..x3, so information
    lost to censoring one feature can be recovered from its proxy. The
    response is 8*[x1>.5] + 4*[x2>.5] + 2*[x3>.5] plus Gaussian noise.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, 3))
    z = x + rng.normal(0.0, proxy_noise, size=(n_rows, 3))
    y = (
        8.0 * (x[:, 0] > 0.5)
        + 4.0 * (x[:, 1] > 0.5)
        + 2.0 * (x[:, 2] > 0.5)
        + rng.normal(0.0, noise, size=n_rows)
    )
    columns = tuple(
        [FeatureColumn(f"x{i + 1}", NUMERIC, x[:, i]) for i in range(3)]
        + [FeatureColumn(f"z{i + 1}", NUMERIC, z[:, i]) for i in range(3)]
    )
    return Dataset(columns, ResponseColumn(REAL, y))


def step_data(n_rows: int = 60, seed: int = 7, noise: float = 0.0) -> Dataset:
    """A single-threshold step response; a depth-1 tree fits it exactly."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    x = rng.random(n_rows)
    y = np.where(x > 0.5, 10.0, 0.0) + (rng.normal(0.0, noise, n_rows) if noise else 0.0)
    return Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, y))
