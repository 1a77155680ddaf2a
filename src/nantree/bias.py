"""Monte Carlo demonstration of leaf-estimate bias under missingness.

The setup is a single known split: a binary covariate sends each sample
left (response level ``a``) or right (level ``b``), Gaussian noise on
top, and the covariate goes missing completely at random with rate
``q``. Each replication grows one strategy's depth-1 tree with
:func:`tree.train` on that covariate alone, so the known split is the
only candidate and the package's own routing and leaf fits give the
left-leaf estimate. Averaging over replications exposes which
strategies drag the left estimate toward ``b`` and by how much,
compared against closed-form bias ceilings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import NUMERIC, REAL, Dataset, FeatureColumn, ResponseColumn, ValidationError, check_seed, write_columns
from .split import Strategy
from .tree import Leaf, TrainConfig, predict, train

BIAS_STRATEGIES = (Strategy.MAJORITY, Strategy.MIA, Strategy.FC, Strategy.TRINARY)

BIAS_CSV_HEADER = ("strategy", "mean_a_hat", "se", "kappa_hat", "bound")


@dataclass(frozen=True)
class BiasScenario:
    a: float = 0.0
    b: float = 1.0
    p: float = 0.5          # P(sample belongs right, i.e. at level b)
    q: float = 0.3          # P(covariate missing)
    sigma: float = 0.1
    n_samples: int = 200
    replications: int = 2000
    seed: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValidationError("p must lie strictly inside (0, 1)")
        if not 0.0 <= self.q < 1.0:
            raise ValidationError("q must lie in [0, 1)")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValidationError("a and b must be finite")
        if not 0.0 <= self.sigma < math.inf:  # NaN fails too
            raise ValidationError("sigma must be finite and nonnegative")
        if self.n_samples < 2 or self.replications < 2:
            raise ValidationError("need at least 2 samples and 2 replications")
        check_seed(self.seed)


@dataclass(frozen=True)
class StrategyBias:
    strategy: str
    mean_a_hat: float
    se_a_hat: float
    mean_b_hat: float
    se_b_hat: float
    #: share of replications whose observed-left group was not larger than
    #: the observed-right group, i.e. the majority rule sends the missing
    #: block right; reported for the two routed strategies, None otherwise
    kappa_hat: float | None
    bound: float              # floor on E[a_hat] implied by kappa_hat
    n_skipped: int
    pred_mean: float | None = None      # fractional only: mean tree prediction
    response_mean: float | None = None  # fractional only: mean observed response


def theoretical_bound(sc: BiasScenario, strategy: Strategy, kappa_hat: float | None = None) -> float:
    """Closed-form floor on the expected left-leaf estimate.

    Majority and loss-guided routing admit a bound in terms of the
    empirical routing frequency kappa_hat; fractional weighting has a
    fixed floor; the third-child strategy never contaminates the left
    leaf, so its expected estimate is ``a`` itself. Anything above ``a``
    is bias dragging the left leaf toward ``b``.
    """
    span = sc.b - sc.a
    if strategy in (Strategy.MAJORITY, Strategy.MIA):
        if kappa_hat is None:
            raise ValidationError("bound for routed strategies needs kappa_hat")
        return sc.a + (1.0 - kappa_hat) * sc.p * sc.q / (1.0 - sc.p + sc.p * sc.q) * span
    if strategy is Strategy.FC:
        return sc.a + sc.p * sc.q * span
    if strategy is Strategy.TRINARY:
        return sc.a
    raise ValidationError(f"no bias bound defined for strategy {strategy.value!r}")


def simulate(sc: BiasScenario, strategy: Strategy) -> StrategyBias:
    """Run the replications for one strategy.

    Draws inside a replication always happen in the same order from a
    generator keyed on (seed, rep), so every strategy sees the exact
    same data. Replications where either observed group is empty are
    skipped and counted. Each other replication grows the strategy's
    depth-1 tree on its one 0/1 covariate, NaN where missing, so the known
    split is the only candidate; the estimates are the tree's left and
    right leaves, or its root leaf for both when every response is equal.
    """
    if strategy not in BIAS_STRATEGIES:
        raise ValidationError(f"strategy {strategy.value!r} is not part of the bias demo")
    cfg = TrainConfig(strategy, max_depth=1, min_samples=1)
    a_hats: list[float] = []
    b_hats: list[float] = []
    majority_right = 0  # reps where the majority rule sends the block right
    skipped = 0
    preds: list[float] = []
    y_means: list[float] = []
    for rep in range(sc.replications):
        rng = np.random.default_rng([sc.seed, rep])
        is_right = rng.random(sc.n_samples) < sc.p
        y = np.where(is_right, sc.b, sc.a) + rng.normal(0.0, sc.sigma, sc.n_samples)
        missing = rng.random(sc.n_samples) < sc.q

        group = np.where(missing, 2, is_right)  # observed-left 0, observed-right 1, missing 2
        n_lo, n_ro, _ = np.bincount(group, minlength=3).tolist()
        if n_lo == 0 or n_ro == 0:
            skipped += 1
            continue
        if n_lo <= n_ro:
            majority_right += 1

        # rows by group, in draw order within each: a leaf sums its rows in that order
        order = np.argsort(group, kind="stable")
        x = np.where(missing, np.nan, is_right)[order]
        ds = Dataset((FeatureColumn("x", NUMERIC, x),), ResponseColumn(REAL, y[order]))
        tree = train(ds, cfg)
        root = tree.root
        left, right = (root, root) if isinstance(root, Leaf) else (root.left, root.right)
        a_hats.append(float(left.value))
        b_hats.append(float(right.value))
        if strategy is Strategy.FC:
            preds.append(float(predict(tree, ds).mean()))
            y_means.append(float(y.mean()))

    used = len(a_hats)
    if used < 2:
        raise ValidationError("too few usable replications; loosen the scenario")
    a_arr = np.asarray(a_hats)
    b_arr = np.asarray(b_hats)
    kappa = majority_right / used if strategy in (Strategy.MAJORITY, Strategy.MIA) else None
    return StrategyBias(
        strategy=strategy.value,
        mean_a_hat=float(a_arr.mean()),
        se_a_hat=float(a_arr.std(ddof=1) / math.sqrt(used)),
        mean_b_hat=float(b_arr.mean()),
        se_b_hat=float(b_arr.std(ddof=1) / math.sqrt(used)),
        kappa_hat=kappa,
        bound=theoretical_bound(sc, strategy, kappa),
        n_skipped=skipped,
        pred_mean=float(np.mean(preds)) if preds else None,
        response_mean=float(np.mean(y_means)) if y_means else None,
    )


def run_bias(sc: BiasScenario, strategies: tuple[Strategy, ...] = BIAS_STRATEGIES) -> list[StrategyBias]:
    return [simulate(sc, s) for s in strategies]


def emit_bias_csv(results: list[StrategyBias], path: str) -> None:
    numbers = [[getattr(r, name) for r in results] for name in ("mean_a_hat", "se_a_hat", "kappa_hat", "bound")]
    write_columns(path, BIAS_CSV_HEADER, [[r.strategy for r in results]] +
                  [["" if v is None else repr(float(v)) for v in column] for column in numbers])
