import math

import numpy as np
import pytest

from nantree import (
    BiasScenario,
    Leaf,
    Strategy,
    StrategyBias,
    ValidationError,
    run_bias,
    simulate,
    theoretical_bound,
    train,
)
from nantree import bias as bias_module
from nantree.bias import BIAS_CSV_HEADER, BIAS_STRATEGIES, emit_bias_csv

DEFAULT = BiasScenario()


def test_scenario_validation():
    BiasScenario(q=0.0)  # no missingness is a legal degenerate case
    with pytest.raises(ValidationError):
        BiasScenario(p=0.0)
    with pytest.raises(ValidationError):
        BiasScenario(p=1.0)
    with pytest.raises(ValidationError):
        BiasScenario(q=1.0)
    with pytest.raises(ValidationError):
        BiasScenario(q=-0.1)
    with pytest.raises(ValidationError):
        BiasScenario(sigma=-1.0)
    with pytest.raises(ValidationError):
        BiasScenario(replications=1)
    for field, value in (("n_samples", 20.5), ("replications", 3.5), ("n_samples", "20"), ("replications", None),
                         ("n_samples", True)):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            BiasScenario(**{field: value})
    assert BiasScenario(n_samples=np.int64(20), replications=np.int32(3)).n_samples == 20


def test_bound_values_at_defaults():
    # a=0, b=1, p=0.5, q=0.3: the fractional floor is p*q = 0.15 and the
    # routed floor at kappa=0.5 is 0.5 * 0.15 / 0.65
    assert theoretical_bound(DEFAULT, Strategy.FC) == pytest.approx(0.15)
    routed = theoretical_bound(DEFAULT, Strategy.MAJORITY, kappa_hat=0.5)
    assert routed == pytest.approx(0.5 * 0.15 / 0.65)
    assert routed == pytest.approx(0.11538461538461539)
    assert theoretical_bound(DEFAULT, Strategy.MIA, kappa_hat=0.5) == routed
    # always-right routing ends contamination: the floor collapses to a
    assert theoretical_bound(DEFAULT, Strategy.MAJORITY, kappa_hat=1.0) == DEFAULT.a
    assert theoretical_bound(DEFAULT, Strategy.TRINARY) == DEFAULT.a


def test_bound_requires_kappa_for_routed_strategies():
    with pytest.raises(ValidationError):
        theoretical_bound(DEFAULT, Strategy.MAJORITY)
    with pytest.raises(ValidationError):
        theoretical_bound(DEFAULT, Strategy.TRINARY_MIA)


def test_simulate_rejects_non_demo_strategy():
    with pytest.raises(ValidationError):
        simulate(DEFAULT, Strategy.TRINARY_MIA)


SMALL = BiasScenario(n_samples=120, replications=300, seed=5)


def test_q_zero_is_unbiased_for_every_strategy():
    sc = BiasScenario(q=0.0, n_samples=200, replications=300, seed=3)
    for strategy in BIAS_STRATEGIES:
        r = simulate(sc, strategy)
        assert abs(r.mean_a_hat - sc.a) < 4 * r.se_a_hat
        assert abs(r.mean_b_hat - sc.b) < 4 * r.se_b_hat
        assert r.n_skipped == 0


def test_routed_and_fractional_strategies_pull_a_hat_up():
    for strategy in (Strategy.MAJORITY, Strategy.MIA, Strategy.FC):
        r = simulate(SMALL, strategy)
        # clear positive bias: far above a in SE units
        assert r.mean_a_hat > SMALL.a + 10 * r.se_a_hat, strategy
        # and the contaminated left leaf stays below the right level
        assert r.mean_a_hat < SMALL.b


def test_trinary_left_leaf_stays_unbiased():
    r = simulate(SMALL, Strategy.TRINARY)
    assert abs(r.mean_a_hat - SMALL.a) < 3 * r.se_a_hat
    assert r.kappa_hat is None
    assert r.bound == SMALL.a


def test_b_hat_is_dragged_down_not_up():
    # contamination is symmetric: the right leaf absorbs a-level rows
    for strategy in (Strategy.MAJORITY, Strategy.MIA, Strategy.FC):
        r = simulate(SMALL, strategy)
        assert r.mean_b_hat < SMALL.b - 3 * r.se_b_hat


def test_fc_prediction_mean_matches_response_mean():
    r = simulate(SMALL, Strategy.FC)
    # fractional mixing redistributes the missing rows but conserves the
    # weighted total, so the mean prediction equals the sample mean
    assert r.pred_mean == pytest.approx(r.response_mean, abs=1e-12)
    other = simulate(SMALL, Strategy.MAJORITY)
    assert other.pred_mean is None and other.response_mean is None


def test_kappa_is_shared_by_both_routed_strategies():
    rm = simulate(SMALL, Strategy.MAJORITY)
    ri = simulate(SMALL, Strategy.MIA)
    # the count event is strategy-independent, and both see the same draws
    assert rm.kappa_hat == ri.kappa_hat
    assert 0.0 < rm.kappa_hat < 1.0
    rf = simulate(SMALL, Strategy.FC)
    assert rf.kappa_hat is None


def test_simulate_is_deterministic():
    a = simulate(SMALL, Strategy.MIA)
    b = simulate(SMALL, Strategy.MIA)
    assert a == b
    c = simulate(BiasScenario(n_samples=120, replications=300, seed=6), Strategy.MIA)
    assert c.mean_a_hat != a.mean_a_hat


def test_strategies_see_identical_draws():
    # majority and trinary agree on a_hat whenever majority routes right
    sc = BiasScenario(n_samples=50, replications=40, seed=9)
    rm = simulate(sc, Strategy.MAJORITY)
    rt = simulate(sc, Strategy.TRINARY)
    # with p=0.5 and these draws both routes occur, so the means differ,
    # but every skip decision matches
    assert rm.n_skipped == rt.n_skipped


def test_empty_group_replications_are_skipped():
    # p tiny: the observed-right group is regularly empty
    sc = BiasScenario(p=0.02, q=0.3, n_samples=10, replications=200, seed=2)
    r = simulate(sc, Strategy.TRINARY)
    assert r.n_skipped > 0


def test_run_bias_covers_all_strategies_in_order():
    rs = run_bias(SMALL)
    assert [r.strategy for r in rs] == [s.value for s in BIAS_STRATEGIES]


def test_emit_bias_csv(tmp_path):
    rs = run_bias(SMALL)
    path = tmp_path / "bias.csv"
    emit_bias_csv(rs, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(BIAS_CSV_HEADER)
    assert len(lines) == 1 + len(rs)
    rows = [line.split(",") for line in lines[1:]]
    by_strategy = {row[0]: row for row in rows}
    # kappa stays empty for the strategies that do not route
    assert by_strategy["fc"][3] == ""
    assert by_strategy["trinary"][3] == ""
    assert float(by_strategy["majority"][3]) == pytest.approx(
        simulate(SMALL, Strategy.MAJORITY).kappa_hat
    )
    # numeric fields round-trip through repr
    assert float(by_strategy["trinary"][4]) == SMALL.a


def test_emit_bias_csv_bytes(tmp_path):
    results = [StrategyBias('a,"b"\r\nc', 0.25, 0.01, 0.9, 0.02, 0.5, 0.125, 0),
               StrategyBias("fc", 0.1, 1e-05, 1.0, 0.0, None, 0.15, 3)]
    path = tmp_path / "bias.csv"
    emit_bias_csv(results, str(path))
    assert path.read_bytes() == (
        b"strategy,mean_a_hat,se,kappa_hat,bound\r\n"
        b'"a,""b""\r\nc",0.25,0.01,0.5,0.125\r\n'
        b"fc,0.1,1e-05,,0.15\r\n"
    )


@pytest.mark.parametrize("field, value", [
    ("a", math.nan), ("a", -math.inf), ("b", math.inf), ("b", math.nan),
    ("sigma", math.nan), ("sigma", math.inf),
])
def test_scenario_rejects_non_finite_values(field, value):
    with pytest.raises(ValidationError, match=f"{field if field == 'sigma' else 'a and b'} must be finite"):
        BiasScenario(**{field: value})


# emit_bias_csv rows recorded from the hand-written leaf estimates that the
# depth-1 trees replaced: the majority, mia and trinary rows are the same
# bytes, and fc's weighted-mean leaf may move its last digits (its mean_a_hat
# and bound are compared to 1e-12)
_RECORDED = [
    (BiasScenario(q=0.4, n_samples=60, replications=150, seed=7), [
        b"majority,0.13398753330313554,0.011400859928220918,0.5066666666666667,0.14095238095238097",
        b"mia,0.11739328803452058,0.010846903783707656,0.5066666666666667,0.14095238095238097",
        b"fc,0.20353604819728652,0.004643177318183031,,0.2",
        b"trinary,0.00043862737633176846,0.0018703252325354372,,0.0",
    ]),
    (BiasScenario(sigma=0.0, n_samples=40, replications=150, seed=2), [
        b"majority,0.08967441287204864,0.0096657079533658,0.5933333333333334,0.09384615384615383",
        b"mia,0.08309148010480795,0.008183961863611703,0.5933333333333334,0.09384615384615383",
        b"fc,0.15333333333333332,0.004913494786974506,,0.15",
        b"trinary,0.0,0.0,,0.0",
    ]),
]


@pytest.mark.parametrize("sc, recorded", _RECORDED, ids=["sigma-0.1", "sigma-0"])
def test_tree_leaves_reproduce_the_recorded_estimates(tmp_path, sc, recorded):
    path = tmp_path / "bias.csv"
    emit_bias_csv(run_bias(sc), str(path))
    rows = path.read_bytes().split(b"\r\n")[1:-1]
    assert [rows[0], rows[1], rows[3]] == [recorded[0], recorded[1], recorded[3]]
    fc, want = rows[2].split(b","), recorded[2].split(b",")
    assert fc[0] == b"fc"
    for col in (1, 4):  # mean_a_hat, bound
        assert float(fc[col]) == pytest.approx(float(want[col]), rel=1e-12, abs=0.0)


def test_mia_sends_an_exact_tie_by_majority():
    # in replication 103 both observed groups hold 7 rows and, at sigma 0,
    # the two routes of the 16 missing rows cost exactly the same; the tree
    # sends them right, by majority (the hand-written estimate priced the
    # left route an ulp lower and read 0.12364423635297912 here)
    sc = BiasScenario(p=0.6, q=0.5, sigma=0.0, n_samples=30, replications=120, seed=11)
    assert simulate(sc, Strategy.MIA).mean_a_hat == 0.12074568562834145
    assert simulate(sc, Strategy.MAJORITY).mean_a_hat == 0.07402782396079498


def test_equal_responses_keep_the_root_a_leaf(monkeypatch):
    sc = BiasScenario(a=0.5, b=0.5, sigma=0.0, n_samples=40, replications=30, seed=3)
    roots = []

    def spy(ds, cfg):
        tree = train(ds, cfg)
        roots.append(tree.root)
        return tree

    monkeypatch.setattr(bias_module, "train", spy)
    for strategy in BIAS_STRATEGIES:
        r = simulate(sc, strategy)
        assert r.mean_a_hat == r.mean_b_hat == sc.a, strategy
    assert roots and all(isinstance(root, Leaf) for root in roots)
