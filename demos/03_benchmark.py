"""Cross-validated censoring benchmark on the bundled synthetic table.

The protocol per scenario: tune the tree depth once on complete data,
compute each strategy's full-data test loss L0 per fold, then censor at
each q and report the excess loss L_q / L0 - 1. Zero means "as good as
with complete data".

The bundled table has a tree-structured response in x1..x3 plus noisy
proxies z1..z3, so a strategy that can reroute missing rows through the
proxies (trinary's third child, mia's learned routing) has something to
work with.

Run: python3 demos/03_benchmark.py          (about 5 s on a 2-CPU machine)
"""
from nantree import ExperimentConfig, emit_csv, mean_excess_by_strategy, run_experiment
from nantree.datasets import tree_structured_data

ds = tree_structured_data(n_rows=1000)
Q_GRID = (0.0, 0.25, 0.5)
ORDER = ("majority", "mia", "fc", "trinary", "trinary_mia")

for scenario in ("mcar_test", "im"):
    cfg = ExperimentConfig(
        datasets=(("tree6", ds),),
        scenario=scenario,
        q_grid=Q_GRID,
        folds=5,
        depth_grid_max=5,
        min_samples=5,
        seed=0,
    )
    records = run_experiment(cfg)
    out = f"bench_{scenario}.csv"
    emit_csv(records, out)

    print(f"=== scenario {scenario} (excess loss, lower is better) ===")
    header = "q      " + "".join(f"{s:>13}" for s in ORDER)
    print(header)
    for q in Q_GRID:
        agg = mean_excess_by_strategy(records, q)
        print(f"{q:<7g}" + "".join(f"{agg[s]:>13.3f}" for s in ORDER))
    print(f"(per-fold records written to {out})")
    print()

print("""Reading the tables:
- at q=0 everything is exactly 0: no censoring, no excess.
- under mcar_test (clean training, censored test) mia has to behave
  exactly like majority and trinary_mia exactly like trinary: without
  training missingness the pairs fit identical trees.
- under mcar_test the trinary third child wins: it re-routes missing
  test rows through the proxy features instead of lumping them.
- under im (the largest values go missing, train and test) the
  missingness itself is a signal; mia and trinary_mia learn to exploit
  it and land far below the strategies that cannot.""")
