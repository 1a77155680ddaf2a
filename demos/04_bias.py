"""Why lumping missing rows into a leaf biases its estimate.

The cleanest possible setting: one known split. Samples sit at level a
(left) or level b (right) plus noise; the covariate that tells them apart
goes missing at rate q. Each replication grows one strategy's depth-1
tree on that covariate, whose only candidate split is the known one, and
records its left leaf's estimate of a. Averaging over replications
measures the bias; closed-form floors say how much contamination the
routed and fractional treatments must carry at minimum.

Run: python3 demos/04_bias.py
"""
from dataclasses import replace

from nantree import BiasScenario, run_bias

sc = BiasScenario()  # a=0, b=1, p=0.5, q=0.3, sigma=0.1, N=200, R=2000
print(f"scenario: a={sc.a} b={sc.b} p={sc.p} q={sc.q} sigma={sc.sigma} "
      f"N={sc.n_samples} R={sc.replications}\n")

print(f"{'strategy':<12} {'mean_a_hat':>11} {'se':>9} {'kappa_hat':>10} {'floor':>8}")
for r in run_bias(sc):
    kappa = f"{r.kappa_hat:.4f}" if r.kappa_hat is not None else "-"
    print(f"{r.strategy:<12} {r.mean_a_hat:>11.5f} {r.se_a_hat:>9.5f} {kappa:>10} {r.bound:>8.5f}")

print("""
- majority/mia: missing rows join one side wholesale. Whenever that side
  is the left one, b-level rows contaminate the a estimate. The floor
  uses kappa_hat, the observed share of replications routing right.
- fc: every replication leaks a fixed fraction of the missing block into
  the left leaf; the floor is a + p*q*(b-a) = 0.15 exactly.
- trinary: missing rows get their own leaf; the left estimate only ever
  sees observed-left rows and stays centered on a.
""")

print("bias as q grows (mean left-leaf estimate; a = 0):")
print(f"{'q':<6} {'majority':>10} {'fc':>10} {'trinary':>10}")
for q in (0.0, 0.15, 0.3, 0.45, 0.6):
    row = {r.strategy: r.mean_a_hat for r in run_bias(replace(sc, q=q, replications=500))}
    print(f"{q:<6g} {row['majority']:>10.4f} {row['fc']:>10.4f} {row['trinary']:>10.4f}")

print("\nthe routed and fractional estimates drift toward b with q; the"
      "\nthird-child estimate does not move.")
