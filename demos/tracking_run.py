#!/usr/bin/env python3
"""
Distributed tracking of a moving target
=======================================

25 agents on a 5x5 grid each observe one noisy coordinate of a target that
moves under near-constant-velocity dynamics.  Every round an agent queries
its innovation-style gradient, averages its iterate with its grid
neighbors, takes a prox step, and pushes the result through the known
dynamics.  No single agent can localize the target alone; the network as a
whole can.

This reproduces the library's default experiment at full scale and prints
what the CSV outputs contain.  Writes into ./out_tracking.
"""

import numpy as np

from domd.config import parse_config
from domd.harness import run_experiment, tracking_error_stats

OUT = "out_tracking"

cfg = parse_config("")  # tracking defaults: T=1000, sigma_v2=0.5, eta=0.5
result = run_experiment(cfg, out_dir=OUT)

print("rounds:", result.trace.horizon, " agents:", result.trace.n,
      " state dim:", result.trace.d)
print("mixing sigma2:", round(result.sigma2, 6))
print("dynamic regret:", round(result.regret.dynamic_regret, 3))
print("final normalized regret:", round(float(result.regret.normalized[-1]), 5))
print("target path variation C_T (l2, the box's norm):",
      round(result.regret.path_variation, 2))

errs = tracking_error_stats(result.trace, result.path, tail=100)
# the NCV state is (x, vx, y, vy): the position is coordinates 0 and 2
position = result.path[:, [0, 2]]
length = float(np.linalg.norm(np.diff(position, axis=0), axis=1).sum())
print("\nper-agent mean tracking error over the final 100 rounds:")
print("  best  agent:", round(float(errs.min()), 4))
print("  worst agent:", round(float(errs.max()), 4))
print("  target path length:", round(length, 1),
      f" (worst error = {100 * errs.max() / length:.2f}% of it)")

# normalized regret decays once the agents lock on
marks = [1, 10, 100, 500, 1000]
print("\nnormalized regret at selected rounds:")
for t in marks:
    print(f"  t={t:>5}: {result.regret.normalized[t - 1]:.4f}")

print("\nexpected-regret guarantee (stochastic oracle):",
      f"{result.bounds.stochastic_total:.4g}")
print("outputs written to", OUT,
      "(regret.csv, disagreement.csv, trajectory.csv, bounds.csv)")
