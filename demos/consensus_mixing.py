#!/usr/bin/env python3
"""
Network topologies and consensus mixing
=======================================

Builds a few graphs, derives Metropolis-Hastings mixing matrices, and shows
how the second singular value sigma2 governs the speed at which repeated
mixing pulls the agents' states together.
"""

import numpy as np

from domd.network import (build_complete_graph, build_grid_graph,
                          build_path_graph, metropolis_weights, mix,
                          second_singular_value, uniform_complete_weights)

ROUNDS = 30
SEED = 0

graphs = {
    "path n=5": metropolis_weights(build_path_graph(5)),
    "grid 3x3": metropolis_weights(build_grid_graph(3, 3)),
    "grid 5x5": metropolis_weights(build_grid_graph(5, 5)),
    "complete n=9": uniform_complete_weights(build_complete_graph(9).n),
}

print("topology          sigma2    gap")
for name, w in graphs.items():
    sigma2 = second_singular_value(w)
    print(f"{name:<16}  {sigma2:.4f}  {1.0 - sigma2:.4f}")

# start every agent at a random point and mix repeatedly; the spread decays
# like sigma2^k while the mean never moves
print(f"\ndisagreement after k mixing rounds (random starts, seed {SEED}):")
rng = np.random.default_rng(SEED)
header = "k".rjust(4) + "".join(name.rjust(16) for name in graphs)
print(header)
states = {name: rng.normal(size=(w.n, 1)) for name, w in graphs.items()}
means = {name: s.mean() for name, s in states.items()}
for k in range(ROUNDS + 1):
    if k % 5 == 0:
        row = f"{k:>4}"
        for name in graphs:
            spread = np.abs(states[name] - states[name].mean()).max()
            row += f"{spread:>16.3e}"
        print(row)
    for name, w in graphs.items():
        states[name] = mix(w, states[name])

for name in graphs:
    drift = abs(states[name].mean() - means[name])
    assert drift < 1e-12, "doubly stochastic mixing must preserve the mean"
print("\nmean preserved to 1e-12 on every topology")
