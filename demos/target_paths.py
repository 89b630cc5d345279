#!/usr/bin/env python3
"""Target motion under the near-constant-velocity model.

The target state is (hpos, hvel, vpos, vvel); each position integrates its
velocity over a sampling interval eps, and a zero-mean disturbance with the
classic integrated-noise covariance perturbs every step.  The accumulated
disturbance norm is the path variation the regret guarantees are written
against.
"""

import os
import tempfile

import numpy as np

from domd.dynamics import (generate_path, load_path_csv, ncv_disturbances,
                           ncv_dynamics, path_variation, save_path_csv,
                           verify_reconstruction)

EPS = 0.1
HORIZON = 1000
X0 = np.array([0.0, 1.0, 0.0, 1.0])

dyn = ncv_dynamics(EPS)
print("transition matrix:")
print(dyn.a)

print(f"\nhorizon {HORIZON}, start {X0}")
print("sigma_v2   final position      path variation C_T")
for sigma_v2 in (0.0, 0.25, 0.5, 1.0):
    if sigma_v2 == 0.0:
        noise = np.zeros((HORIZON, 4))
    else:
        noise = ncv_disturbances(sigma_v2, EPS, 11, HORIZON)
    path = generate_path(dyn, noise, X0, HORIZON)
    pos = path.states[-1, [0, 2]]
    c_t = path_variation(path, dyn)
    print(f"{sigma_v2:>8.2f}   ({pos[0]:>8.2f}, {pos[1]:>8.2f})   {c_t:>12.2f}")

# the stored path reconstructs exactly: states[t+1] = A states[t] + v[t]
path = generate_path(dyn, ncv_disturbances(0.5, EPS, 11, HORIZON), X0, HORIZON)
print("\nreconstruction residual:", verify_reconstruction(path, dyn))

with tempfile.TemporaryDirectory() as tmp:
    file = os.path.join(tmp, "path.csv")
    save_path_csv(path, file, comments=["sigma_v2=0.5", "seed=11"])
    loaded = load_path_csv(file)
    roundtrip = np.array_equal(loaded.states, path.states)
    print("csv roundtrip exact:", roundtrip)
