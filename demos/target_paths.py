#!/usr/bin/env python3
"""Target motion under the near-constant-velocity model.

The target state is (hpos, hvel, vpos, vvel); each position integrates its
velocity over a sampling interval eps, and a zero-mean disturbance with the
classic integrated-noise covariance perturbs every step.  The accumulated
disturbance norm is the path variation the regret guarantees are written
against.
"""

import numpy as np

from domd.dynamics import generate_path, ncv_disturbances, ncv_dynamics, residual_norms
from domd.geometry import box_domain

EPS = 0.1
HORIZON = 1000
X0 = np.array([0.0, 1.0, 0.0, 1.0])
BOX = box_domain(np.full(4, -10000.0), np.full(4, 10000.0))  # the default domain: l2 norms

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
    pos = path[-1, [0, 2]]
    c_t = residual_norms(path, dyn, BOX).sum()
    print(f"{sigma_v2:>8.2f}   ({pos[0]:>8.2f}, {pos[1]:>8.2f})   {c_t:>12.2f}")

# a path is its states array: ||path[t+1] - A path[t]|| gives back the
# size of every disturbance that built it
noise = ncv_disturbances(0.5, EPS, 11, HORIZON)
path = generate_path(dyn, noise, X0, HORIZON)
gap = np.max(np.abs(residual_norms(path, dyn, BOX) - np.linalg.norm(noise, axis=1)))
print("\nlargest gap between residual and disturbance norms:", gap)
