#!/usr/bin/env python3
"""
Mirror geometries and their prox steps
======================================

The same gradient step looks very different under different geometries.
The domain is the geometry: prox, bregman and geometry_constants take the
domain itself.  On a box (the euclidean generator) the prox step is
clamp(y - eta*g).  On the probability simplex (the entropic generator) it
becomes a multiplicative (exponentiated gradient) update followed by a
floor projection that keeps every coordinate at least `floor`.
"""

import numpy as np

from domd.geometry import (box_domain, bregman, geometry_constants, prox,
                           prox_inequality_gap, sample_domain, simplex_domain)

ETA = 0.5
SEED = 3

box = box_domain([-1.0, -1.0], [1.0, 1.0])
y = np.array([0.8, -0.2])
g = np.array([-1.5, 0.5])
print("euclidean box, y =", y, "g =", g)
print("  raw step y - eta*g =", y - ETA * g)
print("  prox =", prox(box, g, y, ETA), " (first coordinate clamped)")

simplex = simplex_domain(3, floor=0.01)
y = np.array([0.2, 0.3, 0.5])
g = np.array([2.0, 0.0, -1.0])
x = prox(simplex, g, y, ETA)
print("\nentropic simplex, y =", y, "g =", g)
print("  prox =", np.round(x, 6), " sum =", x.sum())

# huge gradients are safe: the exponent is shifted by its max, and the
# floor projection keeps the output strictly positive
wild = prox(simplex, np.array([1e5, 0.0, 1e5]), y, ETA)
print("  prox with 1e5 gradients =", np.round(wild, 6))

# both geometries certify first-order optimality of the prox output:
# eta*<x*-ref, g> <= D(ref,y) - D(ref,x*) - D(x*,y) for any feasible ref
rng = np.random.default_rng(SEED)
for name, domain in (("euclidean", box), ("entropic", simplex)):
    anchor = sample_domain(domain, rng)
    grad = rng.normal(size=domain.d)
    worst = max(
        prox_inequality_gap(domain, grad, anchor, ETA, sample_domain(domain, rng))
        for _ in range(200)
    )
    print(f"\n{name}: worst optimality-certificate slack over 200 refs = {worst:.2e}")

consts = geometry_constants(simplex)
print("\nsimplex divergence constants: R^2 = log(1/floor) =", round(consts.r2, 6),
      " K = d*log(1/floor) =", round(consts.k, 6))
print("sampled divergence vs R^2:",
      round(bregman(simplex, sample_domain(simplex, rng),
                    sample_domain(simplex, rng)), 6), "<=", round(consts.r2, 6))
