#!/usr/bin/env python3
"""Checking the regret guarantees empirically.

Runs the synthetic verification suite (boxes and simplexes, static and
contracting dynamics, exact and noisy oracles) and confirms that every
measured quantity stays under its guarantee.  Then deliberately understates
the gradient bound to show the checks actually bite, and finishes with the
horizon-scaling study at the variation-tuned step size.
"""

import numpy as np

from domd.harness import bound_suite, variation_scaling_study, verify_bounds

SEEDS = 5

print("suite cases:")
for case in bound_suite():
    cfg = case.cfg
    oracle = f"noisy({cfg.oracle_noise})" if cfg.gradient_mode == "stochastic" else "exact"
    print(f"  {case.name:<32} n={cfg.agents:<3} T={cfg.horizon:<4} {oracle}")

report = verify_bounds(seeds=SEEDS)
print(f"\nhonest constants: {len(report.rows)} checks over {SEEDS} seeds, "
      f"{report.violations} violations")

tightest = min(report.rows, key=lambda r: r.slack)
print(f"tightest check: {tightest.case} / {tightest.check} "
      f"(empirical {tightest.empirical:.4g} vs bound {tightest.bound:.4g})")

# negative control: halving the declared Lipschitz constant must trip the
# disagreement check on the polarized-gradient case, where the agents'
# steady-state spread is within a factor two of the envelope
control = verify_bounds(seeds=SEEDS, l_scale=0.5)
print(f"\nhalved gradient bound: {control.violations} violations detected")
for row in control.rows:
    if not row.passed:
        print(f"  {row.case} seed={row.seed} {row.check}: "
              f"empirical {row.empirical:.4g} > bound {row.bound:.4g}")

study = variation_scaling_study()
print("\nvariation-tuned scaling study (constant drift, C_T proportional to T):")
print("  tuned step:", round(study.eta, 6), " sigma2:", round(study.sigma2, 4))
print("  T       regret    sqrt(C_T*T/(1-sigma2))   ratio")
for horizon, reg, denom, ratio in zip(study.horizons, study.regrets,
                                      study.denominators, study.ratios):
    print(f"  {horizon:<6}  {reg:>8.2f}  {denom:>22.2f}  {ratio:.4f}")
band = study.ratios.max() / study.ratios.min()
print(f"  ratio band across horizons: {band:.4f} (linear growth keeps this near 1)")
