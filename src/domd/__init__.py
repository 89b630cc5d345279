"""Decentralized online mirror descent over time-varying targets.

A network of agents runs mirror descent on local losses, averages with its
neighbors through a doubly stochastic matrix and propagates iterates through
known linear dynamics; the library measures the resulting dynamic regret and
evaluates the matching guarantees.
"""

from .config import (ConfigError, ExperimentConfig, config_hash, describe_schema,
                     load_config, parse_config)
from .dynamics import (LinearDynamics, generate_path, identity_dynamics,
                       ncv_disturbances, ncv_dynamics, ncv_noise_covariance,
                       residual_norms)
from .engine import RunTrace, init_state, run, step
from .geometry import box_domain, bregman, geometry_constants, prox, simplex_domain
from .harness import (RunResult, ScalingStudy, SweepResult, VerifyReport,
                      run_experiment, stochastic_mean_regret,
                      sweep, tracking_error_stats, variation_scaling_study,
                      verify_bounds)
from .metrics import (BoundReport, RegretReport, dynamic_regret,
                      network_disagreement, regret_guarantee, static_regret,
                      tuned_step)
from .network import (Graph, WeightMatrix, build_complete_graph, build_grid_graph,
                      build_path_graph, metropolis_weights, mix,
                      random_connected_graph, second_singular_value,
                      uniform_complete_weights)
from .objectives import (LossEnsemble, linear_ensemble, synthetic_suite,
                         tracking_ensemble)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
