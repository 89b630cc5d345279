"""Experiment assembly: single runs, parameter sweeps, bound verification.

This module turns an ExperimentConfig into concrete objects (graph, weight
matrix, geometry, dynamics, losses) and the disturbance and step-size
arrays, measures regret and writes the CSV outputs.  The weight matrix is
always the graph's Metropolis matrix and the domain picks the geometry
(euclidean on a box, KL on a simplex).  Every domain is bounded, so every
run has its static regret and its regret guarantee and writes bounds.csv.
Every random stream is derived from the master seed plus a fixed stream
label and the run index, so identical configs produce byte-identical
outputs.  A verify-bounds suite case is a name plus an ExperimentConfig;
only its target path (and the polarized case's gradients) is the suite's
own.

Every run, of a config (run, sweep, the scaling study) or of a suite case
(verify_bounds, stochastic_mean_regret), goes through one executor,
_execute.  Its keys carry their own config, and consecutive keys whose
configs build equal engine inputs share a setup and engine loops.  It
builds each batch's inputs just before the batch runs, rolling all its
target paths in one call, runs batches that hold at most
BATCH_TRACE_BYTES, evaluates a batch's bound recursions in one pass, and
yields each run as a finished RunResult; each replicate's results equal
running it alone.  A sweep keeps no iterates: its regrets read the losses
the engine folds.
"""

import itertools
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
from operator import attrgetter

import numpy as np

from . import csvio
from .config import SCHEMA, ConfigError, ExperimentConfig, config_hash, cross_validate
from .dynamics import (LinearDynamics, MinimizerPath, generate_path, identity_dynamics,
                       ncv_disturbances, ncv_dynamics, residual_norms)
from .engine import run
from .geometry import (box_domain, contains, euclidean_geometry, geometry_constants,
                       kl_geometry, simplex_domain)
from .metrics import (_guarantee_steps, dynamic_regret, network_disagreement,
                      per_agent_loss_gap, regret_guarantee, static_regret,
                      tuned_step, write_bound_csv, write_regret_csv)
from .network import (build_complete_graph, build_grid_graph, build_path_graph,
                      metropolis_weights, random_connected_graph,
                      second_singular_value)
from .objectives import (centers_outside_domain, linear_ensemble, stack_shape,
                         synthetic_suite, tracking_ensemble)

SLACK_TOL = 1e-9

# Replicates run through the engine together until what they hold (their
# iterate traces, or without those their paths, steps and losses) would pass
# this size; a large-n sweep then never holds many traces at once.
BATCH_TRACE_BYTES = 2 ** 24

# stream labels mixed into derived seeds
_PATH, _ORACLE, _ENSEMBLE, _GRAPH = 1, 2, 3, 4


def _derive_seed(*parts):
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint32)[0])


def build_graph(cfg):
    if cfg.graph == "grid":
        return build_grid_graph(cfg.rows, cfg.cols)
    if cfg.graph == "path":
        return build_path_graph(cfg.nodes)
    if cfg.graph == "complete":
        return build_complete_graph(cfg.nodes)
    try:
        return random_connected_graph(cfg.nodes, cfg.edge_prob, _derive_seed(cfg.seed, _GRAPH))
    except RuntimeError as exc:
        raise ConfigError(f"network.nodes={cfg.nodes}, network.edge_prob={cfg.edge_prob}: "
                          f"{exc}") from None


def build_weights(cfg, graph):
    """The mixing matrix: Metropolis weights of graph (cfg is not read)."""
    return metropolis_weights(graph)


def build_domain(cfg):
    if cfg.domain_kind == "box":
        return box_domain(np.full(cfg.dim, cfg.box_low), np.full(cfg.dim, cfg.box_high))
    return simplex_domain(cfg.dim, cfg.floor)


def build_geometry(cfg, domain):
    """KL on a simplex, euclidean on a box (cfg is not read)."""
    return kl_geometry(domain) if domain.kind == "simplex" else euclidean_geometry(domain)


def build_dynamics(cfg):
    if cfg.dynamics_model == "ncv":
        return ncv_dynamics(cfg.eps)
    if cfg.dynamics_model == "scaled_identity":
        return LinearDynamics(cfg.dynamics_scale * np.eye(cfg.dim))
    return identity_dynamics(cfg.dim)


def build_noise(cfg, run_index):
    """The target disturbances v_1 .. v_T of one run, a (horizon, dim) array."""
    if cfg.noise_kind == "zero":
        return np.zeros((cfg.horizon, cfg.dim))
    if cfg.noise_kind == "constant_drift":
        return np.tile(np.asarray(cfg.drift, dtype=float), (cfg.horizon, 1))
    path_index = 0 if cfg.fixed_path else run_index
    return ncv_disturbances(cfg.sigma_v2, cfg.eps,
                            _derive_seed(cfg.seed, _PATH, path_index), cfg.horizon)


def build_ensemble(cfg, domain, run_index):
    if cfg.loss_kind == "tracking_square":
        return tracking_ensemble(cfg.agents, domain, cfg.obs_noise_low, cfg.obs_noise_high,
                                 innovation=cfg.innovation_gradient)
    return synthetic_suite(_derive_seed(cfg.seed, _ENSEMBLE, run_index), cfg.agents, cfg.dim,
                           cfg.horizon, domain, kind=cfg.loss_kind,
                           offset_scale=cfg.offset_scale, noise_scale=cfg.oracle_noise)


def build_schedule(cfg, sigma2, c_t):
    """The step sizes eta_1 .. eta_{T+1}, a (horizon + 1,) array; sigma2 and
    c_t are read only by variation_tuned."""
    if cfg.schedule_kind == "inv_sqrt":
        return cfg.eta0 / np.sqrt(np.arange(1, cfg.horizon + 2))
    eta = cfg.eta0
    if cfg.schedule_kind == "variation_tuned":
        eta = tuned_step(c_t, sigma2, cfg.horizon, fallback_eta=cfg.eta0)
    return np.full(cfg.horizon + 1, eta)


@dataclass(frozen=True)
class RunResult:
    """One executed experiment with its measurements and guarantees; ensemble
    is the LossEnsemble the run and its bounds used."""

    config: object
    trace: object
    path: object
    regret: object
    bounds: object
    sigma2: float
    ensemble: object


def _assemble(cfg):
    """(weights, geom, dyn) of a config, which no seed or run index changes."""
    return (build_weights(cfg, build_graph(cfg)), build_geometry(cfg, build_domain(cfg)),
            build_dynamics(cfg))


def _replicate_bytes(cfg, keep_iterates):
    """Bytes a replicate of cfg holds in a batch: its (T+1, n, d) trace, or
    without it its path (and the engine's stacked states), steps, losses,
    residual norms, the two rows of its bound recursion (and their input),
    its row of the engine's block buffer and any per-round offsets or
    gradients (stacked too)."""
    horizon, n, d = cfg.horizon, cfg.agents, cfg.dim
    if keep_iterates:
        return (horizon + 1) * n * d * 8
    per_round = 0 if cfg.loss_kind == "tracking_square" else 2 * n * d
    return 8 * ((3 * horizon + 1) * d + 7 * horizon + 5 + n * d + horizon * per_round)


def _replicate_batches(items, replicate_bytes):
    """Consecutive slices of items whose replicates fit BATCH_TRACE_BYTES."""
    size = max(1, BATCH_TRACE_BYTES // replicate_bytes)
    return [items[k:k + size] for k in range(0, len(items), size)]


def _same(a, b):
    """Equality of built objects: arrays bit for bit, dataclasses by their compared fields."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if is_dataclass(a):
        a, b = ([getattr(o, f.name) for f in fields(o) if f.compare] for o in (a, b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _by_config(keys):
    """(cfg, items) of each run of consecutive (cfg, item) keys with one config."""
    for cfg, run_keys in itertools.groupby(keys, key=lambda key: key[0]):
        yield cfg, [item for _, item in run_keys]


def _setup_runs(keys):
    """((weights, geom, dyn, sigma2), keys) of each run of consecutive keys
    whose configs build _same weights, geometry and dynamics, with one oracle
    mode and horizon; the run uses its first config's objects."""
    group = []
    for cfg, items in _by_config(keys):
        built = _assemble(cfg) + (cfg.gradient_mode, cfg.horizon)
        if group and not _same(built, shared):
            yield shared[:3] + (second_singular_value(shared[0]),), group
            group = []
        if not group:
            shared = built
        group += [(cfg, item) for item in items]
    if group:
        yield shared[:3] + (second_singular_value(shared[0]),), group


def _replicates(keys, drafts_of, geom, dyn, sigma2):
    """(cfg, ens, path, etas, seed, norms) of each (cfg, item) key, every
    target path rolled in one generate_path call.

    drafts_of(cfg, items, domain) gives each item's (target0, noise, ens,
    seed).  The keys' configs share their domain and noise.target_init, so
    every path starts at one target0.  norms are the path's residual_norms,
    whose sum C_T the schedule, the regret and the bounds all read.
    """
    drafts = [(cfg,) + draft for cfg, items in _by_config(keys)
              for draft in drafts_of(cfg, items, geom.domain)]
    cfgs, targets, noises, ensembles, seeds = zip(*drafts)
    assert all(np.array_equal(target0, targets[0]) for target0 in targets), \
        "replicates rolled together must share their start target"
    inputs = _replicate_inputs(dyn, geom.domain, targets[0], noises, ensembles)
    out = []
    for cfg, (ens, path), seed in zip(cfgs, inputs, seeds):
        norms = residual_norms(path, dyn, geom.norm_kind)
        out.append((cfg, ens, path, build_schedule(cfg, sigma2, float(norms.sum())), seed, norms))
    return out


def _engine_batches(keys, drafts_of, keep_iterates):
    """(setup, replicates) of each engine call, in key order: a setup run's
    keys in batches that fit BATCH_TRACE_BYTES, each batch's replicates
    built by _replicates just before it runs, its paths in one roll, and
    split where their stack_shape changes."""
    for setup, group in _setup_runs(keys):
        for batch in _replicate_batches(group, _replicate_bytes(group[0][0], keep_iterates)):
            replicates = _replicates(batch, drafts_of, *setup[1:])
            for _, part in itertools.groupby(replicates, key=lambda rep: stack_shape(rep[1])):
                yield setup, list(part)
            del replicates, part  # before the next batch is built


def _execute(keys, drafts_of, x0=None, keep_iterates=True):
    """Run one replicate per (cfg, item) key; yields each key's RunResult in order.

    drafts_of is as for _replicates.  Each batch of _engine_batches is one
    engine.run call; keep_iterates=False keeps no iterates (trace.x is
    None).  A result's trace is its replicate's trace[r]; its regret
    carries the dynamic and static regret, read from the losses the engine
    folded, and C_T; its bounds are the regret_guarantee of the ensemble's
    declared constants (G^2 only in stochastic mode), whose recursions run
    once for the whole batch; C_T and the bounds read the replicate's
    residual_norms.
    """
    for (weights, geom, dyn, sigma2), batch in _engine_batches(keys, drafts_of, keep_iterates):
        cfg, consts = batch[0][0], geometry_constants(geom)
        traces = run(weights, geom, dyn, [rep[1:5] for rep in batch], cfg.horizon,
                     cfg.gradient_mode, x0, keep_iterates)
        steps = _guarantee_steps(sigma2, traces.etas, [float(rep[5].sum()) for rep in batch],
                                 cfg.horizon)
        for r, (cfg, ens, path, _, _, norms) in enumerate(batch):
            trace = traces[r]
            regret = replace(dynamic_regret(trace, ens, path, trace.losses),
                             static_regret=static_regret(trace, ens, path, geom.domain,
                                                         trace.losses),
                             path_variation=float(norms.sum()))
            bounds = regret_guarantee(consts, ens.lipschitz, sigma2, trace.etas, norms,
                                      weights.n, grad_second_moment=ens.second_moment
                                      if cfg.gradient_mode == "stochastic" else None,
                                      steps=steps[r])
            yield RunResult(cfg, trace, path, regret, bounds, sigma2, ens)
        del batch, traces, steps, trace, ens, path, norms  # before the next batch is built and run


def _start_target(cfg, domain):
    """The target's initial state: noise.target_init if set, else the simplex's
    uniform point or the origin.  Raises ConfigError when it lies outside the domain.
    """
    if cfg.target_init:
        target0 = np.asarray(cfg.target_init, dtype=float)
    elif domain.kind == "simplex":
        target0 = np.full(cfg.dim, 1.0 / cfg.dim)
    else:
        target0 = np.zeros(cfg.dim)
    if not contains(domain, target0):
        raise ConfigError("noise.target_init lies outside the domain")
    return target0


def _replicate_inputs(dyn, domain, target0, noises, ensembles):
    """(ens, path) of each replicate: its (horizon, d) disturbances in noises
    rolled from target0, all in one generate_path call, each path
    bit-identical to rolling it alone.  Raises ConfigError when a synthetic
    centre leaves the domain.
    """
    rolled = generate_path(dyn, noises, target0, len(noises[0]))
    out = []
    for ens, states in zip(ensembles, rolled.states):
        path = MinimizerPath(states)
        if centers_outside_domain(ens, path, domain):
            raise ConfigError("synthetic centers leave the domain; shrink offsets or noise")
        out.append((ens, path))
    return out


def _config_drafts(cfg, run_indices, domain):
    """(target0, noise, ens, seed) of each of a config's runs run_indices:
    a replicate up to its rolled path (see _replicates)."""
    target0 = _start_target(cfg, domain)
    return [(target0, build_noise(cfg, i), build_ensemble(cfg, domain, i),
             _derive_seed(cfg.seed, _ORACLE, i)) for i in run_indices]


def run_experiments(cfg, run_indices, x0=None):
    """Execute the runs `run_indices` of one config; returns a generator of RunResults.

    Each run index gets its own target path, losses, step sizes and oracle
    seed, exactly as a run of it alone would.  The run indices and the
    start target are checked on the call; the runs then go through
    _execute and keep their iterates, so a consumer that drops each result
    before asking for the next holds at most one batch of traces (see
    BATCH_TRACE_BYTES).
    """
    run_indices = list(run_indices)
    for run_index in run_indices:
        if run_index < 0:
            raise ValueError(f"run index must be non-negative, got {run_index}")
    _start_target(cfg, build_domain(cfg))
    return _execute([(cfg, i) for i in run_indices], _config_drafts, x0)


def run_experiment(cfg, run_index=0, out_dir=None):
    """Assemble and execute one run; optionally write the CSV outputs."""
    result = next(run_experiments(cfg, [run_index]))
    if out_dir is not None:
        _write_run_outputs(result, out_dir)
    return result


def _write_run_outputs(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    trace, path = result.trace, result.path
    comments = [f"config_hash={config_hash(result.config)}", f"seed={result.config.seed}"]
    write_regret_csv(result.regret, os.path.join(out_dir, "regret.csv"), comments)
    dis = network_disagreement(trace)
    csvio.write_csv(os.path.join(out_dir, "disagreement.csv"), ["t", "disagreement"],
                    np.column_stack([np.arange(1, dis.size + 1), dis]), comments)
    d, n = trace.d, trace.n
    header = (["t"] + [f"target{k + 1}" for k in range(d)]
              + [f"agent{i + 1}_{k + 1}" for i in range(n) for k in range(d)])
    steps = trace.horizon + 1
    table = np.concatenate([np.arange(1.0, steps + 1)[:, None], path.states[:steps],
                            trace.x.reshape(steps, -1)], axis=1)
    csvio.write_csv(os.path.join(out_dir, "trajectory.csv"), header, table, comments)
    write_bound_csv(result.bounds, os.path.join(out_dir, "bounds.csv"), comments)


@dataclass(frozen=True)
class CheckRow:
    case: str
    seed: int
    mode: str
    check: str
    empirical: float
    bound: float
    slack: float
    passed: bool


def _upper_check(empirical, bound):
    """(empirical, bound, slack, passed) of an upper-bound check on scalars or
    curves, where the slack bound - empirical is least; passes at slack >= -SLACK_TOL."""
    empirical, bound = np.atleast_1d(empirical, bound)
    k = int(np.argmin(bound - empirical))
    slack = float(bound[k] - empirical[k])
    return float(empirical[k]), float(bound[k]), slack, slack >= -SLACK_TOL


def check_rows(result, case, seed):
    """CheckRows of a run against the paper's guarantees, in verify.csv order:
    the disagreement curve against its envelope pointwise, the dynamic regret
    against the total, the per-agent loss gap against its bound.  A stochastic
    run has none: its bound is on the expected regret, which one draw may
    exceed.  Regret >= 0 is no guarantee (linear losses need not be least at the target)."""
    if result.config.gradient_mode != "exact":
        return ()
    trace, bounds = result.trace, result.bounds
    checks = (("disagreement", network_disagreement(trace)[1:], bounds.disagreement_curve),
              ("regret_total", result.regret.dynamic_regret, bounds.total),
              ("local_gap", per_agent_loss_gap(trace, result.ensemble, result.path),
               bounds.local_gap_rhs))
    return tuple(CheckRow(case, seed, "exact", check, *_upper_check(empirical, bound))
                 for check, empirical, bound in checks)


def exact_run_violations(result):
    """Names of the check_rows a run failed (none for a stochastic run)."""
    return tuple(r.check for r in check_rows(result, "run", result.config.seed) if not r.passed)


def tracking_error_stats(trace, path, tail=100):
    """Per-agent mean distance to the target over the final `tail` >= 1 rounds."""
    if tail < 1:
        raise ValueError(f"tail must be at least 1, got {tail}")
    tail = min(tail, trace.horizon)
    err = trace.x[-tail - 1:-1] - path.states[-tail - 1:-1, None, :]
    return np.linalg.norm(err, axis=2).mean(axis=0)


def target_position_path_length(path, position_dims=(0, 2)):
    """Length of the target's position trajectory (NCV layout by default)."""
    pos = path.states[:, list(position_dims)]
    return float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())


@dataclass(frozen=True)
class SweepResult:
    """Averaged normalized-regret curves for each swept value."""

    param: str
    values: tuple
    runs: int
    mean_curves: np.ndarray
    std_curves: np.ndarray
    final_mean: np.ndarray
    final_std: np.ndarray


def _resolve_param(param):
    if "." in param:
        section, key = param.split(".", 1)
        if section in SCHEMA and key in SCHEMA[section]:
            spec = SCHEMA[section][key]
            if spec[1] in (int, float):
                return spec
        raise ConfigError(f"unknown or non-numeric sweep parameter {param!r}")
    hits = [spec for keys in SCHEMA.values() for k, spec in keys.items() if k == param]
    hits = [s for s in hits if s[1] in (int, float)]
    if len(hits) != 1:
        raise ConfigError(f"unknown or ambiguous sweep parameter {param!r}")
    return hits[0]


def sweep(cfg, param, values, runs=None, out_dir=None):
    """Replicated runs for each value of one numeric config key.

    Per-run seeds derive from (master seed, run index), so they are pairwise
    distinct and the whole sweep is reproducible.  Unless noise.fixed_path
    is set, each replicate redraws the target path.  Every value is checked
    like a config file value, cross-field rules and the start target's
    place in the domain included, before any run; an Erdos-Renyi value's
    graph is sampled, and for synthetic quadratic losses every replicate's
    centres are checked too.  A float key's values show as the floats that
    ran, an int key's as passed, so an int above 2**53 stays exact.
    """
    attr, typ, check, _ = _resolve_param(param)
    if attr in ("horizon", "runs"):  # the only keys a sweep cannot vary
        raise ConfigError(f"cannot sweep experiment.{attr}: the averaged curves share "
                          "one horizon, and the runs argument sets the replicates")
    runs = cfg.runs if runs is None else runs
    if runs < 1:
        raise ConfigError("sweep needs at least one run per value")
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = []
    for value in values:
        if typ is int and not float(value).is_integer():
            raise ConfigError(f"sweep value {value!r} is not an integer for {param}")
        value = typ(value)
        if check is not None and not check(value):
            raise ConfigError(f"sweep value {value!r} out of range for {param}")
        cfg_v = cross_validate(replace(cfg, **{attr: value}))
        domain = build_domain(cfg_v)
        target0 = _start_target(cfg_v, domain)
        if cfg_v.graph == "erdos_renyi":
            build_graph(cfg_v)  # raises ConfigError when no connected graph is drawn
        if cfg_v.loss_kind == "synthetic_quadratic":
            # the centres come from each replicate's drawn losses: build them
            # now, check them and let them go, so no value runs before all pass
            dyn = build_dynamics(cfg_v)
            for batch in _replicate_batches(range(runs), _replicate_bytes(cfg_v, False)):
                _, noises, ensembles, _ = zip(*_config_drafts(cfg_v, batch, domain))
                _replicate_inputs(dyn, domain, target0, noises, ensembles)
        configs.append(cfg_v)
    horizon = cfg.horizon
    # every value's runs through one executor, which keeps no iterates: values
    # that build the same engine inputs share its loops
    keys = [(cfg_v, i) for cfg_v in configs for i in range(runs)]
    # map binds no result past its curve: a result's path views its whole batch's paths
    curves = map(attrgetter("regret.normalized"), _execute(keys, _config_drafts,
                                                           keep_iterates=False))
    curves = np.array(list(curves)).reshape(len(configs), runs, horizon)
    mean_curves = np.array([np.mean(c, axis=0) for c in curves])
    std_curves = np.array([np.std(c, axis=0) for c in curves])
    shown = tuple(values) if typ is int else tuple(map(float, values))
    result = SweepResult(param, shown, runs, mean_curves, std_curves,
                         mean_curves[:, -1].copy(), std_curves[:, -1].copy())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        comments = [f"config_hash={config_hash(cfg)}", f"param={param}", f"runs={runs}"]
        table = np.column_stack([np.tile(np.arange(1.0, horizon + 1), len(configs)),
                                 mean_curves.ravel(), std_curves.ravel()])
        labels = [cell for v in result.values for cell in [csvio.fmt(v)] * horizon]
        csvio.write_csv(os.path.join(out_dir, "sweep.csv"),
                        ["value", "t", "mean_normalized", "std_normalized"], table, comments,
                        labels=labels)
    return result


# ---------------------------------------------------------------------------
# bound-verification suite


@dataclass(frozen=True)
class SuiteCase:
    """One verify_bounds configuration; _case_drafts adds what cfg cannot say."""

    name: str
    cfg: ExperimentConfig


def _case(name, base, **changes):
    return SuiteCase(name, cross_validate(replace(base, **changes)))


# the settings the box and the simplex cases share
_BOX = ExperimentConfig(
    horizon=100, gradient_mode="exact", rows=2, cols=2, dim=2, box_low=-5.0, box_high=5.0,
    dynamics_model="identity", noise_kind="zero", target_init=(0.5, -0.5), eta0=0.1,
    loss_kind="synthetic_quadratic", offset_scale=0.2)
_SIMPLEX = replace(_BOX, domain_kind="simplex", dim=3, floor=0.01, target_init=(),
                   offset_scale=0.02)
_SUITE = (
    _case("box_quad_static_n4_t100", _BOX),
    _case("box_quad_static_n9_t300", _BOX, horizon=300, rows=3, cols=3,
          schedule_kind="inv_sqrt", eta0=0.2),
    _case("box_quad_contract_n4_t100", _BOX, dynamics_model="scaled_identity",
          dynamics_scale=0.9),
    _case("box_quad_contract_n9_t300", _BOX, horizon=300, rows=3, cols=3,
          dynamics_model="scaled_identity", dynamics_scale=0.9),
    _case("box_quad_complete_n4_t100", _BOX, graph="complete", nodes=4),
    _case("simplex_quad_n4_t100", _SIMPLEX),
    _case("simplex_quad_n9_t300", _SIMPLEX, horizon=300, rows=3, cols=3),
    _case("box_linear_polarized_n3_t120", _BOX, horizon=120, graph="path", nodes=3,
          box_low=-2.0, box_high=2.0, target_init=(0.0, 0.0), eta0=0.15,
          loss_kind="synthetic_linear"),
    _case("box_quad_noisy_n4_t100", _BOX, gradient_mode="stochastic", oracle_noise=0.5),
    _case("simplex_quad_noisy_n4_t100", _SIMPLEX, gradient_mode="stochastic",
          oracle_noise=0.2),
)


def bound_suite():
    """Deterministic mix of geometries, dynamics, sizes and horizons.

    The polarized linear case drives gradient norms to the declared
    Lipschitz constant, which keeps the disagreement envelope within a
    factor two of what the network actually does; understating the constant
    must therefore trip the checks (the negative control).
    """
    return _SUITE


def _suite_case(name):
    for case in _SUITE:
        if case.name == name:
            return case
    raise ValueError(f"unknown suite case {name!r}")


def _simplex_loop(horizon):
    """(start, disturbances) of a deterministic closed curve on the simplex:
    zero-sum harmonic motion."""
    u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    rho, omega = 0.15, 2.0 * np.pi / 50.0
    t = np.arange(horizon + 1)
    states = (np.full((horizon + 1, 3), 1.0 / 3.0)
              + rho * (np.cos(omega * t)[:, None] * u1 + np.sin(omega * t)[:, None] * u2))
    return states[0], states[1:] - states[:-1]


def _case_drafts(case, stream, l_scale, cfg, seeds, domain):
    """(target0, noise, ens, seed) of a suite case at each of seeds (see
    _replicates); the case index is the run index.

    cfg is case.cfg, which every key of the case carries.  Seed s draws its
    oracle noise from _derive_seed(s, _ORACLE, stream).  l_scale scales
    each ensemble's declared L (and G^2 by l_scale^2), which moves the
    bounds and not the runs.  The step sizes are cfg's own schedule: no
    suite case tunes its step to the network.
    """
    idx = _SUITE.index(case)
    if cfg.domain_kind == "simplex":
        target0, loop = _simplex_loop(cfg.horizon)
        noises = [loop] * len(seeds)
    else:
        target0 = _start_target(cfg, domain)
        if cfg.loss_kind == "synthetic_quadratic":  # a N(0, 0.05^2) random walk on the box
            noises = [np.random.default_rng(_derive_seed(s, _PATH, idx))
                      .normal(0.0, 0.05, (cfg.horizon, cfg.dim)) for s in seeds]
        else:  # the polarized case's target rests: the config's own zero-noise path
            noises = [build_noise(cfg, idx)] * len(seeds)
    if cfg.loss_kind == "synthetic_linear":  # polarized: the outer agents pull apart
        pull = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        ensembles = [linear_ensemble(np.tile(pull, (cfg.horizon, 1, 1)), domain)] * len(seeds)
    else:
        ensembles = [build_ensemble(replace(cfg, seed=s), domain, idx) for s in seeds]
    return [(target0, noise, replace(ens, lipschitz=l_scale * ens.lipschitz,
                                     second_moment=l_scale * l_scale * ens.second_moment),
             _derive_seed(s, _ORACLE, stream)) for s, noise, ens in zip(seeds, noises, ensembles)]


def _build_case(case, seed):
    """(weights, geom, dyn, ens, path, etas) of a suite case at one seed."""
    weights, geom, dyn = _assemble(case.cfg)
    [(_, ens, path, etas, _, _)] = _replicates([(case.cfg, seed)],
                                               partial(_case_drafts, case, 0, 1.0), geom, dyn, None)
    return weights, geom, dyn, ens, path, etas


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple
    seeds: int
    violations: int
    passed: bool


def _case_runs(case, seeds, stream, l_scale=1.0):
    """RunResults of one suite case at each of seeds, through _execute (see _case_drafts)."""
    return _execute([(case.cfg, s) for s in seeds], partial(_case_drafts, case, stream, l_scale))


def _mean_regret(results):
    """(mean dynamic regret, the last run's expected-regret guarantee) of noisy runs."""
    regrets, bounds = zip(*((r.regret.dynamic_regret, r.bounds.stochastic_total)
                            for r in results))
    return float(np.mean(regrets)), float(bounds[-1])


def verify_bounds(seeds=20, out_dir=None, l_scale=1.0):
    """Run the synthetic suite and check every guarantee; a check passes when
    its slack is at least -SLACK_TOL.

    Each exact-gradient run gets its check_rows, then a check that its regret
    is nonnegative, which the suite's cases satisfy and a general run need
    not.  Noisy-oracle cases are averaged across seeds and checked against
    the expected-regret variant.  l_scale rescales the declared Lipschitz
    constant: 1.0 verifies, 0.5 is the negative control that must produce
    violations.  It must be positive and finite: at zero or below every
    bound turns negative, and the violations test nothing.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    if not (np.isfinite(l_scale) and l_scale > 0):
        raise ValueError(f"l_scale must be positive and finite, got {l_scale}")
    rows = []
    for case in bound_suite():
        results = _case_runs(case, range(seeds), 0, l_scale)
        if case.cfg.gradient_mode == "stochastic":
            rows.append(CheckRow(case.name, -1, "stochastic", "mean_regret",
                                 *_upper_check(*_mean_regret(results))))
            continue
        for s, result in enumerate(results):
            rows += check_rows(result, case.name, s)
            regret = result.regret.dynamic_regret
            rows.append(CheckRow(case.name, s, "exact", "regret_nonneg", regret, 0.0,
                                 regret, bool(regret >= -SLACK_TOL)))
    violations = sum(1 for r in rows if not r.passed)
    result = VerifyReport(tuple(rows), seeds, violations, violations == 0)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        comments = [f"seeds={seeds}", f"l_scale={csvio.fmt(l_scale)}", f"violations={violations}"]
        header = [f.name for f in fields(CheckRow)]
        csvio.write_csv(os.path.join(out_dir, "verify.csv"), header,
                        [[getattr(r, name) for name in header] for r in rows], comments)
    return result


def stochastic_mean_regret(case_name, runs, base_seed=0):
    """Average dynamic regret over noisy-oracle replicates of one suite case.

    Returns (mean regret, expected-regret guarantee).
    """
    case = _suite_case(case_name)
    if case.cfg.gradient_mode != "stochastic":
        raise ValueError("case has a noiseless oracle; nothing stochastic to average")
    if runs < 1:
        raise ValueError("need at least one run")
    if base_seed < 0:
        raise ValueError(f"base_seed must be non-negative, got {base_seed}")
    return _mean_regret(_case_runs(case, range(base_seed, base_seed + runs), 1))


@dataclass(frozen=True)
class ScalingStudy:
    """Regret growth against the variation-tuned step across horizons."""

    horizons: tuple
    regrets: np.ndarray
    denominators: np.ndarray
    ratios: np.ndarray
    eta: float
    sigma2: float


def variation_scaling_study(horizons=(250, 500, 1000, 2000), drift_size=0.01, seed=0):
    """Drifting-target study: the target moves a fixed amount per round, so
    the accumulated variation grows linearly with the horizon and the tuned
    step is the same constant for every horizon.  Agents start on the
    target, isolating the steady tracking cost.  Horizon h is run index h.
    """
    if drift_size == 0:
        raise ValueError("the scaling study needs a moving target (nonzero drift_size)")
    base = ExperimentConfig(
        seed=seed, gradient_mode="exact", rows=2, cols=2, dim=2, box_low=-12.0,
        box_high=12.0, dynamics_model="identity", noise_kind="constant_drift",
        drift=(drift_size, 0.0), target_init=(-10.0, 0.0),
        schedule_kind="variation_tuned", loss_kind="synthetic_quadratic")
    regrets, denominators = [], []
    eta = sigma2 = float("nan")
    for h in horizons:
        result = next(run_experiments(replace(base, horizon=h), [h], x0=base.target_init))
        eta, sigma2 = float(result.trace.etas[0]), result.sigma2
        regrets.append(result.regret.dynamic_regret)
        c_t = result.regret.path_variation
        denominators.append(float(np.sqrt(c_t * h / (1.0 - sigma2))))
    regrets, denominators = np.array(regrets), np.array(denominators)
    return ScalingStudy(tuple(horizons), regrets, denominators, regrets / denominators,
                        eta, sigma2)
