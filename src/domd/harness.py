"""Experiment assembly: single runs, parameter sweeps, bound verification.

This module turns an ExperimentConfig into concrete objects (graph, weight
matrix, geometry, dynamics, losses) and the disturbance and step-size
arrays, executes the engine, measures regret, evaluates the guarantees and
writes the CSV outputs.  Every random stream is derived from the master
seed plus a fixed stream label and the run index, so identical configs
produce byte-identical outputs.

Replicates of one configuration (sweep runs, suite seeds) go through the
engine together, in batches whose iterate traces hold at most
BATCH_TRACE_BYTES; each replicate's results are bit-identical to running
it alone.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from . import csvio
from .config import SCHEMA, ConfigError, ExperimentConfig, config_hash, cross_validate
from .dynamics import (generate_path, identity_dynamics, linear_dynamics,
                       ncv_disturbances, ncv_dynamics, path_variation)
from .engine import run, run_replicates
from .geometry import (box_domain, contains, euclidean_geometry, free_domain,
                       geometry_constants, kl_geometry, simplex_domain,
                       vector_norm)
from .metrics import (dynamic_regret, network_disagreement, per_agent_loss_gap,
                      regret_guarantee, static_regret, tuned_step,
                      write_bound_csv, write_regret_csv)
from .network import (build_complete_graph, build_grid_graph, build_path_graph,
                      metropolis_weights, random_connected_graph,
                      second_singular_value, uniform_complete_weights)
from .objectives import (centers_outside_domain, linear_ensemble, synthetic_suite,
                         tracking_ensemble)

SLACK_TOL = 1e-9

# Replicates run through the engine together until their iterate traces
# would pass this size; a large-n sweep then never holds many traces at once.
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
    return random_connected_graph(cfg.nodes, cfg.edge_prob,
                                  _derive_seed(cfg.seed, _GRAPH))


def build_weights(cfg, graph):
    if cfg.weights == "uniform":
        return uniform_complete_weights(graph.n)
    return metropolis_weights(graph)


def build_domain(cfg):
    if cfg.domain_kind == "box":
        return box_domain(np.full(cfg.dim, cfg.box_low), np.full(cfg.dim, cfg.box_high))
    if cfg.domain_kind == "simplex":
        return simplex_domain(cfg.dim, cfg.floor)
    return free_domain(cfg.dim)


def build_geometry(cfg, domain):
    return kl_geometry(domain) if cfg.geometry_kind == "kl" else euclidean_geometry(domain)


def build_dynamics(cfg):
    if cfg.dynamics_model == "ncv":
        return ncv_dynamics(cfg.eps)
    if cfg.dynamics_model == "scaled_identity":
        return linear_dynamics(cfg.dynamics_scale * np.eye(cfg.dim))
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
    """The step sizes eta_1 .. eta_{T+1}, a (horizon + 1,) array.

    cfg is an ExperimentConfig or a SuiteCase (anything with schedule_kind,
    eta0 and horizon); sigma2 and c_t are read only by variation_tuned.
    """
    if cfg.schedule_kind == "inv_sqrt":
        return cfg.eta0 / np.sqrt(np.arange(1, cfg.horizon + 2))
    eta = cfg.eta0
    if cfg.schedule_kind == "variation_tuned":
        eta = tuned_step(c_t, sigma2, cfg.horizon, fallback_eta=cfg.eta0)
    return np.full(cfg.horizon + 1, eta)


@dataclass(frozen=True)
class RunResult:
    """One executed experiment with its measurements and guarantees."""

    config: object
    trace: object
    path: object
    regret: object
    bounds: object
    sigma2: float
    lipschitz: float


def _replicate_batches(items, horizon, n, d):
    """Consecutive slices of items whose (horizon+1, n, d) traces fit BATCH_TRACE_BYTES."""
    size = max(1, BATCH_TRACE_BYTES // ((horizon + 1) * n * d * 8))
    return [items[k:k + size] for k in range(0, len(items), size)]


def _run_batch(weights, geom, dyn, replicates, horizon, mode, x0=None):
    """Traces of one batch of (ens, path, etas, seed) replicates."""
    if len(replicates) == 1:
        # a lone replicate goes through engine.run, the call that profilers
        # and perfbench/tracer.py observe as one run
        ens, path, etas, seed = replicates[0]
        return [run(weights, geom, dyn, ens, path, etas, horizon, mode, seed, x0)]
    return run_replicates(weights, geom, dyn, replicates, horizon, mode, x0)


def run_experiments(cfg, run_indices, x0=None):
    """Assemble and execute the runs `run_indices` of one config; yields RunResults.

    Network, geometry and dynamics are built once; each run index gets its
    own target path, losses, step sizes and oracle seed, exactly as a
    run of it alone would.  Runs go through the engine in batches (see
    BATCH_TRACE_BYTES) and results are yielded in order, so a consumer that
    keeps only what it needs holds at most one batch of traces.
    """
    run_indices = list(run_indices)
    for run_index in run_indices:
        if run_index < 0:
            raise ValueError(f"run index must be non-negative, got {run_index}")
    graph = build_graph(cfg)
    weights = build_weights(cfg, graph)
    sigma2 = second_singular_value(weights)
    domain = build_domain(cfg)
    geom = build_geometry(cfg, domain)
    dyn = build_dynamics(cfg)
    if cfg.target_init:
        target0 = np.asarray(cfg.target_init, dtype=float)
    elif domain.kind == "simplex":
        target0 = np.full(cfg.dim, 1.0 / cfg.dim)
    else:
        target0 = np.zeros(cfg.dim)
    if domain.kind != "free" and not contains(domain, target0):
        raise ConfigError("noise.target_init lies outside the domain")
    consts = geometry_constants(geom)
    for batch in _replicate_batches(run_indices, cfg.horizon, weights.n, cfg.dim):
        replicates, variations = [], []
        for run_index in batch:
            path = generate_path(dyn, build_noise(cfg, run_index), target0, cfg.horizon)
            ens = build_ensemble(cfg, domain, run_index)
            if centers_outside_domain(ens, path, domain):
                raise ConfigError("synthetic centers leave the domain; shrink offsets or noise")
            c_t = path_variation(path, dyn, geom.norm_kind)
            etas = build_schedule(cfg, sigma2, c_t)
            replicates.append((ens, path, etas, _derive_seed(cfg.seed, _ORACLE, run_index)))
            variations.append(c_t)
        traces = _run_batch(weights, geom, dyn, replicates, cfg.horizon, cfg.gradient_mode, x0)
        for (ens, path, _, _), c_t, trace in zip(replicates, variations, traces):
            regret = replace(dynamic_regret(trace, ens, path), path_variation=c_t)
            bounds = None
            lipschitz = float("nan")
            if consts.available:
                regret = replace(regret, static_regret=static_regret(trace, ens, path, domain))
                lipschitz = ens.lipschitz
                g2 = ens.second_moment if cfg.gradient_mode == "stochastic" else None
                bounds = regret_guarantee(consts, lipschitz, sigma2, trace.etas,
                                          vector_norm(geom.norm_kind, path.noise),
                                          weights.n, grad_second_moment=g2)
            yield RunResult(cfg, trace, path, regret, bounds, sigma2, lipschitz)


def run_experiment(cfg, run_index=0, out_dir=None, x0=None):
    """Assemble and execute one run; optionally write the CSV outputs."""
    result = next(run_experiments(cfg, [run_index], x0))
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
                    [[t + 1, dis[t]] for t in range(dis.size)], comments)
    d, n = trace.d, trace.n
    header = (["t"] + [f"target{k + 1}" for k in range(d)]
              + [f"agent{i + 1}_{k + 1}" for i in range(n) for k in range(d)])
    steps = trace.horizon + 1
    table = np.concatenate([path.states[:steps], trace.x.reshape(steps, -1)], axis=1)
    rows = [[t + 1] + row for t, row in enumerate(table.tolist())]
    csvio.write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows, comments)
    if result.bounds is not None:
        write_bound_csv(result.bounds, os.path.join(out_dir, "bounds.csv"), comments)


def exact_run_violations(result):
    """Names of guarantees an exact-gradient run violated by more than SLACK_TOL."""
    if result.bounds is None or result.config.gradient_mode != "exact":
        return ()
    out = []
    if result.regret.dynamic_regret > result.bounds.total + SLACK_TOL:
        out.append("regret_total")
    dis = network_disagreement(result.trace)[1:]
    if np.any(dis > result.bounds.disagreement_curve + SLACK_TOL):
        out.append("disagreement")
    return tuple(out)


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
    like a config file value, cross-field rules included, before any run.
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
        configs.append(cross_validate(replace(cfg, **{attr: value})))
    horizon = cfg.horizon
    mean_curves, std_curves = [], []
    for cfg_v in configs:
        curves = np.empty((runs, horizon))
        for r, result in enumerate(run_experiments(cfg_v, range(runs))):
            curves[r] = result.regret.normalized
        mean_curves.append(curves.mean(axis=0))
        std_curves.append(curves.std(axis=0))
    mean_curves = np.array(mean_curves)
    std_curves = np.array(std_curves)
    result = SweepResult(param, tuple(values), runs, mean_curves, std_curves,
                         mean_curves[:, -1].copy(), std_curves[:, -1].copy())
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        comments = [f"config_hash={config_hash(cfg)}", f"param={param}", f"runs={runs}"]
        rows = [[v, t + 1, mean_curves[k, t], std_curves[k, t]]
                for k, v in enumerate(result.values) for t in range(horizon)]
        csvio.write_csv(os.path.join(out_dir, "sweep.csv"),
                        ["value", "t", "mean_normalized", "std_normalized"], rows, comments)
    return result


# ---------------------------------------------------------------------------
# bound-verification suite


@dataclass(frozen=True)
class SuiteCase:
    """One synthetic configuration exercised by verify_bounds."""

    name: str
    family: str
    n: int
    horizon: int
    a_scale: float = 1.0
    schedule_kind: str = "constant"
    eta0: float = 0.1
    oracle_noise: float = 0.0
    topology: str = "grid"


def bound_suite():
    """Deterministic mix of geometries, dynamics, sizes and horizons.

    The polarized linear case drives gradient norms to the declared
    Lipschitz constant, which keeps the disagreement envelope within a
    factor two of what the network actually does; understating the constant
    must therefore trip the checks (the negative control).
    """
    return (
        SuiteCase("box_quad_static_n4_t100", "quadratic_box", 4, 100),
        SuiteCase("box_quad_static_n9_t300", "quadratic_box", 9, 300,
                  schedule_kind="inv_sqrt", eta0=0.2),
        SuiteCase("box_quad_contract_n4_t100", "quadratic_box", 4, 100, a_scale=0.9),
        SuiteCase("box_quad_contract_n9_t300", "quadratic_box", 9, 300, a_scale=0.9),
        SuiteCase("box_quad_complete_n4_t100", "quadratic_box", 4, 100,
                  topology="complete"),
        SuiteCase("simplex_quad_n4_t100", "quadratic_simplex", 4, 100),
        SuiteCase("simplex_quad_n9_t300", "quadratic_simplex", 9, 300),
        SuiteCase("box_linear_polarized_n3_t120", "linear_polarized", 3, 120,
                  eta0=0.15, topology="path"),
        SuiteCase("box_quad_noisy_n4_t100", "quadratic_box", 4, 100, oracle_noise=0.5),
        SuiteCase("simplex_quad_noisy_n4_t100", "quadratic_simplex", 4, 100,
                  oracle_noise=0.2),
    )


def _suite_case(name):
    for case in bound_suite():
        if case.name == name:
            return case
    raise ValueError(f"unknown suite case {name!r}")


def _grid_for(n):
    side = int(round(np.sqrt(n)))
    if side * side != n:
        raise ValueError("suite grids need a square agent count")
    return build_grid_graph(side, side)


def _simplex_loop_path(dyn, horizon):
    # deterministic closed curve on the simplex: zero-sum harmonic motion
    u1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    u2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    rho, omega = 0.15, 2.0 * np.pi / 50.0
    t = np.arange(horizon + 1)
    states = (np.full((horizon + 1, 3), 1.0 / 3.0)
              + rho * (np.cos(omega * t)[:, None] * u1 + np.sin(omega * t)[:, None] * u2))
    noise = states[1:] - states[:-1]
    return generate_path(dyn, noise, states[0], horizon)


def _build_case(case, seed):
    idx = [c.name for c in bound_suite()].index(case.name)
    if case.family == "quadratic_box":
        domain = box_domain(np.full(2, -5.0), np.full(2, 5.0))
        geom = euclidean_geometry(domain)
        dyn = linear_dynamics(case.a_scale * np.eye(2))
        rng = np.random.default_rng(_derive_seed(seed, _PATH, idx))
        noise = rng.normal(0.0, 0.05, (case.horizon, 2))
        path = generate_path(dyn, noise, np.array([0.5, -0.5]), case.horizon)
        ens = synthetic_suite(_derive_seed(seed, _ENSEMBLE, idx), case.n, 2,
                              case.horizon, domain, offset_scale=0.2,
                              noise_scale=case.oracle_noise)
    elif case.family == "quadratic_simplex":
        domain = simplex_domain(3, 0.01)
        geom = kl_geometry(domain)
        dyn = identity_dynamics(3)
        path = _simplex_loop_path(dyn, case.horizon)
        ens = synthetic_suite(_derive_seed(seed, _ENSEMBLE, idx), case.n, 3,
                              case.horizon, domain, offset_scale=0.02,
                              noise_scale=case.oracle_noise)
    else:  # linear_polarized
        domain = box_domain(np.full(2, -2.0), np.full(2, 2.0))
        geom = euclidean_geometry(domain)
        dyn = identity_dynamics(2)
        path = generate_path(dyn, np.zeros((case.horizon, 2)), np.zeros(2), case.horizon)
        pull = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        ens = linear_ensemble(np.tile(pull, (case.horizon, 1, 1)), domain)
    if case.topology == "complete":
        weights = uniform_complete_weights(case.n)
    elif case.topology == "path":
        weights = metropolis_weights(build_path_graph(case.n))
    else:
        weights = metropolis_weights(_grid_for(case.n))
    if centers_outside_domain(ens, path, domain):
        raise RuntimeError(f"suite case {case.name} places centers outside the domain")
    return weights, geom, dyn, ens, path, build_schedule(case, None, None)


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


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple
    seeds: int
    violations: int
    passed: bool


def _case_report(consts, sigma2, geom, weights, ens, trace, path, l_scale):
    g2 = l_scale * l_scale * ens.second_moment
    return regret_guarantee(consts, l_scale * ens.lipschitz, sigma2, trace.etas,
                            vector_norm(geom.norm_kind, path.noise), weights.n,
                            grad_second_moment=g2)


def _case_runs(case, seeds, stream):
    """(ens, path, trace) of one suite case for each seed, plus the case-level objects.

    Weights, geometry and dynamics depend only on the case, so sigma2 and
    the geometry constants are computed once and the seeds run through the
    engine together.  Returns (weights, geom, sigma2, consts, runs); the
    oracle seed of seed s is _derive_seed(s, _ORACLE, stream).
    """
    built = [_build_case(case, s) for s in seeds]
    weights, geom, dyn = built[0][:3]
    mode = "stochastic" if case.oracle_noise > 0 else "exact"
    replicates = [(ens, path, etas, _derive_seed(s, _ORACLE, stream))
                  for s, (_, _, _, ens, path, etas) in zip(seeds, built)]
    traces = []
    for batch in _replicate_batches(replicates, case.horizon, weights.n, geom.domain.d):
        traces += _run_batch(weights, geom, dyn, batch, case.horizon, mode)
    runs = [(ens, path, trace) for (ens, path, _, _), trace in zip(replicates, traces)]
    return (weights, geom, second_singular_value(weights),
            geometry_constants(geom), runs)


def verify_bounds(seeds=20, out_dir=None, l_scale=1.0):
    """Run the synthetic suite and check every guarantee.

    Exact-gradient runs are checked per seed: empirical dynamic regret
    against the guarantee total, the disagreement curve against its
    envelope pointwise, the per-agent loss gap against its bound, and
    nonnegativity of regret.  Noisy-oracle cases are averaged across seeds
    and checked against the expected-regret variant.  l_scale deliberately
    rescales the declared Lipschitz constant; 1.0 verifies, 0.5 is the
    negative control that must produce detected violations.  A check passes
    when its slack is at least -SLACK_TOL.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    rows = []
    for case in bound_suite():
        stochastic = case.oracle_noise > 0
        mode = "stochastic" if stochastic else "exact"
        regrets = []
        report = None
        weights, geom, sigma2, consts, runs = _case_runs(case, range(seeds), 0)
        for s, (ens, path, trace) in enumerate(runs):
            report = _case_report(consts, sigma2, geom, weights, ens, trace, path, l_scale)
            regret = dynamic_regret(trace, ens, path).dynamic_regret
            if stochastic:
                regrets.append(regret)
                continue
            dis = network_disagreement(trace)[1:]
            gaps = report.disagreement_curve - dis
            worst = int(np.argmin(gaps))
            rows.append(CheckRow(case.name, s, mode, "disagreement",
                                 float(dis[worst]), float(report.disagreement_curve[worst]),
                                 float(gaps[worst]), bool(gaps[worst] >= -SLACK_TOL)))
            rows.append(CheckRow(case.name, s, mode, "regret_total", regret,
                                 report.total, report.total - regret,
                                 bool(report.total - regret >= -SLACK_TOL)))
            local = per_agent_loss_gap(trace, ens, path)
            rows.append(CheckRow(case.name, s, mode, "local_gap", local,
                                 report.local_gap_rhs, report.local_gap_rhs - local,
                                 bool(report.local_gap_rhs - local >= -SLACK_TOL)))
            rows.append(CheckRow(case.name, s, mode, "regret_nonneg", regret, 0.0,
                                 regret, bool(regret >= -SLACK_TOL)))
        if stochastic:
            mean_regret = float(np.mean(regrets))
            slack = report.stochastic_total - mean_regret
            rows.append(CheckRow(case.name, -1, mode, "mean_regret", mean_regret,
                                 report.stochastic_total, slack, bool(slack >= -SLACK_TOL)))
    violations = sum(1 for r in rows if not r.passed)
    result = VerifyReport(tuple(rows), seeds, violations, violations == 0)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        comments = [f"seeds={seeds}", f"l_scale={csvio.fmt(l_scale)}",
                    f"violations={violations}"]
        csvio.write_csv(
            os.path.join(out_dir, "verify.csv"),
            ["case", "seed", "mode", "check", "empirical", "bound", "slack", "passed"],
            [[r.case, r.seed, r.mode, r.check, r.empirical, r.bound, r.slack, r.passed]
             for r in rows],
            comments,
        )
    return result


def stochastic_mean_regret(case_name, runs, base_seed=0):
    """Average dynamic regret over noisy-oracle replicates of one suite case.

    Returns (mean regret, expected-regret guarantee).
    """
    case = _suite_case(case_name)
    if case.oracle_noise <= 0:
        raise ValueError("case has a noiseless oracle; nothing stochastic to average")
    if runs < 1:
        raise ValueError("need at least one run")
    weights, geom, sigma2, consts, done = _case_runs(
        case, range(base_seed, base_seed + runs), 1)
    regrets = np.array([dynamic_regret(trace, ens, path).dynamic_regret
                        for ens, path, trace in done])
    ens, path, trace = done[-1]
    report = _case_report(consts, sigma2, geom, weights, ens, trace, path, 1.0)
    return float(regrets.mean()), float(report.stochastic_total)


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
