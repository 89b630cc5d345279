"""Experiment assembly: single runs, parameter sweeps, bound verification.

This module turns an ExperimentConfig into concrete objects (graph, weight
matrix, domain, dynamics, losses) and the disturbance and step-size
arrays, measures regret and writes the CSV outputs.  The weight matrix is
always the graph's Metropolis matrix, and the domain is the geometry
(euclidean on a box, KL on a simplex): the engine runs
run(weights, domain, dyn, ...).  Every domain is bounded, so every
RunResult has its regret guarantee, and a run writes bounds.csv.
Every random stream is derived from the master seed plus a fixed stream
label and the run index, so identical configs produce byte-identical
outputs.  A verify-bounds suite case is a name plus an ExperimentConfig;
only its target path (and the polarized case's gradients) is the suite's
own.

Every run, of a config (run, sweep, the scaling study) or of a suite case
(verify_bounds, stochastic_mean_regret), goes through one engine runner,
_engine_runs, over the setups of its keys.  _setup_runs alone builds them
(graph, W, domain, dynamics, start target, sigma2), every key's on the call,
refusing a config's own facts (start target, graph, domain) before any engine
loop; _replicates refuses drawn facts (a path that is not finite, synthetic
centres outside the domain, a C_T past the float range for a variation-tuned
step) as it builds their batch, the one rule of every command.  _setup_runs
decides what shares a setup and engine loops: every key whose config builds
equal weights, domain, oracle mode, horizon and start target, wherever it
sits in the keys.  Their dynamics may differ, each replicate carrying its
own.  The runner builds each batch's inputs just before the batch runs,
rolling the target paths of each dynamics in one call (a path is its (T+1,
d) states array), and runs batches that hold at most BATCH_TRACE_BYTES; each
replicate's trace equals running it alone.  Each replicate carries its key's
index k, by which callers place results.  _execute measures each run on top
of it, a batch's bound recursions in one pass, and yields (k, RunResult)
(the static regret and variation-tuned value only for run_experiments, whose
files write them).  A sweep reads only each run's normalized dynamic regret,
straight from the runner: it keeps no iterates and takes no guarantee.
"""

import itertools
import os
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import csvio
from .config import SCHEMA, ConfigError, ExperimentConfig, config_hash
from .dynamics import (LinearDynamics, generate_path, identity_dynamics, ncv_disturbances,
                       ncv_dynamics, residual_norms)
from .engine import EngineError, run
from .geometry import (_reduce_last, box_domain, contains, dynamics_verdict,
                       geometry_constants, simplex_domain, start_point)
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
    """The domain itself, which is the geometry (cfg is not read).  Kept only
    because perfbench/workloads.py::assemble_first, the setup_s probe, calls
    it by name; drop it together with that call."""
    return domain


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
        eta = tuned_step(c_t, sigma2, cfg.horizon) if c_t > 0 else cfg.eta0
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
    """(weights, domain, dyn) of a config, which no seed or run index changes."""
    return build_weights(cfg, build_graph(cfg)), build_domain(cfg), build_dynamics(cfg)


def _replicate_bytes(cfg, keep_iterates):
    """Bytes a replicate of cfg holds in a batch: its (T+1, n, d) trace, or
    without it, as in a sweep, its path (and the engine's stacked states),
    steps, losses, residual norms, its row of the engine's block buffer and
    any per-round offsets or gradients (stacked too)."""
    horizon, n, d = cfg.horizon, cfg.agents, cfg.dim
    if keep_iterates:
        return (horizon + 1) * n * d * 8
    per_round = 0 if cfg.loss_kind == "tracking_square" else 2 * n * d
    return 8 * ((3 * horizon + 1) * d + 3 * horizon + 1 + n * d + horizon * per_round)


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


def _setup_runs(keys):
    """[((weights, domain, sigma2, target0), group)] of each setup of keys,
    all built on the call: the only code that assembles a config and takes
    its start target, so it raises the ConfigError of a config's own facts
    before any engine loop.  A setup holds the keys whose configs build _same
    weights, domain, oracle mode, horizon and start target, wherever they
    sit in keys.  Setups come in order of first appearance and use their
    first config's objects; group holds a (k, cfg, item, dyn) per key
    keys[k] == (cfg, item), in key order, dyn its config's.  Keys whose
    dynamics are _same share one dyn object, which no other setup holds."""
    setups = []  # (built, dyns, group) of each setup so far
    for cfg, run_keys in itertools.groupby(enumerate(keys), key=lambda pair: pair[1][0]):
        weights, domain, dyn = _assemble(cfg)
        built = (weights, domain, cfg.gradient_mode, cfg.horizon, _start_target(cfg, domain))
        setup = next((setup for setup in setups if _same(built, setup[0])), None)
        if setup is None:
            setup = built, [], []
            setups.append(setup)
        _, dyns, group = setup
        same = [seen for seen in dyns if _same(seen, dyn)]
        if same:
            dyn = same[0]
        else:
            dyns.append(dyn)
        group += [(k, cfg, item, dyn) for k, (_, item) in run_keys]
    return [((weights, domain, second_singular_value(weights), target0), group)
            for (weights, domain, *_, target0), _, group in setups]


def _replicates(batch, draft_of, domain, sigma2, target0, names=None):
    """(k, cfg, ens, path, etas, seed, norms, dyn) of each (k, cfg, item, dyn)
    of batch, every path rolled from target0, those of each run of
    consecutive keys with one dyn in one generate_path call, each path
    bit-identical to rolling it alone.

    draft_of(cfg, item, domain) gives a key's (noise, ens, seed).  norms
    are the path's residual_norms under its dyn, taken in one stacked call
    per such run, whose sum C_T the schedule, the regret and the bounds all
    read.  Raises ConfigError at the first round in which a path of one
    roll is not finite, when a centre of a replicate's ensemble leaves the
    domain, or when a variation-tuned replicate's C_T is not finite; with
    names, the message ends with the first such replicate's (names[k]).
    """
    drafts = [draft_of(cfg, item, domain) for _, cfg, item, _ in batch]
    replicates = []
    for _, run_of_dyn in itertools.groupby(zip(batch, drafts), key=lambda pair: id(pair[0][3])):
        entries, run_drafts = zip(*run_of_dyn)
        dyn = entries[0][3]
        noises, ensembles, seeds = zip(*run_drafts)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            paths = generate_path(dyn, noises, target0, len(noises[0]))
        finite = np.isfinite(paths).all(axis=2).T  # (horizon+1, R), round by round
        if not finite.all():
            round_, r = divmod(int(np.argmin(finite)), len(paths))
            _refuse(f"the target path is not finite from round {round_ + 1}", entries[r][0], names)
        for (k, cfg, _, _), ens, path, seed, norms in zip(entries, ensembles, paths, seeds,
                                                          residual_norms(paths, dyn, domain)):
            if centers_outside_domain(ens, path, domain):
                _refuse("synthetic centers leave the domain; shrink offsets or noise", k, names)
            c_t = float(norms.sum())
            if cfg.schedule_kind == "variation_tuned" and not np.isfinite(c_t):
                _refuse("schedule.kind=variation_tuned needs a finite path variation", k, names)
            replicates.append((k, cfg, ens, path, build_schedule(cfg, sigma2, c_t), seed, norms,
                               dyn))
    return replicates


def _refuse(why, k, names):
    """Raise the ConfigError why of key k's replicate, ending with (names[k]) if names."""
    raise ConfigError(why if names is None else f"{why} ({names[k]})")


def _engine_runs(setups, draft_of, x0=None, keep_iterates=True, names=None):
    """(setup, batch, traces) of each engine.run call over setups, the list
    _setup_runs(keys) built and refused: a setup's keys in batches that fit
    BATCH_TRACE_BYTES, each batch's replicates built by _replicates just
    before it runs and split where their stack_shape changes.  batch holds
    the replicates of one call, each with its own dyn; traces[r] is the
    trace of batch[r], whose first entry k is its key's index in keys.

    draft_of drafts one key, as for _replicates; keep_iterates=False keeps
    no iterates (trace.x is None).  An EngineError names the replicate of
    key keys[k] as names[k] when names is given, else by its place in its
    batch; a ConfigError of _replicates ends with (names[k]) when names is
    given.
    """
    for setup, group in setups:
        cfg = group[0][1]
        for part in _replicate_batches(group, _replicate_bytes(cfg, keep_iterates)):
            replicates = _replicates(part, draft_of, *setup[1:], names)
            for _, batch in itertools.groupby(replicates, key=lambda rep: stack_shape(rep[2])):
                batch = list(batch)
                try:
                    traces = run(*setup[:2], [rep[7] for rep in batch],
                                 [rep[2:6] for rep in batch], cfg.horizon, cfg.gradient_mode,
                                 x0, keep_iterates)
                except EngineError as exc:
                    if names is None or exc.agent is None:
                        raise
                    raise EngineError(exc.what, exc.replicate, exc.agent,
                                      names[batch[exc.replicate][0]]) from exc
                yield setup, batch, traces
                del batch, traces  # before the next batch is built and run
            del replicates


def _execute(setups, draft_of, x0=None, full=True, names=None):
    """Run one replicate per key of setups, the list _setup_runs(keys) built
    and refused, through _engine_runs, keeping its iterates; yields (k,
    RunResult) of each keys[k], setup by setup as _engine_runs runs them.
    names name the keys' replicates in an EngineError, as for _engine_runs.

    A result's trace is its replicate's trace[r]; its regret carries the
    dynamic regret, read from the losses the engine folded, and C_T; its
    bounds are the regret_guarantee of the ensemble's declared constants
    (G^2 only in stochastic mode), whose recursions run once for the whole
    batch, which shares sigma2; C_T and the bounds read the replicate's
    residual_norms.  Only a full run (run_experiments') has a static regret
    and variation-tuned value.  A failed dynamics_verdict, taken once per
    distinct dynamics of a setup, is a `not a guarantee` note on the runs
    of that dynamics.
    """
    notes_of = {}  # the verdict notes of each dyn by id: setups holds them all, each in one setup
    for setup, batch, traces in _engine_runs(setups, draft_of, x0, names=names):
        weights, domain, sigma2, _ = setup
        consts, c_ts = geometry_constants(domain), [float(rep[6].sum()) for rep in batch]
        steps = _guarantee_steps(sigma2, traces.etas, c_ts if full else None, traces.horizon)
        for r, (k, cfg, ens, path, _, _, norms, dyn) in enumerate(batch):
            if id(dyn) not in notes_of:
                why = dynamics_verdict(domain, dyn.a)[2]
                notes_of[id(dyn)] = (f"not a guarantee: {why}",) if why else ()
            trace = traces[r]
            regret = replace(dynamic_regret(trace, ens, path), path_variation=c_ts[r],
                             static_regret=static_regret(trace, ens, path) if full else None)
            bounds = regret_guarantee(consts, ens.lipschitz, sigma2, trace.etas, norms,
                                      weights.n, grad_second_moment=ens.second_moment
                                      if cfg.gradient_mode == "stochastic" else None,
                                      steps=steps[r], notes=notes_of[id(dyn)])
            yield k, RunResult(cfg, trace, path, regret, bounds, sigma2, ens)
        del batch, traces, steps, trace, ens, path, norms  # before the next batch is built and run


def _start_target(cfg, domain):
    """The target's initial state: noise.target_init if set, else the
    iterates' start, geometry.start_point.  Raises ConfigError when it lies
    outside the domain.
    """
    target0 = np.asarray(cfg.target_init, dtype=float) if cfg.target_init else start_point(domain)
    if not contains(domain, target0):
        raise ConfigError("noise.target_init lies outside the domain")
    return target0


def _config_draft(cfg, run_index, domain):
    """(noise, ens, seed) of a config's run run_index: a replicate up to
    its rolled path (see _replicates)."""
    return (build_noise(cfg, run_index), build_ensemble(cfg, domain, run_index),
            _derive_seed(cfg.seed, _ORACLE, run_index))


def run_experiments(cfg, run_indices):
    """Execute the runs `run_indices` of one config; returns a generator of RunResults.

    Each run index gets its own target path, losses, step sizes and oracle
    seed, exactly as a run of it alone would.  The run indices are checked on
    the call, then _setup_runs refuses the config's own facts (with no run
    index, nothing), and each batch its drawn facts as it is built.  The runs
    go through _execute, measuring all that `domd run` writes (static regret
    and the variation-tuned value included), and keep their iterates, so a
    consumer that drops each result before asking for the next holds at most
    one batch of traces (see BATCH_TRACE_BYTES).
    """
    run_indices = list(run_indices)
    for run_index in run_indices:
        if run_index < 0:
            raise ConfigError(f"run index must be non-negative, got {run_index}")
    setups = _setup_runs([(cfg, i) for i in run_indices])
    return (result for _, result in _execute(setups, _config_draft))


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
    table = np.concatenate([np.arange(1.0, steps + 1)[:, None], path[:steps],
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
    exceed.  Regret >= 0 is no guarantee (linear losses need not be least at the target).
    A failed dynamics_verdict is no row: it is a note on the run's bounds."""
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
    err = trace.x[-tail - 1:-1] - path[-tail - 1:-1, None, :]
    return np.sqrt(_reduce_last(np.add, np.square(err))).mean(axis=0)


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
    """The SCHEMA spec of the int or float key named section.key, or key if one section has it."""
    hits = [spec for section, keys in SCHEMA.items() for key, spec in keys.items()
            if param in (f"{section}.{key}", key) and spec[1] in (int, float)]
    if len(hits) != 1:
        raise ConfigError(f"unknown, ambiguous or non-numeric sweep parameter {param!r}")
    return hits[0]


def show_value(value):
    """A swept value as printed: an int exactly, a float's shortest round trip."""
    return str(value).removesuffix(".0")


def sweep(cfg, param, values, runs=None, out_dir=None):
    """Replicated runs for each value of one numeric config key.

    Per-run seeds derive from (master seed, run index), so they are pairwise
    distinct and the whole sweep is reproducible.  Unless noise.fixed_path
    is set, each replicate redraws the target path.  An int key's values must
    be integral; each value's config, valid by construction, refuses it as a
    config file's, and _setup_runs then builds every value's setup, refusing
    a start target outside the domain or an Erdos-Renyi graph it cannot
    sample, all before any run.  The runs go through _engine_runs, which
    refuses a replicate's drawn facts (see _replicates) when it builds its
    batch, so after any earlier batch ran; a refused sweep writes no
    sweep.csv.  Each replicate is measured by its normalized dynamic regret
    alone, bit for bit that of the run on its own: no RunResult, static
    regret or guarantee.  A float key's values show as the floats that ran,
    an int key's as passed, so an int above 2**53 stays exact.  A run error,
    or a drawn fact's config error, names its replicate by that shown value
    and its run index.
    """
    attr, typ, _, _ = _resolve_param(param)
    if attr in ("horizon", "runs"):  # the only keys a sweep cannot vary
        raise ConfigError(f"cannot sweep experiment.{attr}: the averaged curves share "
                          "one horizon, and the runs argument sets the replicates")
    runs = cfg.runs if runs is None else runs
    if runs < 1:
        raise ConfigError("sweep needs at least one run per value")
    if not values:
        raise ConfigError("sweep needs at least one value")
    for value in values:
        if typ is int and not float(value).is_integer():
            raise ConfigError(f"sweep value {value!r} is not an integer for {param}")
    configs = [replace(cfg, **{attr: typ(value)}) for value in values]
    # every value's runs through one engine runner, which keeps no iterates:
    # values that build the same engine inputs share its loops
    keys = [(cfg_v, i) for cfg_v in configs for i in range(runs)]
    setups = _setup_runs(keys)
    horizon = cfg.horizon
    shown = tuple(values) if typ is int else tuple(map(float, values))
    names = [f"{param}={show_value(v)}, run {i}" for v in shown for i in range(runs)]
    curves = np.empty((len(keys), horizon))
    for _, batch, traces in _engine_runs(setups, _config_draft, keep_iterates=False, names=names):
        for r, (k, _, ens, path, *_) in enumerate(batch):
            curves[k] = dynamic_regret(traces[r], ens, path).normalized
        del batch, traces  # before the next batch is built and run
    curves = curves.reshape(len(configs), runs, horizon)
    mean_curves = np.array([np.mean(c, axis=0) for c in curves])
    std_curves = np.array([np.std(c, axis=0) for c in curves])
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
    """One verify_bounds configuration; _case_draft adds what cfg cannot say."""

    name: str
    cfg: ExperimentConfig


def _case(name, base, **changes):
    return SuiteCase(name, replace(base, **changes))


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


# the settings the box and the simplex cases share; a simplex case's target
# starts where _simplex_loop does
_BOX = ExperimentConfig(
    horizon=100, gradient_mode="exact", rows=2, cols=2, dim=2, box_low=-5.0, box_high=5.0,
    dynamics_model="identity", noise_kind="zero", target_init=(0.5, -0.5), eta0=0.1,
    loss_kind="synthetic_quadratic", offset_scale=0.2)
_SIMPLEX = replace(_BOX, domain_kind="simplex", dim=3, floor=0.01,
                   target_init=tuple(_simplex_loop(0)[0].tolist()), offset_scale=0.02)
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


def _case_draft(stream, l_scale, cfg, item, domain):
    """(noise, ens, seed) of a suite case at one seed, item being (case,
    seed) (see _replicates); the case index is the run index.

    cfg is case.cfg, which every key of the case carries.  The seed draws
    its oracle noise from _derive_seed(seed, _ORACLE, stream).  l_scale
    scales the ensemble's declared L (and G^2 by l_scale^2), which moves the
    bounds and not the runs.  The step sizes are cfg's own schedule: no
    suite case tunes its step to the network.
    """
    case, seed = item
    idx = _SUITE.index(case)
    if cfg.domain_kind == "simplex":
        _, noise = _simplex_loop(cfg.horizon)
    elif cfg.loss_kind == "synthetic_quadratic":  # a N(0, 0.05^2) random walk on the box
        noise = (np.random.default_rng(_derive_seed(seed, _PATH, idx))
                 .normal(0.0, 0.05, (cfg.horizon, cfg.dim)))
    else:  # the polarized case's target rests: the config's own zero-noise path
        noise = build_noise(cfg, idx)
    if cfg.loss_kind == "synthetic_linear":  # polarized: the outer agents pull apart
        pull = np.array([[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
        ens = linear_ensemble(np.tile(pull, (cfg.horizon, 1, 1)), domain)
    else:
        ens = build_ensemble(replace(cfg, seed=seed), domain, idx)
    return (noise, replace(ens, lipschitz=l_scale * ens.lipschitz,
                           second_moment=l_scale * l_scale * ens.second_moment),
            _derive_seed(seed, _ORACLE, stream))


def _build_case(case, seed):
    """(weights, domain, dyn, ens, path, etas) of a suite case at one seed."""
    [(setup, [entry])] = _setup_runs([(case.cfg, (case, seed))])
    [(_, _, ens, path, etas, *_)] = _replicates([entry], partial(_case_draft, 0, 1.0), *setup[1:])
    return setup[0], setup[1], entry[3], ens, path, etas


@dataclass(frozen=True)
class VerifyReport:
    rows: tuple
    seeds: int
    violations: int
    passed: bool


def _suite_runs(cases_seeds, stream, l_scale=1.0):
    """(k, RunResult) of each cases_seeds[k] == (case, seed), through one
    _execute (see _case_draft); an EngineError names `<case> seed <seed>`."""
    keys = [(case.cfg, (case, s)) for case, s in cases_seeds]
    return _execute(_setup_runs(keys), partial(_case_draft, stream, l_scale), full=False,
                    names=[f"{case.name} seed {s}" for case, s in cases_seeds])


def _case_runs(case, seeds, stream, l_scale=1.0):
    """RunResults of one suite case at each of seeds, in order, through _execute
    (see _case_draft): the case's keys are one setup."""
    return (result for _, result in _suite_runs([(case, s) for s in seeds], stream, l_scale))


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
        raise ConfigError("need at least one seed")
    if not (np.isfinite(l_scale) and l_scale > 0):
        raise ConfigError(f"l_scale must be positive and finite, got {l_scale}")
    # the whole suite in one _execute: each run's rows, or a noisy run
    # itself, placed at its key's index k, then written in suite order
    cases_seeds = [(case, s) for case in bound_suite() for s in range(seeds)]
    kept = [None] * len(cases_seeds)
    for k, result in _suite_runs(cases_seeds, 0, l_scale):
        case, s = cases_seeds[k]
        if case.cfg.gradient_mode == "stochastic":
            kept[k] = result
            continue
        regret = result.regret.dynamic_regret
        kept[k] = check_rows(result, case.name, s) + (
            CheckRow(case.name, s, "exact", "regret_nonneg", regret, 0.0, regret,
                     bool(regret >= -SLACK_TOL)),)
    rows = []
    for c, case in enumerate(bound_suite()):
        of_case = kept[c * seeds:(c + 1) * seeds]
        if case.cfg.gradient_mode == "stochastic":
            rows.append(CheckRow(case.name, -1, "stochastic", "mean_regret",
                                 *_upper_check(*_mean_regret(of_case))))
        else:
            rows += itertools.chain.from_iterable(of_case)
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
    keys = [(replace(base, horizon=h), h) for h in horizons]
    regrets, denominators = np.empty(len(keys)), np.empty(len(keys))
    eta = sigma2 = float("nan")
    for k, result in _execute(_setup_runs(keys), _config_draft, base.target_init, full=False):
        regret = result.regret
        regrets[k] = regret.dynamic_regret
        denominators[k] = np.sqrt(regret.path_variation * horizons[k] / (1.0 - result.sigma2))
        if k == len(keys) - 1:  # the step and sigma2 of the last horizon
            eta, sigma2 = float(result.trace.etas[0]), result.sigma2
    return ScalingStudy(tuple(horizons), regrets, denominators, regrets / denominators,
                        eta, sigma2)
