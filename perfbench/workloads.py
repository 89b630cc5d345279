"""The benchmark's four workloads, their output checks and reference values.

Each workload has a timed part, which makes the same public domd calls as
``domd run``, ``domd sweep`` or ``domd verify-bounds``, and an untimed check
of what it produced.  domd functions are looked up on their modules at call
time, so the tracer's wrappers see every call.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import domd.config
import domd.dynamics
import domd.harness
import domd.network

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

SWEEP_PARAM = "noise.sigma_v2"
SWEEP_VALUES = (0.25, 0.5, 0.75, 1.0)
SWEEP_RUNS = 4  # replicates per value
VERIFY_SEEDS = 3  # verify_bounds uses suite seeds 0..VERIFY_SEEDS-1 whatever --seed is
VERIFY_CASES = 10
VERIFY_STOCHASTIC_CASES = 2

# Reference values may move by reordered floating-point sums, never more.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """What one execution produced: scalars, output digests, failed checks."""

    values: dict
    digests: dict
    problems: list


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (seed, out_dir) -> raw result; this is the timed part
    check: Callable  # (raw, out_dir) -> Outcome
    experiments: int  # experiments in one execution
    boundary: tuple  # (module, function) entered once per experiment
    partition: bool = False  # an experiment lasts from one boundary entry to the next
    seeded: bool = True  # whether --seed reaches the program
    blas_bound: bool = False  # BLAS rather than Python call overhead bounds it


def load(config, seed, **changes):
    cfg = domd.config.load_config(HERE / "configs" / config, env={})
    return replace(cfg, seed=seed, **changes)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _digests(out_dir, names):
    out = {}
    for name in names:
        path = out_dir / name
        out[name] = _sha256(path.read_bytes()) if path.exists() else "missing"
    return out


def check_csv(path, header, rows, text_columns=()):
    """Problems of one CSV output: header, row count, non-numeric or non-finite cells."""
    try:
        fh = open(path)
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    problems = []
    count = 0
    with fh:
        lines = (line.rstrip("\n") for line in fh if not line.startswith("#"))
        got = next(lines, "").split(",")
        if got != header:
            problems.append(f"{path.name}: header has {len(got)} columns "
                            f"starting {got[:3]}, expected {len(header)} starting {header[:3]}")
        for line in lines:
            count += 1
            cells = line.split(",")
            if len(cells) != len(header):
                problems.append(f"{path.name} row {count}: {len(cells)} cells")
                continue
            for k, cell in enumerate(cells):
                if k in text_columns:
                    continue
                try:
                    finite = math.isfinite(float(cell))
                except ValueError:
                    finite = False
                if not finite:
                    problems.append(f"{path.name} row {count}: {header[k]}={cell!r}")
            if len(problems) > 5:
                break
    if count != rows and len(problems) <= 5:
        problems.append(f"{path.name}: {count} rows, expected {rows}")
    return problems


def _finite(name, value):
    return [] if np.all(np.isfinite(value)) else [f"{name} is not finite"]


# --------------------------------------------------------------------------
# run_tracking_csv: `domd run` on the default config, all four CSVs

RUN_FILES = ("regret.csv", "disagreement.csv", "trajectory.csv", "bounds.csv")


def _run_tracking(seed, out_dir):
    result = domd.harness.run_experiment(load("default.ini", seed), out_dir=str(out_dir))
    return result, domd.harness.exact_run_violations(result)


def _check_tracking(raw, out_dir):
    result, violated = raw
    cfg, regret = result.config, result.regret
    horizon, n, d = cfg.horizon, cfg.rows * cfg.cols, cfg.dim
    values = {"dynamic_regret": regret.dynamic_regret,
              "static_regret": regret.static_regret,
              "normalized_final": float(regret.normalized[-1]),
              "guarantee_total": result.bounds.total}
    problems = [f"bound violation: {v}" for v in violated]
    for name, value in values.items():
        problems += _finite(name, value)
    trajectory = (["t"] + [f"target{k + 1}" for k in range(d)]
                  + [f"agent{i + 1}_{k + 1}" for i in range(n) for k in range(d)])
    problems += check_csv(out_dir / "regret.csv",
                          ["t", "instant", "cumulative", "normalized"], horizon)
    problems += check_csv(out_dir / "disagreement.csv", ["t", "disagreement"], horizon + 1)
    problems += check_csv(out_dir / "trajectory.csv", trajectory, horizon + 1)
    problems += check_csv(out_dir / "bounds.csv", ["t", "disagreement_bound"], horizon)
    return Outcome(values, _digests(out_dir, RUN_FILES), problems)


# --------------------------------------------------------------------------
# sweep_noise: `domd sweep` over noise.sigma_v2, only sweep.csv


def _run_sweep(seed, out_dir):
    return domd.harness.sweep(load("default.ini", seed), SWEEP_PARAM, SWEEP_VALUES,
                              runs=SWEEP_RUNS, out_dir=str(out_dir))


def _check_sweep(result, out_dir):
    values = {"final_mean": [float(v) for v in result.final_mean],
              "final_std": [float(v) for v in result.final_std]}
    problems = _finite("final_mean", result.final_mean) + _finite("final_std", result.final_std)
    if len(values["final_mean"]) != len(SWEEP_VALUES):
        problems.append(f"{len(values['final_mean'])} sweep finals for {len(SWEEP_VALUES)} values")
    horizon = result.mean_curves.shape[1]
    problems += check_csv(out_dir / "sweep.csv",
                          ["value", "t", "mean_normalized", "std_normalized"],
                          len(SWEEP_VALUES) * horizon)
    return Outcome(values, _digests(out_dir, ["sweep.csv"]), problems)


# --------------------------------------------------------------------------
# verify_bounds: `domd verify-bounds` over the synthetic suite

VERIFY_HEADER = ["case", "seed", "mode", "check", "empirical", "bound", "slack", "passed"]


def _run_verify(seed, out_dir):
    return domd.harness.verify_bounds(VERIFY_SEEDS, out_dir=str(out_dir))


def _check_verify(report, out_dir):
    path = out_dir / "verify.csv"
    exact = VERIFY_CASES - VERIFY_STOCHASTIC_CASES
    rows = 4 * exact * VERIFY_SEEDS + VERIFY_STOCHASTIC_CASES
    problems = check_csv(path, VERIFY_HEADER, rows, text_columns=(0, 2, 3, 7))
    if report.violations:
        problems.append(f"verify_bounds reports {report.violations} violations")
    verdicts = []
    if path.exists():
        for line in path.read_text().splitlines():
            cells = line.split(",")
            if line.startswith("#") or cells == VERIFY_HEADER or len(cells) != 8:
                continue
            case, s, mode, check, empirical, bound, _, passed = cells
            if passed != "true":
                problems.append(f"verify.csv: {case} seed={s} {check} failed")
            verdicts.append([case, int(s), mode, check, float(empirical), float(bound),
                             passed == "true"])
    return Outcome({"verdicts": verdicts}, _digests(out_dir, ["verify.csv"]), problems)


# --------------------------------------------------------------------------
# gossip_er1000: one run_experiment on an Erdos-Renyi graph, no CSV


def _run_gossip(seed, out_dir):
    return domd.harness.run_experiment(load("gossip_er1000.ini", seed))


def _check_gossip(result, out_dir):
    cfg, trace, regret = result.config, result.trace, result.regret
    values = {"dynamic_regret": regret.dynamic_regret,
              "normalized_final": float(regret.normalized[-1]),
              "sigma2": result.sigma2}
    problems = _finite("iterates", trace.x) + _finite("regret", regret.normalized)
    if trace.x.shape != (cfg.horizon + 1, cfg.nodes, cfg.dim):
        problems.append(f"iterates have shape {trace.x.shape}")
    if not 0 <= result.sigma2 < 1:
        problems.append(f"sigma2={result.sigma2} outside [0, 1)")
    digests = {"iterates": _sha256(np.ascontiguousarray(trace.x).tobytes()),
               "normalized_regret": _sha256(np.ascontiguousarray(regret.normalized).tobytes())}
    return Outcome(values, digests, problems)


WORKLOADS = {
    "run_tracking_csv": Workload("run_tracking_csv", _run_tracking, _check_tracking, 1,
                                 ("domd.harness", "run_experiment")),
    "sweep_noise": Workload("sweep_noise", _run_sweep, _check_sweep,
                            len(SWEEP_VALUES) * SWEEP_RUNS, ("domd.harness", "run_experiment")),
    "verify_bounds": Workload("verify_bounds", _run_verify, _check_verify,
                              VERIFY_CASES * VERIFY_SEEDS, ("domd.engine", "run"),
                              partition=True, seeded=False),
    "gossip_er1000": Workload("gossip_er1000", _run_gossip, _check_gossip, 1,
                              ("domd.harness", "run_experiment"), blas_bound=True),
}

CONFIGS = {"run_tracking_csv": "default.ini", "sweep_noise": "default.ini",
           "gossip_er1000": "gossip_er1000.ini"}


def assemble_first(name, seed):
    """Build the objects of a workload's first experiment without running it."""
    h = domd.harness
    if name == "verify_bounds":
        weights = h._build_case(h.bound_suite()[0], 0)[0]  # the suite's own case assembly
        return domd.network.second_singular_value(weights)
    changes = {SWEEP_PARAM.split(".")[1]: SWEEP_VALUES[0]} if name == "sweep_noise" else {}
    cfg = load(CONFIGS[name], seed, **changes)
    weights = h.build_weights(cfg, h.build_graph(cfg))
    sigma2 = domd.network.second_singular_value(weights)
    domain = h.build_domain(cfg)
    h.build_geometry(cfg, domain)
    path = domd.dynamics.generate_path(h.build_dynamics(cfg), h.build_noise(cfg, 0),
                                       np.asarray(cfg.target_init, dtype=float), cfg.horizon)
    return weights, sigma2, path, h.build_ensemble(cfg, domain, 0)


def _close(got, want):
    if isinstance(want, bool) or isinstance(want, str):
        return got == want
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and
                abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_TOL)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    return False


def reference_problems(name, values):
    """Differences between an execution at the reference seed and the stored values."""
    want = json.loads(REFERENCE.read_text())["workloads"][name]
    return [f"{key}: got {values.get(key)!r:.200}, reference {want[key]!r:.200}"
            for key in want if not _close(values.get(key), want[key])]


def reference_seed():
    return json.loads(REFERENCE.read_text())["seed"]
