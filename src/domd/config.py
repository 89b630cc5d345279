"""Experiment configuration: INI-style documents with strict validation.

A config document has flat sections; every key is optional and falls back
to the tracking-scenario defaults listed in SCHEMA.  Unknown sections or
keys are rejected so typos cannot silently change an experiment.
Environment variables named DOMD_<SECTION>__<KEY> override file values.

Example::

    [experiment]
    horizon = 1000
    runs = 50

    [noise]
    sigma_v2 = 0.5
"""

import configparser
import hashlib
import io
import math
import os
from dataclasses import dataclass, fields, replace

ENV_PREFIX = "DOMD_"


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _fraction(x):
    return 0 < x < 1


# section -> key -> (attribute, type, validator or None, description)
SCHEMA = {
    "experiment": {
        "horizon": ("horizon", int, _positive, "number of rounds T"),
        "runs": ("runs", int, _positive, "replicates per sweep value"),
        "seed": ("seed", int, _nonnegative, "master seed"),
        "gradient_mode": ("gradient_mode", ("exact", "stochastic"), None,
                          "oracle used by the engine"),
        "innovation_gradient": ("innovation_gradient", bool, None,
                                "tracking oracle replays the raw innovation direction"),
    },
    "network": {
        "graph": ("graph", ("grid", "path", "complete", "erdos_renyi"), None, "topology"),
        "rows": ("rows", int, _positive, "grid rows"),
        "cols": ("cols", int, _positive, "grid cols"),
        "nodes": ("nodes", int, _positive, "node count for path/complete/erdos_renyi"),
        "edge_prob": ("edge_prob", float, _fraction, "erdos_renyi edge probability"),
        "weights": ("weights", ("metropolis", "uniform"), None, "mixing rule"),
    },
    "geometry": {
        "kind": ("geometry_kind", ("euclidean", "kl"), None, "mirror geometry"),
        "domain": ("domain_kind", ("box", "simplex", "free"), None, "feasible set"),
        "dim": ("dim", int, lambda x: x >= 1, "decision dimension"),
        "box_low": ("box_low", float, None, "box lower bound (all coordinates)"),
        "box_high": ("box_high", float, None, "box upper bound (all coordinates)"),
        "floor": ("floor", float, _fraction, "simplex coordinate floor"),
    },
    "dynamics": {
        "model": ("dynamics_model", ("ncv", "identity", "scaled_identity"), None,
                  "target transition"),
        "eps": ("eps", float, _positive, "NCV sampling interval"),
        "scale": ("dynamics_scale", float, _positive, "scaled_identity factor"),
    },
    "noise": {
        "kind": ("noise_kind", ("gaussian_ncv", "zero", "constant_drift"), None,
                 "target perturbation model"),
        "sigma_v2": ("sigma_v2", float, _nonnegative, "perturbation intensity"),
        "fixed_path": ("fixed_path", bool, None,
                       "share one target path across sweep replicates"),
        "drift": ("drift", "vector", None, "constant_drift vector"),
        "target_init": ("target_init", "vector", None, "initial target state"),
    },
    "schedule": {
        "kind": ("schedule_kind", ("constant", "inv_sqrt", "variation_tuned"), None,
                 "step size rule"),
        "eta0": ("eta0", float, _positive, "base step size"),
    },
    "loss": {
        "kind": ("loss_kind", ("tracking_square", "synthetic_quadratic", "synthetic_linear"),
                 None, "loss family"),
        "obs_noise_low": ("obs_noise_low", float, None, "observation noise support, low end"),
        "obs_noise_high": ("obs_noise_high", float, None, "observation noise support, high end"),
        "offset_scale": ("offset_scale", float, _nonnegative, "quadratic center spread"),
        "oracle_noise": ("oracle_noise", float, _nonnegative,
                         "synthetic stochastic gradient noise half-width"),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description with tracking-scenario defaults."""

    horizon: int = 1000
    runs: int = 50
    seed: int = 1
    gradient_mode: str = "stochastic"
    innovation_gradient: bool = True
    graph: str = "grid"
    rows: int = 5
    cols: int = 5
    nodes: int = 25
    edge_prob: float = 0.4
    weights: str = "metropolis"
    geometry_kind: str = "euclidean"
    domain_kind: str = "box"
    dim: int = 4
    box_low: float = -10000.0
    box_high: float = 10000.0
    floor: float = 0.01
    dynamics_model: str = "ncv"
    eps: float = 0.1
    dynamics_scale: float = 0.9
    noise_kind: str = "gaussian_ncv"
    sigma_v2: float = 0.5
    fixed_path: bool = False
    drift: tuple = ()
    target_init: tuple = (0.0, 1.0, 0.0, 1.0)
    schedule_kind: str = "constant"
    eta0: float = 0.5
    loss_kind: str = "tracking_square"
    obs_noise_low: float = -1.0
    obs_noise_high: float = 1.0
    offset_scale: float = 0.2
    oracle_noise: float = 0.0

    @property
    def agents(self):
        """Network size: rows * cols on a grid, nodes otherwise."""
        return self.rows * self.cols if self.graph == "grid" else self.nodes


def _convert(section, key, spec, raw):
    attr, typ, check, _ = spec
    where = f"{section}.{key}"
    raw = raw.strip()
    try:
        if typ is int:
            value = int(raw)
        elif typ is float:
            value = float(raw)
        elif typ is bool:
            low = raw.lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError
            value = low in ("true", "1", "yes")
        elif typ == "vector":
            value = tuple(float(p) for p in raw.split(",")) if raw else ()
        else:  # enumerated strings
            if raw not in typ:
                raise ConfigError(f"{where}: expected one of {', '.join(typ)}, got {raw!r}")
            value = raw
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from None
    if check is not None and not check(value):
        raise ConfigError(f"{where}: value {raw!r} out of range")
    return attr, value


def cross_validate(cfg):
    """Return cfg, or raise ConfigError on a non-finite float or two conflicting values."""
    for section, keys in SCHEMA.items():
        for key, (attr, typ, _, _) in keys.items():
            value = getattr(cfg, attr)
            entries = (value,) if typ is float else value if typ == "vector" else ()
            if not all(map(math.isfinite, entries)):
                raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    if cfg.domain_kind == "box" and cfg.box_low >= cfg.box_high:
        raise ConfigError("geometry.box_low must be below geometry.box_high")
    if cfg.obs_noise_low > cfg.obs_noise_high:
        raise ConfigError("loss.obs_noise_low must not exceed loss.obs_noise_high")
    if cfg.geometry_kind == "kl" and cfg.domain_kind != "simplex":
        raise ConfigError("geometry.kind=kl requires geometry.domain=simplex")
    if cfg.geometry_kind == "euclidean" and cfg.domain_kind == "simplex":
        raise ConfigError("geometry.kind=euclidean pairs with box or free domains")
    if cfg.domain_kind == "simplex" and not 0 < cfg.floor < 1.0 / cfg.dim:
        raise ConfigError("geometry.floor must lie in (0, 1/dim)")
    if cfg.noise_kind == "gaussian_ncv" and cfg.dynamics_model != "ncv":
        raise ConfigError("noise.kind=gaussian_ncv requires dynamics.model=ncv")
    if cfg.dynamics_model == "ncv" and cfg.dim != 4:
        raise ConfigError("dynamics.model=ncv requires geometry.dim=4")
    if cfg.noise_kind == "constant_drift" and len(cfg.drift) != cfg.dim:
        raise ConfigError("noise.drift must list geometry.dim values")
    if cfg.target_init and len(cfg.target_init) != cfg.dim:
        raise ConfigError("noise.target_init must list geometry.dim values")
    if cfg.loss_kind == "tracking_square" and cfg.domain_kind != "box":
        raise ConfigError("loss.kind=tracking_square requires a box domain")
    if cfg.loss_kind == "synthetic_quadratic" and cfg.domain_kind == "free":
        raise ConfigError("loss.kind=synthetic_quadratic needs a bounded domain")
    if cfg.graph == "grid" and cfg.rows * cfg.cols < 2:
        raise ConfigError("network grid needs at least two nodes")
    if cfg.weights == "uniform" and cfg.graph != "complete":
        raise ConfigError("network.weights=uniform requires network.graph=complete")
    if cfg.loss_kind == "tracking_square" and cfg.agents < cfg.dim:
        raise ConfigError(f"loss.kind=tracking_square needs at least geometry.dim={cfg.dim} "
                          f"agents so every coordinate is observed, got {cfg.agents}")
    return cfg


def parse_config(text, env=None):
    """Parse a config document, apply environment overrides, validate.

    Raises ConfigError naming the offending section.key on unknown keys,
    type errors or out-of-range values.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            attr, value = _convert(section, key, SCHEMA[section][key], raw)
            values[attr] = value
    env = os.environ if env is None else env
    for name, raw in sorted(env.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):]
        if "__" not in rest:
            raise ConfigError(f"override {name} must look like {ENV_PREFIX}SECTION__KEY")
        section, key = rest.lower().split("__", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"override {name} names unknown key {section}.{key}")
        attr, value = _convert(section, key, SCHEMA[section][key], raw)
        values[attr] = value
    cfg = replace(ExperimentConfig(), **values)
    return cross_validate(cfg)


def load_config(path, env=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text, env=env)


def config_hash(cfg):
    """Stable 12-hex-digit digest of every effective config value."""
    parts = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        parts.append(f"{f.name}={getattr(cfg, f.name)!r}")
    digest = hashlib.sha256(";".join(parts).encode()).hexdigest()
    return digest[:12]


def describe_schema():
    """Human-readable schema listing for --help and the README."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, typ, _, desc) in keys.items():
            default = getattr(ExperimentConfig(), attr)
            kind = typ if isinstance(typ, str) else getattr(typ, "__name__", "choice")
            if isinstance(typ, tuple):
                kind = "|".join(typ)
            lines.append(f"  {key} ({kind}, default {default!r}): {desc}")
    return "\n".join(lines)
