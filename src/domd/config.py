"""Experiment configuration: INI-style documents with strict validation.

A config document has flat sections; every key is optional and falls back
to its tracking-scenario default.  Each key is declared once, on its
ExperimentConfig field (section, key, default, type, check, description);
SCHEMA, parsing and the --help listing are derived from those fields.
Unknown sections or keys are rejected so typos cannot silently change an
experiment.  Environment variables named DOMD_<SECTION>__<KEY> override file values.
An ExperimentConfig is valid by construction: its __post_init__ runs cross_validate,
the one place a value is refused, whether parsed, built or set by dataclasses.replace.

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
from dataclasses import dataclass, field, fields

from .network import DENSE_MIX_MAX_NODES

ENV_PREFIX = "DOMD_"


class ConfigError(ValueError):
    """Malformed or out-of-range configuration."""


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _fraction(x):
    return 0 < x < 1


def _key(section, key, default, desc, check=None, choices=None):
    """A config field read from [section] key: its default, description,
    optional value check and, for a string field, its allowed values."""
    return field(default=default, metadata={"ini": (section, key), "desc": desc,
                                            "check": check, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; each field declares its config key."""

    horizon: int = _key("experiment", "horizon", 1000, "number of rounds T", _positive)
    runs: int = _key("experiment", "runs", 50, "replicates per sweep value", _positive)
    seed: int = _key("experiment", "seed", 1, "master seed", _nonnegative)
    gradient_mode: str = _key("experiment", "gradient_mode", "stochastic",
                              "oracle used by the engine", choices=("exact", "stochastic"))
    innovation_gradient: bool = _key("experiment", "innovation_gradient", True,
                                     "tracking oracle replays the raw innovation direction")
    graph: str = _key("network", "graph", "grid", "topology",
                      choices=("grid", "path", "complete", "erdos_renyi"))
    rows: int = _key("network", "rows", 5, "grid rows", _positive)
    cols: int = _key("network", "cols", 5, "grid cols", _positive)
    nodes: int = _key("network", "nodes", 25, "node count for path/complete/erdos_renyi",
                      _positive)
    edge_prob: float = _key("network", "edge_prob", 0.4, "erdos_renyi edge probability",
                            _fraction)
    domain_kind: str = _key("geometry", "domain", "box",
                            "feasible set; box is euclidean (l2), simplex is KL (l1)",
                            choices=("box", "simplex"))
    dim: int = _key("geometry", "dim", 4, "decision dimension", _positive)
    box_low: float = _key("geometry", "box_low", -10000.0, "box lower bound (all coordinates)")
    box_high: float = _key("geometry", "box_high", 10000.0, "box upper bound (all coordinates)")
    floor: float = _key("geometry", "floor", 0.01, "simplex coordinate floor", _fraction)
    dynamics_model: str = _key("dynamics", "model", "ncv", "target transition",
                               choices=("ncv", "identity", "scaled_identity"))
    eps: float = _key("dynamics", "eps", 0.1, "NCV sampling interval", _positive)
    dynamics_scale: float = _key("dynamics", "scale", 0.9, "scaled_identity factor", _positive)
    noise_kind: str = _key("noise", "kind", "gaussian_ncv", "target perturbation model",
                           choices=("gaussian_ncv", "zero", "constant_drift"))
    sigma_v2: float = _key("noise", "sigma_v2", 0.5, "perturbation intensity", _nonnegative)
    fixed_path: bool = _key("noise", "fixed_path", False,
                            "share one target path across sweep replicates")
    drift: tuple = _key("noise", "drift", (), "constant_drift vector")
    target_init: tuple = _key("noise", "target_init", (0.0, 1.0, 0.0, 1.0),
                              "initial target state")
    schedule_kind: str = _key("schedule", "kind", "constant", "step size rule",
                              choices=("constant", "inv_sqrt", "variation_tuned"))
    eta0: float = _key("schedule", "eta0", 0.5, "base step size", _positive)
    loss_kind: str = _key("loss", "kind", "tracking_square", "loss family",
                          choices=("tracking_square", "synthetic_quadratic",
                                   "synthetic_linear"))
    obs_noise_low: float = _key("loss", "obs_noise_low", -1.0,
                                "observation noise support, low end")
    obs_noise_high: float = _key("loss", "obs_noise_high", 1.0,
                                 "observation noise support, high end")
    offset_scale: float = _key("loss", "offset_scale", 0.2, "quadratic center spread",
                               _nonnegative)
    oracle_noise: float = _key("loss", "oracle_noise", 0.0,
                               "synthetic stochastic gradient noise half-width", _nonnegative)

    def __post_init__(self):
        cross_validate(self)

    @property
    def agents(self):
        """Network size: rows * cols on a grid, nodes otherwise."""
        return self.rows * self.cols if self.graph == "grid" else self.nodes


def _derive_schema():
    schema = {}
    for f in fields(ExperimentConfig):
        section, key = f.metadata["ini"]
        typ = f.metadata["choices"] or ("vector" if f.type is tuple else f.type)
        schema.setdefault(section, {})[key] = (f.name, typ, f.metadata["check"],
                                               f.metadata["desc"])
    return schema


# section -> key -> (attribute, type, validator or None, description) in field
# order; a type is int, float, bool, "vector" or a tuple of the allowed strings
SCHEMA = _derive_schema()


def _convert(section, key, spec, raw):
    attr, typ, _, _ = spec
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
        else:  # one of the enumerated strings, which cross_validate checks
            value = raw
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None
    return attr, value


def cross_validate(cfg):
    """Return cfg, or raise ConfigError on the first refused value: key by key, one
    outside its choices or check, then a non-finite float; then two conflicting
    values.  ExperimentConfig.__post_init__ calls it: every config passed it."""
    for section, keys in SCHEMA.items():
        for key, (attr, typ, check, _) in keys.items():
            value = getattr(cfg, attr)
            if isinstance(typ, tuple) and value not in typ:
                raise ConfigError(f"{section}.{key}: expected one of {', '.join(typ)}, "
                                  f"got {value!r}")
            if check is not None and not check(value):
                raise ConfigError(f"{section}.{key}: value {value!r} out of range")
            entries = (value,) if typ is float else value if typ == "vector" else ()
            if not all(map(math.isfinite, entries)):
                raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    if cfg.domain_kind == "box" and cfg.box_low >= cfg.box_high:
        raise ConfigError("geometry.box_low must be below geometry.box_high")
    if cfg.obs_noise_low > cfg.obs_noise_high:
        raise ConfigError("loss.obs_noise_low must not exceed loss.obs_noise_high")
    # the tracking loss adds the noise variance (high - low)^2 / 12; past the
    # float range every instant regret would be inf - inf
    spread = cfg.obs_noise_high - cfg.obs_noise_low
    if cfg.loss_kind == "tracking_square" and not math.isfinite(spread * spread / 12.0):
        raise ConfigError(f"loss.kind=tracking_square needs a finite noise variance "
                          f"(loss.obs_noise_high - loss.obs_noise_low)^2 / 12, got a spread "
                          f"of {spread!r}")
    if cfg.domain_kind == "simplex" and cfg.dim < 2:
        raise ConfigError(f"geometry.domain=simplex needs geometry.dim >= 2, got {cfg.dim}")
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
    if cfg.agents < 2:
        raise ConfigError(f"network {cfg.graph} needs at least two nodes, got {cfg.agents}")
    if cfg.graph == "complete" and cfg.nodes > DENSE_MIX_MAX_NODES:
        raise ConfigError(f"network.graph=complete supports network.nodes up to "
                          f"{DENSE_MIX_MAX_NODES}, got {cfg.nodes}")
    if cfg.loss_kind == "tracking_square" and cfg.agents < cfg.dim:
        raise ConfigError(f"loss.kind=tracking_square needs at least geometry.dim={cfg.dim} "
                          f"agents so every coordinate is observed, got {cfg.agents}")
    return cfg


def parse_config(text, env=None):
    """Parse a config document and apply environment overrides.

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
    return ExperimentConfig(**values)


def load_config(path, env=None):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text, env=env)


def config_hash(cfg):
    """Stable 12-hex-digit digest of every effective config value."""
    parts = (f"{name}={getattr(cfg, name)!r}" for name in sorted(f.name for f in fields(cfg)))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:12]


def describe_schema():
    """Human-readable schema listing for --help and the README."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (attr, typ, _, desc) in keys.items():
            default = getattr(ExperimentConfig(), attr)
            kind = "|".join(typ) if isinstance(typ, tuple) else getattr(typ, "__name__", typ)
            lines.append(f"  {key} ({kind}, default {default!r}): {desc}")
    return "\n".join(lines)
