"""Config parsing, validation, environment overrides and hashing."""

import pytest

from domd.config import (ConfigError, ExperimentConfig, config_hash,
                         describe_schema, load_config, parse_config, SCHEMA)
from domd.harness import sweep

# every float and vector key, as section.key
FLOAT_KEYS = [f"{section}.{key}" for section, keys in SCHEMA.items()
              for key, spec in keys.items() if spec[1] in (float, "vector")]


def test_empty_document_yields_defaults():
    cfg = parse_config("", env={})
    assert cfg == ExperimentConfig()
    assert cfg.horizon == 1000 and cfg.runs == 50 and cfg.seed == 1
    assert cfg.graph == "grid" and cfg.rows == 5 and cfg.cols == 5
    assert cfg.eta0 == 0.5 and cfg.sigma_v2 == 0.5
    assert cfg.box_low == -10000.0 and cfg.box_high == 10000.0


def test_values_parse_and_apply():
    text = """
[experiment]
horizon = 200
runs = 3
gradient_mode = exact
innovation_gradient = no

[network]
graph = path
nodes = 7

[noise]
kind = constant_drift
drift = 0.1, -0.2, 0.0, 0.5

[dynamics]
model = identity
"""
    cfg = parse_config(text, env={})
    assert cfg.horizon == 200 and cfg.runs == 3
    assert cfg.gradient_mode == "exact"
    assert cfg.innovation_gradient is False
    assert cfg.graph == "path" and cfg.nodes == 7
    assert cfg.drift == (0.1, -0.2, 0.0, 0.5)
    assert cfg.dynamics_model == "identity"


def test_unknown_names_are_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nonsense]\nx = 1\n", env={})
    with pytest.raises(ConfigError, match="unknown key experiment.speed"):
        parse_config("[experiment]\nspeed = 9\n", env={})


def test_errors_name_the_offending_key():
    with pytest.raises(ConfigError, match="noise.sigma_v2"):
        parse_config("[noise]\nsigma_v2 = -1\n", env={})
    with pytest.raises(ConfigError, match="experiment.horizon"):
        parse_config("[experiment]\nhorizon = soon\n", env={})
    with pytest.raises(ConfigError, match="experiment.gradient_mode"):
        parse_config("[experiment]\ngradient_mode = psychic\n", env={})
    with pytest.raises(ConfigError, match="experiment.innovation_gradient"):
        parse_config("[experiment]\ninnovation_gradient = maybe\n", env={})
    with pytest.raises(ConfigError, match="network.edge_prob"):
        parse_config("[network]\nedge_prob = 1.5\n", env={})


def test_malformed_document_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("horizon = 5\n", env={})  # key before any section


def test_environment_overrides_win():
    text = "[experiment]\nhorizon = 100\n"
    env = {"DOMD_EXPERIMENT__HORIZON": "250", "HOME": "/root"}
    assert parse_config(text, env=env).horizon == 250
    assert parse_config("", env={"DOMD_SCHEDULE__ETA0": "0.25"}).eta0 == 0.25


def test_environment_override_validation():
    with pytest.raises(ConfigError, match="SECTION__KEY"):
        parse_config("", env={"DOMD_HORIZON": "5"})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("", env={"DOMD_EXPERIMENT__SPEED": "5"})
    with pytest.raises(ConfigError, match="out of range"):
        parse_config("", env={"DOMD_EXPERIMENT__HORIZON": "0"})


def test_cross_validation_rules():
    cases = [
        ("[geometry]\nbox_low = 2\nbox_high = 1\n", "box_low"),
        ("[loss]\nobs_noise_low = 1\nobs_noise_high = -1\n", "obs_noise_low"),
        ("[geometry]\nkind = kl\ndomain = box\n", "simplex"),
        ("[geometry]\nkind = euclidean\ndomain = simplex\n"
         "[dynamics]\nmodel = identity\n[noise]\nkind = zero\n"
         "[loss]\nkind = synthetic_quadratic\n", "box or free"),
        ("[geometry]\nkind = kl\ndomain = simplex\ndim = 4\nfloor = 0.3\n"
         "[dynamics]\nmodel = identity\n[noise]\nkind = zero\n"
         "[loss]\nkind = synthetic_quadratic\n", "floor"),
        ("[dynamics]\nmodel = identity\n", "gaussian_ncv"),
        ("[geometry]\ndim = 2\n", "dim=4"),
        ("[noise]\nkind = constant_drift\ndrift = 0.1, 0.2\n"
         "[dynamics]\nmodel = identity\n", "drift"),
        ("[noise]\ntarget_init = 1, 2\n", "target_init"),
        ("[geometry]\ndomain = free\ndim = 4\n", "box domain"),
        ("[geometry]\ndomain = free\ndim = 4\n[loss]\nkind = synthetic_quadratic\n",
         "bounded"),
        ("[network]\ngraph = grid\nrows = 1\ncols = 1\n", "two nodes"),
        ("[network]\nweights = uniform\n", "complete"),
        ("[network]\nrows = 1\ncols = 3\n", "geometry.dim=4 agents .* got 3"),
        ("[network]\ngraph = path\nnodes = 2\n", "geometry.dim=4 agents .* got 2"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            parse_config(text, env={})


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", FLOAT_KEYS)
def test_non_finite_floats_are_rejected(name, bad):
    # from a file, an environment override and a sweep; each names the key
    section, key = name.split(".")
    vector = SCHEMA[section][key][1] == "vector"
    raw = f"0.5, 0.5, 0.5, {bad}" if vector else bad  # the default dim is 4
    with pytest.raises(ConfigError, match=name):
        parse_config(f"[{section}]\n{key} = {raw}\n", env={})
    with pytest.raises(ConfigError, match=name):
        parse_config("", env={f"DOMD_{section.upper()}__{key.upper()}": raw})
    if not vector:  # vectors cannot be swept
        with pytest.raises(ConfigError, match=name):
            sweep(parse_config("", env={}), name, (float(bad),), runs=1)


def test_agent_count_rule_applies_to_tracking_losses_only():
    # as many agents as coordinates is enough, and synthetic losses need no
    # per-coordinate observer
    assert parse_config("[network]\nrows = 2\ncols = 2\n", env={}).agents == 4
    text = ("[network]\ngraph = path\nnodes = 2\n[dynamics]\nmodel = identity\n"
            "[noise]\nkind = zero\n[loss]\nkind = synthetic_quadratic\n")
    assert parse_config(text, env={}).agents == 2


def test_kl_simplex_document_is_valid():
    text = """
[geometry]
kind = kl
domain = simplex
dim = 3
floor = 0.01

[dynamics]
model = identity

[noise]
kind = zero
target_init =

[loss]
kind = synthetic_quadratic
"""
    cfg = parse_config(text, env={})
    assert cfg.geometry_kind == "kl" and cfg.dim == 3
    assert cfg.target_init == ()


def test_config_hash_is_stable_and_sensitive():
    base = parse_config("", env={})
    again = parse_config("", env={})
    h = config_hash(base)
    assert h == config_hash(again)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    bumped = parse_config("[experiment]\nseed = 2\n", env={})
    assert config_hash(bumped) != h


def test_describe_schema_mentions_every_key():
    text = describe_schema()
    for section, keys in SCHEMA.items():
        assert f"[{section}]" in text
        for key in keys:
            assert key in text
    assert "default" in text


def test_load_config_reads_files(tmp_path):
    file = tmp_path / "exp.ini"
    file.write_text("[experiment]\nhorizon = 42\n")
    assert load_config(file, env={}).horizon == 42
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.ini", env={})
