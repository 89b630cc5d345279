"""Config parsing, validation, environment overrides and hashing."""

from dataclasses import fields, replace

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
    # the domain picks the geometry and every network mixes by Metropolis weights
    with pytest.raises(ConfigError, match="unknown key geometry.kind"):
        parse_config("[geometry]\nkind = kl\n", env={})
    with pytest.raises(ConfigError, match="unknown key network.weights"):
        parse_config("[network]\nweights = uniform\n", env={})


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
    with pytest.raises(ConfigError, match="geometry.domain: expected one of box, simplex"):
        parse_config("[geometry]\ndomain = free\n", env={})


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
        # the spread itself passes the float range, and so would the floor
        ("[loss]\nobs_noise_low = -1e308\nobs_noise_high = 1e308\n",
         r"finite noise variance \(loss\.obs_noise_high - loss\.obs_noise_low\)"),
        ("[geometry]\ndomain = simplex\ndim = 4\nfloor = 0.3\n"
         "[dynamics]\nmodel = identity\n[noise]\nkind = zero\n"
         "[loss]\nkind = synthetic_quadratic\n", "floor"),
        ("[dynamics]\nmodel = identity\n", "gaussian_ncv"),
        ("[geometry]\ndim = 2\n", "dim=4"),
        ("[noise]\nkind = constant_drift\ndrift = 0.1, 0.2\n"
         "[dynamics]\nmodel = identity\n", "drift"),
        ("[noise]\ntarget_init = 1, 2\n", "target_init"),
        ("[geometry]\ndomain = simplex\ndim = 4\nfloor = 0.1\n", "box domain"),
        ("[network]\ngraph = grid\nrows = 1\ncols = 1\n", "two nodes"),
        ("[network]\ngraph = complete\nnodes = 257\n", "network.graph=complete .* got 257"),
        ("[network]\nrows = 1\ncols = 3\n", "geometry.dim=4 agents .* got 3"),
        ("[network]\ngraph = path\nnodes = 2\n", "geometry.dim=4 agents .* got 2"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            parse_config(text, env={})


def test_a_simplex_needs_two_dimensions():
    # every other key agrees with a one-dimensional simplex, and its floor
    # 0.01 lies in (0, 1/dim), so only this rule refuses it
    text = ("[geometry]\ndomain = simplex\ndim = 1\n[dynamics]\nmodel = identity\n"
            "[noise]\nkind = zero\ntarget_init =\n[loss]\nkind = synthetic_quadratic\n")
    with pytest.raises(ConfigError, match=r"geometry\.domain=simplex needs geometry\.dim >= 2"):
        parse_config(text, env={})
    assert parse_config(text.replace("dim = 1", "dim = 2"), env={}).dim == 2


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


# (section.key, attribute, type, check or choices) of every key that refuses values by itself
CHECKED_KEYS = [(f"{section}.{key}", attr, typ, check or typ)
                for section, keys in SCHEMA.items() for key, (attr, typ, check, _) in keys.items()
                if check is not None or isinstance(typ, tuple)]


@pytest.mark.parametrize("name, attr, typ, rule", CHECKED_KEYS,
                         ids=[key[0] for key in CHECKED_KEYS])
def test_a_built_config_refuses_a_value_as_parsing_does(name, attr, typ, rule):
    # -1 fails every check, and no key offers the choice "bogus"
    bad = "bogus" if isinstance(typ, tuple) else typ(-1)
    assert not (bad in rule if isinstance(typ, tuple) else rule(bad))
    with pytest.raises(ConfigError) as built:
        replace(ExperimentConfig(), **{attr: bad})
    section, key = name.split(".")
    with pytest.raises(ConfigError) as parsed:
        parse_config(f"[{section}]\n{key} = {bad}\n", env={})
    assert str(built.value) == str(parsed.value)
    if isinstance(typ, tuple):
        assert str(built.value) == f"{name}: expected one of {', '.join(typ)}, got 'bogus'"
    else:
        assert str(built.value) == f"{name}: value {bad!r} out of range"


def test_a_built_config_refuses_conflicting_values_as_parsing_does():
    with pytest.raises(ConfigError) as parsed:
        parse_config("[dynamics]\nmodel = identity\n", env={})
    for build in (lambda: replace(ExperimentConfig(), dynamics_model="identity"),
                  lambda: ExperimentConfig(dynamics_model="identity")):
        with pytest.raises(ConfigError) as built:
            build()
        assert str(built.value) == str(parsed.value) == (
            "noise.kind=gaussian_ncv requires dynamics.model=ncv")


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
    assert cfg.domain_kind == "simplex" and cfg.dim == 3
    assert cfg.target_init == ()


def test_config_hash_is_stable_and_sensitive():
    base = parse_config("", env={})
    again = parse_config("", env={})
    h = config_hash(base)
    assert h == config_hash(again)
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    bumped = parse_config("[experiment]\nseed = 2\n", env={})
    assert config_hash(bumped) != h


# a valid one-agent-per-coordinate config up to its [network] section
ONE_DIM_LINEAR = ("[geometry]\ndim = 1\n[dynamics]\nmodel = identity\n"
                  "[noise]\nkind = zero\ntarget_init = 0\n[loss]\nkind = synthetic_linear\n"
                  "[network]\n")


@pytest.mark.parametrize("graph, one, two", [
    ("grid", "rows = 1\ncols = 1\n", "rows = 1\ncols = 2\n"),
    ("path", "nodes = 1\n", "nodes = 2\n"),
    ("complete", "nodes = 1\n", "nodes = 2\n"),
    ("erdos_renyi", "nodes = 1\n", "nodes = 2\nedge_prob = 0.9\n"),
])
def test_every_graph_needs_two_nodes(graph, one, two):
    with pytest.raises(ConfigError, match=f"network {graph} needs at least two nodes, got 1"):
        parse_config(ONE_DIM_LINEAR + f"graph = {graph}\n" + one, env={})
    assert parse_config(ONE_DIM_LINEAR + f"graph = {graph}\n" + two, env={}).agents == 2


# every config key in the order the schema has always listed them
KEY_ORDER = [
    ("experiment", "horizon"), ("experiment", "runs"), ("experiment", "seed"),
    ("experiment", "gradient_mode"), ("experiment", "innovation_gradient"),
    ("network", "graph"), ("network", "rows"), ("network", "cols"), ("network", "nodes"),
    ("network", "edge_prob"),
    ("geometry", "domain"), ("geometry", "dim"),
    ("geometry", "box_low"), ("geometry", "box_high"), ("geometry", "floor"),
    ("dynamics", "model"), ("dynamics", "eps"), ("dynamics", "scale"),
    ("noise", "kind"), ("noise", "sigma_v2"), ("noise", "fixed_path"), ("noise", "drift"),
    ("noise", "target_init"),
    ("schedule", "kind"), ("schedule", "eta0"),
    ("loss", "kind"), ("loss", "obs_noise_low"), ("loss", "obs_noise_high"),
    ("loss", "offset_scale"), ("loss", "oracle_noise"),
]


def test_each_field_declares_one_config_key():
    keys = [f.metadata["ini"] for f in fields(ExperimentConfig)]
    assert all(len(key) == 2 for key in keys)
    assert len(set(keys)) == len(keys) == len(KEY_ORDER)
    assert keys == KEY_ORDER
    # SCHEMA is derived from the fields: same keys, attributes and defaults
    assert [(s, k) for s, ks in SCHEMA.items() for k in ks] == KEY_ORDER
    assert [spec[0] for ks in SCHEMA.values() for spec in ks.values()] == [
        f.name for f in fields(ExperimentConfig)]
    listed = [line.split()[0] for line in describe_schema().splitlines()]
    expected = []
    for section, key in KEY_ORDER:
        if f"[{section}]" not in expected:
            expected.append(f"[{section}]")
        expected.append(key)
    assert listed == expected


def test_schema_types_come_from_the_fields():
    assert SCHEMA["experiment"]["horizon"][1] is int
    assert SCHEMA["experiment"]["innovation_gradient"][1] is bool
    assert SCHEMA["network"]["edge_prob"][1] is float
    assert SCHEMA["noise"]["drift"][1] == "vector"
    assert SCHEMA["network"]["graph"][1] == ("grid", "path", "complete", "erdos_renyi")
    assert SCHEMA["experiment"]["seed"][2](0) and not SCHEMA["experiment"]["seed"][2](-1)
    assert SCHEMA["network"]["rows"][3] == "grid rows"


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
