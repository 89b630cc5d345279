"""Batch invariance: a run is the same whatever it shares an engine loop with.

One property draws 1-6 keys, with repeats and in any order, from a pool of
config runs and suite cases chosen to merge in every way the runner allows:
an NCV tracking run and its still A = I twin (one setup whose verdicts differ),
quadratic box runs under A = I and A = 0.9 I that share a setup with the
suite's n = 4 box cases, two configs that differ only in noise.target_init,
two grid sizes, a linear simplex run, a linear pair on a [-0.0, 1]^2 box
whose clamped iterates are -0.0, and every suite case at seeds 0-2.  Every
(k, result) of one harness._execute must equal that key executed alone, bit
for bit: iterates, step sizes, losses, path, regret curves, every
BoundReport field and note, sigma2, the ensemble.  A second property asks
the same of sweep: each value's curves equal that value swept alone.  Both
run at the default BATCH_TRACE_BYTES and at caps that split batches.

Tier-1 draws a fixed, derandomized sample (the profile "batch-invariance").
Set BATCH_INVARIANCE_PROFILE=batch-invariance-ci to draw a larger random one.
"""

import os
from dataclasses import fields, is_dataclass, replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import domd.harness
from domd.config import ExperimentConfig
from domd.harness import (_case_draft, _config_draft, _execute, _setup_runs, bound_suite,
                          sweep)

settings.register_profile("batch-invariance", max_examples=100, derandomize=True,
                          deadline=None)
settings.register_profile("batch-invariance-ci", max_examples=1000, deadline=None)
PROFILE = settings.get_profile(os.environ.get("BATCH_INVARIANCE_PROFILE", "batch-invariance"))

# the default cap, one that splits the merged setups, and one replicate a batch
CAPS = (domd.harness.BATCH_TRACE_BYTES, 2 ** 14, 1)


TRACKING = ExperimentConfig(horizon=15)  # NCV on the default box: its verdict fails
# the suite's n = 4 box setup, so these share loops with its static and contracting cases
QUAD = ExperimentConfig(horizon=100, gradient_mode="exact", rows=2, cols=2, dim=2,
                        box_low=-5.0, box_high=5.0, dynamics_model="identity", noise_kind="zero",
                        target_init=(0.5, -0.5), loss_kind="synthetic_quadratic",
                        schedule_kind="inv_sqrt", eta0=0.2)
ZERO_BOX = ExperimentConfig(horizon=20, gradient_mode="exact", rows=1, cols=3, dim=2,
                            box_low=-0.0, box_high=1.0, dynamics_model="identity",
                            noise_kind="zero", target_init=(0.5, 0.5),
                            loss_kind="synthetic_linear", eta0=0.5)
CONFIGS = {
    "tracking_ncv": TRACKING,
    "tracking_still": replace(TRACKING, dynamics_model="identity", noise_kind="zero"),
    "tracking_3x3": replace(TRACKING, rows=3, cols=3),
    "quad_still": QUAD,
    "quad_contract": replace(QUAD, dynamics_model="scaled_identity", dynamics_scale=0.9),
    "quad_moved_start": replace(QUAD, target_init=(-0.5, 0.5)),
    "quad_3x3": replace(QUAD, rows=3, cols=3),
    "linear_simplex": ExperimentConfig(horizon=30, gradient_mode="exact",
                                       domain_kind="simplex", dim=3, dynamics_model="identity",
                                       noise_kind="constant_drift", drift=(1e-4, -1e-4, 0.0),
                                       target_init=(), loss_kind="synthetic_linear"),
    "zero_box_still": ZERO_BOX,
    "zero_box_contract": replace(ZERO_BOX, dynamics_model="scaled_identity",
                                 dynamics_scale=0.9),
}
# name -> key: a config key's item is its run index, a suite key's its (case, seed)
POOL = {**{f"{name} run {i}": (cfg, i) for name, cfg in CONFIGS.items() for i in range(3)},
        **{f"{case.name} seed {s}": (case.cfg, (case, s))
           for case in bound_suite() for s in range(3)}}


def _family(name):
    """What a key's W, domain, oracle mode and horizon are built from: only
    keys of one family may share a setup."""
    cfg = POOL[name][0]
    return (cfg.graph, cfg.rows, cfg.cols, cfg.nodes, cfg.domain_kind, cfg.dim, cfg.box_low,
            cfg.box_high, cfg.floor, cfg.gradient_mode, cfg.horizon)


FAMILIES = {}
for _name in sorted(POOL):
    FAMILIES.setdefault(_family(_name), []).append(_name)
# the families whose keys differ in their config: in dynamics, start target or kind of run
FAMILIES = sorted(names for names in FAMILIES.values() if len({POOL[n][0] for n in names}) > 1)


@st.composite
def _names(draw):
    """1-6 key names, with repeats and in any order: 1-4 of one family, so
    that most draws merge different configs into one setup, and up to two
    from anywhere in the pool."""
    near = draw(st.lists(st.sampled_from(draw(st.sampled_from(FAMILIES))), min_size=1,
                         max_size=4))
    far = draw(st.lists(st.sampled_from(sorted(POOL)), max_size=2))
    return draw(st.permutations(near + far))


def _draft(cfg, item, domain):
    if isinstance(item, tuple):
        return _case_draft(0, 1.0, cfg, item, domain)
    return _config_draft(cfg, item, domain)


def _flat(value, where):
    """(place, bits) of every leaf of value: arrays by dtype, shape and bytes,
    floats by their bytes (so -0.0 is not 0.0), dataclasses field by field."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _flat(getattr(value, f.name), f"{where}.{f.name}")
    elif isinstance(value, np.ndarray):
        yield where, (value.dtype.str, value.shape, value.tobytes())
    elif isinstance(value, float):
        yield where, np.float64(value).tobytes()
    else:
        yield where, value


def _differences(got, want, where):
    got, want = dict(_flat(got, where)), dict(_flat(want, where))
    return [place for place in want if got.get(place, want) != want[place]]


_alone = {}  # key name -> its result executed alone, at the default cap


def _executed_alone(name):
    if name not in _alone:
        [(_, _alone[name])] = _execute(_setup_runs([POOL[name]]), _draft)
    return _alone[name]


@PROFILE
@given(_names(), st.sampled_from(CAPS))
@example(["tracking_ncv run 0", "tracking_still run 1"], CAPS[0])  # one verdict fails, one holds
@example(["quad_still run 0", "quad_moved_start run 0"], CAPS[0])  # two start targets
@example(["zero_box_contract run 0", "zero_box_still run 0"], CAPS[0])  # A = I keeps its -0.0
def test_every_executed_key_is_its_run_alone(names, cap):
    alone = [_executed_alone(name) for name in names]
    with mock.patch.object(domd.harness, "BATCH_TRACE_BYTES", cap):
        results = list(_execute(_setup_runs([POOL[name] for name in names]), _draft))
    assert sorted(k for k, _ in results) == list(range(len(names)))
    for k, result in results:
        assert not _differences(result, alone[k], "result"), (k, names[k])


SWEEP_BASE = {  # param -> (config, its values); geometry.box_high's values build two setups
    "network.rows": (TRACKING, (2, 3, 5)),
    "noise.sigma_v2": (TRACKING, (0.25, 0.5)),
    "loss.obs_noise_high": (TRACKING, (0.5, 2.0)),
    "eta0": (QUAD, (0.1, 0.2)),
    "loss.offset_scale": (QUAD, (0.1, 0.2)),
    "geometry.box_high": (QUAD, (5.0, 6.0)),
    "dynamics.scale": (replace(QUAD, dynamics_model="scaled_identity", noise_kind="constant_drift",
                               drift=(0.01, -0.01)), (0.9, 1.0)),
}


@st.composite
def _sweeps(draw):
    param = draw(st.sampled_from(sorted(SWEEP_BASE)))
    values = draw(st.lists(st.sampled_from(SWEEP_BASE[param][1]), min_size=1, max_size=3))
    return param, tuple(values), draw(st.integers(1, 2)), draw(st.sampled_from(CAPS))


_swept_alone = {}  # (param, value, runs) -> that value swept alone, at the default cap


def _swept(param, value, runs):
    if (param, value, runs) not in _swept_alone:
        _swept_alone[param, value, runs] = sweep(SWEEP_BASE[param][0], param, (value,), runs)
    return _swept_alone[param, value, runs]


@PROFILE
@given(_sweeps())
@example(("network.rows", (3, 5, 3), 2, CAPS[0]))  # the second 3 joins the first one's loop
@example(("geometry.box_high", (6.0, 5.0, 6.0), 2, CAPS[1]))  # quadratic setups, batches split
def test_every_swept_value_is_its_sweep_alone(drawn):
    param, values, runs, cap = drawn
    alone = [_swept(param, value, runs) for value in values]
    with mock.patch.object(domd.harness, "BATCH_TRACE_BYTES", cap):
        result = sweep(SWEEP_BASE[param][0], param, values, runs)
    for j, one in enumerate(alone):
        assert result.values[j] == one.values[0]
        for name in ("mean_curves", "std_curves", "final_mean", "final_std"):
            got, want = getattr(result, name)[j], getattr(one, name)[0]
            assert got.tobytes() == want.tobytes(), (param, values[j], name)
