"""Shared test fixtures, a CSV reader, the target's position path length,
a round's square centers and a set of measured runs; collects acceptance
verdicts for an end-of-run summary."""

from functools import cache

import numpy as np
import pytest

from domd.config import parse_config
from domd.engine import RunTrace
from domd.geometry import box_domain, sample_domain, simplex_domain, start_point
from domd.harness import _case_runs, bound_suite, run_experiment
from domd.objectives import synthetic_suite

_CRITERIA = {}


@pytest.fixture
def record_criterion():
    """Record one acceptance criterion verdict; returns the pass flag."""

    def _record(num, name, ok, detail=""):
        _CRITERIA[num] = (name, bool(ok), detail)
        return bool(ok)

    return _record


def read_csv(path):
    """Read a CSV written by csvio.write_csv. Returns (comments, header, rows of str)."""
    comments, header, rows = [], None, []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header, rows


def target_position_path_length(path, position_dims=(0, 2)):
    """Length of the target's position trajectory (NCV layout by default)."""
    pos = path[:, list(position_dims)]
    return float(np.linalg.norm(np.diff(pos, axis=0), axis=1).sum())


def round_centers(ens, path, t):
    """Round t's square centers formed for that round alone, the batch
    oracles' centers argument: its target (..., 1, d) plus any offsets
    (..., n, d) in one add, independently of the engine's block of them."""
    star = path[..., t - 1, None, :]
    return star if ens.offsets is None else star + ens.offsets[..., t - 1, :, :]


# an exact run on a dim-9 box, whose coordinate reductions are numpy's own
DIM9_INI = """
[experiment]
gradient_mode = exact
horizon = 200
[geometry]
dim = 9
[dynamics]
model = identity
[noise]
kind = constant_drift
drift = 0.01, -0.01, 0.005, 0, 0.002, -0.003, 0.004, -0.005, 0.001
target_init = 0, 0, 0, 0, 0, 0, 0, 0, 0
[loss]
kind = synthetic_quadratic
"""


@cache
def measured_runs():
    """(name, seed, trace, ens, path) of runs whose measurements tests pin
    against reference expressions: every bound_suite case at seeds 0-2, the
    exact dim-9 box run of DIM9_INI, one agent on a box and on a simplex,
    and a trace of no rounds (T = 0); on those boxes coordinate 0 is -0.0."""
    runs = [(case.name, seed, result.trace, result.ensemble, result.path)
            for case in bound_suite()
            for seed, result in enumerate(_case_runs(case, range(3), 0))]
    result = run_experiment(parse_config(DIM9_INI))
    runs.append(("dim9_box", 0, result.trace, result.ensemble, result.path))
    rng = np.random.default_rng(11)
    for name, domain, horizon, n in (("one_agent_box", box_domain([-1.0] * 3, [1.0] * 3), 6, 1),
                                     ("one_agent_simplex", simplex_domain(3, 0.01), 6, 1),
                                     ("no_rounds", box_domain([-1.0] * 2, [1.0] * 2), 0, 4)):
        d = domain.d
        ens = synthetic_suite(5, n, d, horizon, domain, offset_scale=0.001)
        path = np.tile(start_point(domain), (horizon + 1, 1))  # a target at rest
        x = sample_domain(domain, rng, (horizon + 1) * n).reshape(horizon + 1, n, d)
        if domain.kind == "box":
            x[..., 0] = -0.0
        runs.append((name, 0, RunTrace(x=x, etas=np.full(horizon + 1, 0.1), domain=domain),
                     ens, path))
    for *_, trace, ens, path in runs:  # every test shares them
        for array in (trace.x, path, ens.offsets, ens.gradients):
            if array is not None:
                array.flags.writeable = False
    return tuple(runs)


def pytest_sessionfinish(session, exitstatus):
    if not _CRITERIA:
        return
    width = 78
    print()
    print(" acceptance criteria ".center(width, "="))
    for num in sorted(_CRITERIA):
        name, ok, detail = _CRITERIA[num]
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {num}. {name}{suffix}")
    print("=" * width)
