"""Shared test fixtures, a CSV reader, the target's position path length and
a round's square centers; collects acceptance verdicts for an end-of-run
summary."""

import numpy as np
import pytest

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
