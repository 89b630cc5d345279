"""Shared test fixtures and a CSV reader; collects acceptance verdicts for an
end-of-run summary."""

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
