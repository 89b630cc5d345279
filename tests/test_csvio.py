"""Cell formatting and CSV round trips."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from domd import csvio


def test_fmt_none_is_empty():
    assert csvio.fmt(None) == ""


def test_fmt_bools():
    assert csvio.fmt(True) == "true"
    assert csvio.fmt(False) == "false"
    assert csvio.fmt(np.bool_(True)) == "true"


def test_fmt_ints():
    assert csvio.fmt(7) == "7"
    assert csvio.fmt(np.int64(-3)) == "-3"


def test_fmt_strings_pass_through():
    assert csvio.fmt("case_name") == "case_name"


def test_fmt_floats_17_significant_digits():
    assert csvio.fmt(1.0 / 3.0) == "0.33333333333333331"
    assert csvio.fmt(np.float64(0.1)) == "0.10000000000000001"


def test_float_round_trip_is_exact():
    rng = np.random.default_rng(0)
    for v in rng.normal(size=50):
        assert float(csvio.fmt(float(v))) == float(v)


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[1, 0.5, "a", True, None], [2, -1.25, "b", False, 3.0]]
    csvio.write_csv(path, ["t", "x", "name", "flag", "opt"], rows,
                    comments=["hash=abc", "seed=1"])
    comments, header, out = csvio.read_csv(path)
    assert comments == ["hash=abc", "seed=1"]
    assert header == ["t", "x", "name", "flag", "opt"]
    assert out[0] == ["1", "0.5", "a", "true", ""]
    assert out[1] == ["2", "-1.25", "b", "false", "3"]


def test_lf_newlines_only(tmp_path):
    path = tmp_path / "t.csv"
    csvio.write_csv(path, ["a"], [[1], [2]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


# cells where a 17-digit rendering could go wrong: specials, signed zero,
# subnormals, the ends of the float range and integers
_EDGE_FLOATS = st.sampled_from([
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
    1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0 ** 53, 1e16, 1e17,
])
_CELLS = st.one_of(_EDGE_FLOATS, st.floats(),
                   st.integers(-10 ** 6, 10 ** 6).map(float))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=200, deadline=None)
@given(table=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                    elements=_CELLS))
@example(table=np.empty((0, 3)))
@example(table=np.array([[-0.0], [float("nan")], [5e-324]]))
def test_float_table_bytes_match_cell_by_cell(csv_dir, table):
    # the array path writes exactly what fmt writes for the same cells
    header = [f"c{k}" for k in range(table.shape[1])]
    csvio.write_csv(csv_dir / "array.csv", header, table, comments=["seed=1"])
    csvio.write_csv(csv_dir / "cells.csv", header, table.tolist(), comments=["seed=1"])
    assert (csv_dir / "array.csv").read_bytes() == (csv_dir / "cells.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(ints=st.lists(st.integers(-2 ** 53, 2 ** 53), max_size=8),
       value=_CELLS)
def test_integer_valued_float_column_prints_as_int(csv_dir, ints, value):
    # an index column held as floats renders as the ints it replaced
    table = np.column_stack([np.array(ints, dtype=float), np.full(len(ints), value)])
    csvio.write_csv(csv_dir / "array.csv", ["t", "x"], table)
    csvio.write_csv(csv_dir / "cells.csv", ["t", "x"], [[t, value] for t in ints])
    assert (csv_dir / "array.csv").read_bytes() == (csv_dir / "cells.csv").read_bytes()


@pytest.mark.parametrize("cells", [1, 3, 6, 14, 15])
def test_chunked_array_rows_match_cell_by_cell(tmp_path, monkeypatch, cells):
    # rows are rendered about CELLS_PER_CHUNK cells at a time (1, 1, 3, 7 and
    # 7 two-cell rows here); chunk boundaries, a last short chunk and the
    # labels' slices leave no trace in the bytes
    monkeypatch.setattr(csvio, "CELLS_PER_CHUNK", cells)
    table = np.random.default_rng(1).normal(size=(7, 2))
    labels = [f"v{k}" for k in range(7)]
    csvio.write_csv(tmp_path / "plain.csv", ["a", "b"], table)
    csvio.write_csv(tmp_path / "labelled.csv", ["v", "a", "b"], table, labels=labels)
    csvio.write_csv(tmp_path / "cells.csv", ["a", "b"], table.tolist())
    csvio.write_csv(tmp_path / "label_cells.csv", ["v", "a", "b"],
                    [[label] + row for label, row in zip(labels, table.tolist())])
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert (tmp_path / "labelled.csv").read_bytes() == (tmp_path / "label_cells.csv").read_bytes()
