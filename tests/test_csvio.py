"""Cell formatting and CSV round trips."""

import builtins

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import read_csv
from domd import csvio


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
    rows = [[1, 0.5, "a", True], [2, -1.25, "b", False], [3, 3.0, "c", True]]
    csvio.write_csv(path, ["t", "x", "name", "flag"], rows,
                    comments=["hash=abc", "seed=1"])
    comments, header, out = read_csv(path)
    assert comments == ["hash=abc", "seed=1"]
    assert header == ["t", "x", "name", "flag"]
    assert out == [["1", "0.5", "a", "true"], ["2", "-1.25", "b", "false"],
                   ["3", "3", "c", "true"]]


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


def _reference_csv(header, table, labels=None):
    """The bytes of the row template write_csv used before its kernel: one
    "%.17g" per cell, rows rendered by Python's float formatting."""
    template = ",".join(["%.17g"] * table.shape[1]) + "\n"
    rows = table.tolist()
    if labels is None:
        lines = [template % tuple(row) for row in rows]
    else:
        lines = [label + "," + template % tuple(row) for label, row in zip(labels, rows)]
    return (",".join(header) + "\n" + "".join(lines)).encode()


def _assert_kernel_matches_reference(path, table):
    table = np.concatenate([table, np.zeros(-len(table) % 8)]).reshape(-1, 8)
    header = [f"c{k}" for k in range(8)]
    csvio.write_csv(path, header, table)
    got, want = path.read_bytes(), _reference_csv(header, table)
    if got != want:  # name the first cell that differs
        for row, got_line, want_line in zip(table, got.split(b"\n")[1:], want.split(b"\n")[1:]):
            for v, g, w in zip(row.tolist(), got_line.split(b","), want_line.split(b",")):
                assert g == w, f"{v!r}: kernel wrote {g!r}, format gives {w!r}"
    assert got == want


def _targeted_cells():
    """Cells where an exact 17-digit rendering is easiest to get wrong."""
    rng = np.random.default_rng(5)
    cells = []
    for s in range(1, 75):
        # q / 2**s with q odd: an exact tie at 17 digits where q * 5**s has 18
        # digits (s = 2..25), a long binary fraction everywhere
        low, high = max(1, -(-10 ** 17 // 5 ** s)), min(2 ** 53, 10 ** 18 // 5 ** s)
        qs = rng.integers(low, high, 8) if low < high else []
        qs = np.concatenate([qs, rng.integers(2 ** 52, 2 ** 53, 8)]).astype(np.int64) | 1
        cells += [q / 2 ** s for q in qs.tolist()]
    for k in range(-8, 19):
        p = float(f"1e{k}")
        cells += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        cells += [float(f"9.{'9' * nines}e{k}") for nines in (15, 16, 17)]
    # the doubles nearest to 17-digit ties, and their neighbours
    for e in range(-6, 18):
        for digits in rng.integers(10 ** 16, 10 ** 17, 20).tolist():
            tie = float(f"{digits}5e{e - 17}")
            cells += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]
    cells += [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e17, 1e-4, 1e-5,
              0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, float("inf"), float("nan")]
    return np.array(cells + [-c for c in cells])


def test_kernel_matches_format_on_targeted_cells(tmp_path):
    _assert_kernel_matches_reference(tmp_path / "targeted.csv", _targeted_cells())


def test_kernel_matches_format_on_a_million_seeded_cells(tmp_path):
    rng = np.random.default_rng(23)
    # random bit patterns are almost all outside fixed notation, where format
    # is slow on both sides, so they are an eighth of the 2**20 cells
    bits = rng.integers(0, 2 ** 64, 2 ** 17, dtype=np.uint64)
    wide = rng.uniform(-1, 1, 7 * 2 ** 17) * 10.0 ** rng.uniform(-7, 19, 7 * 2 ** 17)
    _assert_kernel_matches_reference(tmp_path / "seeded.csv",
                                     np.concatenate([bits.view(np.float64), wide]))


def test_only_cells_outside_fixed_notation_fall_back_to_format(tmp_path, monkeypatch):
    # the kernel renders every cell from 1e-4 to below 1e17 itself, those
    # whose exponent estimate it corrects and zeros included
    fell_back = []

    def spy(value, spec):
        fell_back.append(repr(value))
        return builtins.format(value, spec)

    monkeypatch.setattr(csvio, "format", spy, raising=False)
    fixed = [0.0, -0.0, 2.0 ** 53, -1.5, float(np.nextafter(1e17, 0.0))]
    for k in range(-4, 17):
        p = float(f"1e{k}")
        fixed += [p, -float(np.nextafter(p, np.inf))]
        fixed += [float(np.nextafter(p, 0.0))] if k > -4 else []
    outside = [float(np.nextafter(1e-4, 0.0)), 1e17, -1e300, 5e-324, float("inf"), float("nan")]
    table = np.array([fixed + outside])
    header = [f"c{k}" for k in range(table.shape[1])]
    csvio.write_csv(tmp_path / "t.csv", header, table)
    assert fell_back == [repr(v) for v in outside]
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, table)


@pytest.mark.parametrize("cells", [1, 3, 4, 6, 7, 12, 14, 15, 36])
def test_chunked_array_rows_match_cell_by_cell(tmp_path, monkeypatch, cells):
    # rows are rendered about CELLS_PER_CHUNK cells at a time (whole rows,
    # one at least); chunk boundaries, a last short chunk, cells per chunk
    # that split a row and the labels' slices, of 0 to 17 bytes, leave no
    # trace in the bytes
    monkeypatch.setattr(csvio, "CELLS_PER_CHUNK", cells)
    labels = ["", "v", "v2", "value_8", "value_09", "v" * 17, "0.25"]
    for width in (2, 5):
        table = np.random.default_rng(width).normal(size=(7, width))
        header = [f"c{k}" for k in range(width)]
        csvio.write_csv(tmp_path / "plain.csv", header, table)
        csvio.write_csv(tmp_path / "labelled.csv", ["v"] + header, table, labels=labels)
        csvio.write_csv(tmp_path / "cells.csv", header, table.tolist())
        csvio.write_csv(tmp_path / "label_cells.csv", ["v"] + header,
                        [[label] + row for label, row in zip(labels, table.tolist())])
        labelled = (tmp_path / "labelled.csv").read_bytes()
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
        assert labelled == (tmp_path / "label_cells.csv").read_bytes()
        assert labelled == _reference_csv(["v"] + header, table, labels)


def test_labels_that_do_not_match_the_rows_are_refused(tmp_path):
    with pytest.raises(ValueError, match=r"2 labels for an array of shape \(3, 2\)"):
        csvio.write_csv(tmp_path / "t.csv", ["v", "a", "b"], np.zeros((3, 2)), labels=["x", "y"])


def test_a_one_dimensional_array_is_refused(tmp_path):
    with pytest.raises(ValueError, match=r"2-D array, got shape \(3,\)"):
        csvio.write_csv(tmp_path / "t.csv", ["a"], np.zeros(3))


@pytest.mark.parametrize("header, labels", [(["a"], None), (["a", "b", "c"], None),
                                            (["a", "b"], ["x", "y", "z"])])
def test_a_row_width_that_does_not_match_the_header_is_refused(tmp_path, header, labels):
    with pytest.raises(ValueError, match=rf"{len(header)} header cells .* shape \(3, 2\)"):
        csvio.write_csv(tmp_path / "t.csv", header, np.zeros((3, 2)), labels=labels)


@pytest.mark.parametrize("rows, bad, width", [([[1, 2, 3], [4]], 0, 3), ([[1, 2], [4]], 1, 1),
                                              (iter([[1, 2], [3, 4], [5, 6, 7]]), 2, 3)])
def test_a_ragged_cell_row_is_refused_before_the_file_opens(tmp_path, rows, bad, width):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=rf"2 header cells and row {bad} of {width} cells"):
        csvio.write_csv(path, ["a", "b"], rows)
    assert not path.exists()
