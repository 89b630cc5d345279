"""CSV helpers shared by the trace, path and report writers.

All files use a header row, comma separators, LF newlines and floats
rendered with 17 significant digits so that identical inputs produce
byte-identical output.

Numeric tables (trajectories, disagreement, regret and bound curves) pass
as one 2-D float array and are written one row at a time through a single
"%.17g" template.  That is the same rendering fmt gives a float, and an
integer-valued float below 2**53, such as a round index t, prints as the
integer does.  Rows that mix strings, flags or empty cells, and values a
float would change (a swept int above 2**53), go through fmt one cell at a
time.
"""

import numpy as np

# An array table is turned into Python floats about this many cells at a
# time (one row at least), so a large network's trajectory, a few rows of
# n * d cells, never exists as one list of Python floats.
CELLS_PER_CHUNK = 1 << 16


def fmt(value):
    """Render one cell. Floats get 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows, comments=(), labels=None):
    """Write rows of cells to path.

    rows is either a 2-D float array, written with one "%.17g" template per
    row (integer-valued cells below 2**53 print as integers), a chunk of
    about CELLS_PER_CHUNK cells at a time, or a sequence of rows of mixed
    cells, each rendered by fmt.  labels, with an array, are
    already-rendered leading cells, one per row, written before the row's
    numbers.  comments are emitted first, one per line, prefixed with '# '.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write("# " + line + "\n")
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            step = max(1, CELLS_PER_CHUNK // max(1, rows.shape[1]))
            for start in range(0, len(rows), step):
                chunk = rows[start:start + step].tolist()
                if labels is None:
                    fh.writelines(template % tuple(row) for row in chunk)
                else:
                    fh.writelines(label + "," + template % tuple(row) for label, row
                                  in zip(labels[start:start + step], chunk))
        else:
            for row in rows:
                fh.write(",".join(fmt(v) for v in row) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv. Returns (comments, header, rows of str)."""
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
