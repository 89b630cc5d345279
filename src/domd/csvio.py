"""CSV helpers shared by the trace, sweep and report writers.

All files use a header row, comma separators, LF newlines, UTF-8 and
floats rendered with 17 significant digits so that identical inputs
produce byte-identical output.  A file is written as bytes: the kernel's
rendered lines go out as it made them.

A numeric table passes as one 2-D float array, which a numpy kernel renders
about CELLS_PER_CHUNK cells at a time, each cell exactly as format(v,
".17g"), and so fmt, renders it.  The kernel forms |v| * 10**(16 - E), with
E = floor(log10|v|) corrected by one where the product leaves [10**16,
10**17), exactly as hi + lo by Dekker's product: Veltkamp's split makes its
partial products exact, and 10**k is an exact double for k <= 22.  hi, an
even integer there, plus rint(lo) rounds it half to even to the 17 digits.
They never carry to 10**17: "%.17g" round-trips, and for k = -4..17 the
double nearest 10**k is not below it.  Table lookups lay the digits out in
%g's fixed notation.  Zeros come out as "0" and "-0"; cells below 1e-4 or
from 1e17 in magnitude, inf and nan fall back to format one at a time.
Rows that mix strings or flags, and values a float would change (a swept
int above 2**53), go through fmt one cell at a time.
"""

import functools

import numpy as np

# An array table is rendered about this many cells at a time (one row at
# least), which keeps the kernel's temporaries near 1-2 MB.
CELLS_PER_CHUNK = 1 << 13


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 bits each."""
    c = 134217729.0 * a  # (2**27 + 1) * a
    high = c - (c - a)
    return high, a - high


_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact, as 5**22 < 2**53
_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _words(table):
    """Rows of bytes as rows of native uint64 words."""
    return np.ascontiguousarray(table, np.uint8).view(np.uint64)


# A cell's 40-byte slot is five 8-byte words: separator, sign, the "0.000"
# lead of a number below 1 and the first digit, then four groups ".d.d.d.d"
# (a place for the point before each digit).
_SLOT = 40


@functools.cache
def _tables():
    """Built on first use: the first word for each first digit, the group
    word for g = 0..9999 and the place (1 to 4) of its last nonzero digit,
    and per (E, last digit kept, sign) the 0/1 bytes of the slot %g shows."""
    first = _words([list(b",-0.000") + [ord("0") + d] for d in range(10)])[:, 0]
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)
    group = np.stack([np.full_like(digits, ord(".")), ord("0") + digits]).T.reshape(-1, 8)
    group_last = np.where(digits != 0, np.arange(1, 5, dtype=np.int8)[:, None], -99).max(axis=0)
    e = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(17)[:, None, None]
    places = np.arange(1, 17)
    keep = np.ones((21, 17, 2, _SLOT), np.uint8)
    keep[..., 1] = np.arange(2)
    keep[..., 2:7] = e < np.array([0, 0, -1, -2, -3])
    keep[..., 8::2] = (places - 1 == e) & (e < last)
    keep[..., 9::2] = places <= np.maximum(last, e)
    return first, _words(group)[:, 0], group_last, _words(keep.reshape(-1, _SLOT))


def _scaled(a, e):
    """a * 10**(16 - e) exactly, as hi + lo with hi = fl(a * 10**(16 - e))."""
    k = 16 - e
    hi = a * _POW10[k]
    high, low = _split(a)
    return hi, ((high * _POW10_HIGH[k] - hi) + high * _POW10_LOW[k] + low * _POW10_HIGH[k]
                + low * _POW10_LOW[k])


def _outside(hi, lo):
    """Whether the exact hi + lo lies below 10**16, and whether at or above 10**17."""
    return ((hi < 1e16) | ((hi == 1e16) & (lo < 0)),
            (hi > 1e17) | ((hi == 1e17) & (lo >= 0)))


def _render(table, labels):
    """The CSV lines of a 2-D float64 table as bytes, each led by its label."""
    rows, cols = table.shape
    v = table.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    exact = (e >= -5) & (e <= 17)  # fixed notation's -4..16, one decade off at most
    e = np.where(exact, np.minimum(e, 16), 0).astype(np.int64)
    a = np.where(exact, a, 1.0)
    hi, lo = _scaled(a, e)
    below, above = _outside(hi, lo)
    redo = np.flatnonzero(below | above)
    if redo.size:
        e[redo] = np.clip(e[redo] + above[redo] - below[redo], -6, 16)
        hi[redo], lo[redo] = _scaled(a[redo], e[redo])
        exact[redo[np.logical_or(*_outside(hi[redo], lo[redo]))]] = False
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    zero = v == 0
    fallback = ~(exact | zero) | (e < -4) | (e > 16)
    n[zero | fallback] = 0
    e[zero | fallback] = 0
    first_word, group_word, group_last, keep_words = _tables()
    first, rest = np.divmod(n, 10 ** 16)
    groups = [g for half in np.divmod(rest, 10 ** 8) for g in np.divmod(half, 10 ** 4)]
    last = np.zeros_like(n)
    for place, group in zip((0, 4, 8, 12), groups):
        np.maximum(last, place + group_last.take(group), out=last)

    if labels is not None:
        labels = np.array([label.encode() for label in labels]).view(np.uint8).reshape(rows, -1)
    lead = 0 if labels is None else -(-labels.shape[1] // 8) * 8
    out = np.empty((rows, lead + cols * _SLOT + 8), np.uint8)  # labels, cells, newline
    keep = np.empty(out.shape, np.uint8)
    cells = out[:, lead:-8].reshape(rows, cols, _SLOT)
    kept = keep[:, lead:-8].reshape(rows, cols, _SLOT)
    for w, word in enumerate([first_word.take(first)] + [group_word.take(g) for g in groups]):
        cells.view(np.uint64)[..., w] = word.reshape(rows, cols)
    index = ((e + 4) * 17 + last) * 2 + np.signbit(v)
    kept.view(np.uint64)[...] = keep_words.take(index, axis=0).reshape(rows, cols, 5)
    fallback = np.flatnonzero(fallback)
    if fallback.size:
        text = np.array([format(x, ".17g") for x in v[fallback].tolist()], dtype=f"S{_SLOT - 1}")
        text = text.view(np.uint8).reshape(-1, _SLOT - 1)
        r, c = np.divmod(fallback, cols)
        cells[r, c, 1:] = text
        kept[r, c, 1:] = text != 0
    if labels is None:
        keep[:, :1] = 0  # no separator before a row's first cell
    else:
        out[:, :labels.shape[1]] = labels
        keep[:, :lead] = 0
        keep[:, :labels.shape[1]] = labels != 0
    out[:, -8] = ord("\n")
    keep[:, -8:] = np.arange(8) == 0
    return np.compress(keep.view(bool).ravel(), out.ravel()).tobytes()


def fmt(value):
    """Render one cell. Floats get 17 significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(path, header, rows, comments=(), labels=None):
    """Write rows of cells to path.

    rows is either a 2-D float array, rendered by the kernel a chunk of
    about CELLS_PER_CHUNK cells at a time (integer-valued cells below 2**53
    print as integers), or a sequence of rows of mixed cells, each rendered
    by fmt.  labels, with an array, are already-rendered leading cells, one
    per row, written before the row's numbers.  comments are emitted first,
    one per line, prefixed with '# '.  An array that is not 2-D, labels that
    do not match its rows, or a row width that does not match the header
    raise ValueError.
    """
    if not isinstance(rows, np.ndarray):
        rows = list(rows)  # read once, so every row is checked before the file opens
        for k, row in enumerate(rows):
            if len(row) != len(header):
                raise ValueError(f"write_csv got {len(header)} header cells and row {k} "
                                 f"of {len(row)} cells")
    elif rows.ndim != 2:
        raise ValueError(f"write_csv needs a 2-D array, got shape {rows.shape}")
    elif labels is not None and len(labels) != len(rows):
        raise ValueError(f"write_csv got {len(labels)} labels for an array of shape {rows.shape}")
    elif rows.shape[1] + (labels is not None) != len(header):
        raise ValueError(f"write_csv got {len(header)} header cells for an array of shape "
                         f"{rows.shape}{'' if labels is None else ' and labels'}")
    with open(path, "wb") as fh:
        fh.write("".join(f"# {line}\n" for line in comments).encode())
        fh.write((",".join(header) + "\n").encode())
        if isinstance(rows, np.ndarray):
            step = max(1, CELLS_PER_CHUNK // max(1, rows.shape[1]))
            for start in range(0, len(rows), step):
                chunk = np.asarray(rows[start:start + step], dtype=np.float64)
                lead = None if labels is None else labels[start:start + step]
                fh.write(_render(chunk, lead))
        else:
            for row in rows:
                fh.write((",".join(fmt(v) for v in row) + "\n").encode())

