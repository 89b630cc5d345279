"""Every config the schema accepts either runs or fails with one named error line.

The configs are drawn from config.SCHEMA itself, so a new key is fuzzed
with no second list: a string key from its choices, a bool either way, an
int or a float inside its check (a float up to 1e20 in size), and a vector
of geometry.dim values; in about a third of the documents one int, float
or vector key falls outside (an int past its check, a float non-finite or
past its check, a vector one value longer or shorter, or with a non-finite
entry).  The sizes a run's cost grows with are always set and capped, so
an example takes milliseconds.  Each example runs `domd run` in process, with numpy's
RuntimeWarnings as errors (see pyproject.toml), and must end in one of three
ways: exit 0 quietly, exit 1 with exactly one `config error:` or
`run error:` line, or exit 2 with VIOLATION lines only.  A second property
sweeps one int or float key of such a document over two values, inside or
outside the key's checks, with `domd sweep --runs 2`: it must exit 0
quietly or exit 1 with one such line, and a usage error (SystemExit) fails.

Tier-1 draws a fixed, derandomized sample (the profile "config-fuzz").  Set
CONFIG_FUZZ_PROFILE=config-fuzz-ci to draw a larger random one (a DOMD_
variable would be read as a config override).
"""

import contextlib
import io
import math
import os
import tempfile
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from domd.cli import main
from domd.config import SCHEMA, ExperimentConfig

settings.register_profile("config-fuzz", max_examples=120, derandomize=True, deadline=None)
settings.register_profile("config-fuzz-ci", max_examples=1500, deadline=None)
PROFILE = settings.get_profile(os.environ.get("CONFIG_FUZZ_PROFILE", "config-fuzz"))

# the keys a run's cost grows with: always set, and at most 16 agents and 60 rounds
SIZE_CAPS = {("experiment", "horizon"): 60, ("network", "rows"): 4,
             ("network", "cols"): 4, ("network", "nodes"): 16}
OTHER_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys
              if (section, key) not in SIZE_CAPS]
# the edges of every float check (positive, nonnegative, a fraction) and past them
FLOAT_EDGES = (-1.0, 0.0, 0.01, 0.5, 1.0, 2.0, math.inf, -math.inf, math.nan)
FLOATS = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(-2.0, 2.0), st.floats(-1e20, 1e20))


def _passes(check, value):
    """Whether a value is finite and passes its key's SCHEMA check, if any."""
    return math.isfinite(value) and (check is None or check(value))


def _can_fail(section_key):
    """Whether section.key has values outside its checks: a float can be non-finite,
    a vector the wrong length, an int only fail its SCHEMA check, if it has one."""
    section, key = section_key
    _, typ, check, _ = SCHEMA[section][key]
    return typ in (float, "vector") or (typ is int and check is not None)


def _value(draw, section, key, dim, wild):
    """One INI value for section.key from its SCHEMA type: inside its check,
    or, when wild, outside it (a float or a vector entry not finite, a
    vector one value longer or shorter than dim)."""
    _, typ, check, _ = SCHEMA[section][key]
    if isinstance(typ, tuple):
        return draw(st.sampled_from(typ))
    if typ is bool:
        return draw(st.sampled_from(("true", "false")))
    if typ is int:
        values = [v for v in range(-1, SIZE_CAPS.get((section, key), 6) + 1)
                  if (check is None or check(v)) != wild]
        return str(draw(st.sampled_from(values)))
    if typ is float:
        if wild:
            return repr(draw(st.sampled_from([v for v in FLOAT_EDGES if not _passes(check, v)])))
        return repr(draw(FLOATS.filter(partial(_passes, check))))
    lengths = [n for n in (dim - 1, dim + 1) if n >= 0] if wild else [dim]
    length = draw(st.sampled_from(lengths))
    entries = [draw(FLOATS.filter(partial(_passes, None))) for _ in range(length)]
    if wild and entries and draw(st.booleans()):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(FLOAT_EDGES[-3:]))
    return ", ".join(map(repr, entries))


@st.composite
def config_documents(draw):
    """An INI document in SCHEMA order: the size keys and a few others, at
    most one of them outside its checks (see _can_fail)."""
    chosen = draw(st.sets(st.sampled_from(OTHER_KEYS), max_size=8)) | set(SIZE_CAPS)
    # about a third of the documents take one key outside its checks
    wild = draw(st.integers(0, 2)) == 0 and draw(st.sampled_from(sorted(filter(_can_fail, chosen))))
    dim = ExperimentConfig().dim  # until the document sets it
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            if (section, key) in chosen:
                value = _value(draw, section, key, max(dim, 0), (section, key) == wild)
                if (section, key) == ("geometry", "dim"):
                    dim = int(value)
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# the defects the property found, each also pinned by its own regression test:
# a one-dimensional simplex (a traceback from geometry.simplex_domain), a
# step so small that the bound's 2 R^2 / eta overflowed with a RuntimeWarning,
# and, over all finite floats, an eps whose residual norms overflowed in
# np.linalg.norm, a noise support whose tracking floor (high - low) ** 2
# raised OverflowError, and a step so large that the disagreement envelope
# L sqrt(n) A[t] overflowed with a RuntimeWarning
FOUND = ("[geometry]\ndomain = simplex\ndim = 1\n[dynamics]\nmodel = identity\n"
         "[noise]\nkind = zero\ntarget_init =\n[loss]\nkind = synthetic_quadratic\n",
         "[experiment]\nhorizon = 39\n[network]\nrows = 4\ncols = 4\n"
         "[schedule]\neta0 = 1.1125369292536007e-308\n",
         "[dynamics]\neps = 1.5531511037296899e+103\n",
         "[experiment]\nhorizon = 1\n[loss]\nobs_noise_high = 1.3407807929942597e+154\n",
         "[schedule]\neta0 = 1.2451206769130281e+303\n")


@PROFILE
@given(config_documents())
@example(FOUND[0])
@example(FOUND[1])
@example(FOUND[2])
@example(FOUND[3])
@example(FOUND[4])
def test_every_schema_config_runs_or_fails_with_one_named_line(document):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "fuzz.ini")
        with open(config, "w") as fh:
            fh.write(document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", config, "--out", os.path.join(tmp, "out")])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith(("config error: ", "run error: ")), lines
    else:
        assert code == 2 and lines, (code, lines)
        assert all(line.startswith("VIOLATION ") for line in lines), lines


# the keys a sweep can name: every int or float key
SWEPT_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key, (_, typ, _, _) in keys.items() if typ in (int, float)]


@st.composite
def sweep_arguments(draw):
    """(param, values) of a sweep: one SWEPT_KEYS key and two of its _value
    values, each inside or outside the key's checks."""
    section, key = draw(st.sampled_from(SWEPT_KEYS))
    values = [_value(draw, section, key, 0, _can_fail((section, key)) and draw(st.booleans()))
              for _ in range(2)]
    return f"{section}.{key}", ",".join(values)


@PROFILE
@given(config_documents(), sweep_arguments())
# a value list that starts with a minus sign once ended in argparse's usage error
@example("[experiment]\nhorizon = 20\n[network]\nrows = 2\ncols = 2\n",
         ("geometry.box_low", "-20000.0,-15000.0"))
def test_every_sweep_of_a_schema_config_runs_or_fails_with_one_named_line(document, arguments):
    param, values = arguments
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "fuzz.ini")
        with open(config, "w") as fh:
            fh.write(document)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["sweep", "--config", config, "--out", os.path.join(tmp, "out"),
                             "--param", param, "--values", values, "--runs", "2"])
            except SystemExit as exc:  # a usage error: the command line itself was refused
                code = f"SystemExit({exc.code})"
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 1 and len(lines) == 1, (code, lines)
        assert lines[0].startswith(("config error: ", "run error: ")), lines
