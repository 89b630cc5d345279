"""Span recorder that wraps domd's layer functions from outside the package.

domd modules import each other's functions by name (``from .network import
mix``), so a function is wrapped by replacing every module attribute in the
``domd`` package that is bound to it, and restored by putting the original
objects back.  Nothing under ``src/`` changes.

Each wrapped call either records a span (name, layer, parent, start, end)
or, for functions called per point or per agent, only bumps a counter, so
that tracing the hot paths does not swamp what it measures.
"""

import contextlib
import dataclasses
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# function -> layer it belongs to; each call records a span
SPANS = {
    ("domd.config", "load_config"): "config.load",
    ("domd.network", "build_grid_graph"): "network.build",
    ("domd.network", "build_path_graph"): "network.build",
    ("domd.network", "build_complete_graph"): "network.build",
    ("domd.network", "random_connected_graph"): "network.build",
    ("domd.network", "metropolis_weights"): "network.weights",
    ("domd.network", "uniform_complete_weights"): "network.weights",
    ("domd.network", "second_singular_value"): "network.sigma2",
    ("domd.network", "mix"): "network.mix",
    ("domd.geometry", "prox"): "geometry.prox",
    ("domd.dynamics", "generate_path"): "dynamics.path",
    ("domd.objectives", "gradients_exact_batch"): "objectives.oracle",
    ("domd.objectives", "gradients_stochastic_batch"): "objectives.oracle",
    ("domd.objectives", "gradient_exact"): "objectives.oracle",
    ("domd.objectives", "gradient_stochastic"): "objectives.oracle",
    ("domd.objectives", "centers_outside_domain"): "objectives.centers",
    ("domd.engine", "run"): "engine.run",
    ("domd.engine", "step"): "engine.step",
    ("domd.metrics", "dynamic_regret"): "metrics.dynamic_regret",
    ("domd.metrics", "static_regret"): "metrics.static_regret",
    ("domd.metrics", "per_agent_loss_gap"): "metrics.local_gap",
    ("domd.metrics", "regret_guarantee"): "metrics.bounds",
    ("domd.metrics", "network_disagreement"): "metrics.disagreement",
    ("domd.harness", "run_experiment"): "harness",
    ("domd.harness", "sweep"): "harness",
    ("domd.harness", "verify_bounds"): "harness",
    ("domd.harness", "exact_run_violations"): "harness",
    ("domd.csvio", "write_csv"): "csvio.write",
}

# function -> layer; each call only increments "<layer>.calls"
COUNTS = {
    ("domd.geometry", "contains"): "geometry.contains",
    ("domd.objectives", "global_loss_batch"): "objectives.loss",
    ("domd.objectives", "loss_value"): "objectives.loss",
}


def _mix_bytes(counters, args, out):
    # W (n x n) read once, states read and result written: computed from shapes
    n = out.shape[0]
    counters["network.mix.bytes_computed"] += n * n * out.itemsize + 2 * out.nbytes


def _trace_bytes(counters, args, out):
    counters["engine.rounds"] += out.horizon
    counters["engine.trace_bytes_computed"] += sum(
        getattr(out, f.name).nbytes for f in dataclasses.fields(out)
        if hasattr(getattr(out, f.name), "nbytes"))


def _csv_written(counters, args, out):
    counters["csvio.write.bytes"] += os.path.getsize(args[0])  # measured on disk


_AFTER = {"network.mix": _mix_bytes, "engine.run": _trace_bytes,
          "csvio.write": _csv_written}


class Recorder:
    """Spans and counters of one traced execution, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, layer, parent index or -1, start, end]
        self.counters = Counter()
        self.missing = []  # table entries the installed domd does not define
        self._open = []

    def _span_wrapper(self, fn, name, layer):
        spans, stack, counters = self.spans, self._open, self.counters
        after = _AFTER.get(layer)
        count_rows = layer == "csvio.write"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_rows:
                args = _counting_rows(counters, args)
            span = [name, layer, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counters, args, out)
            return out

        return wrapper

    def _count_wrapper(self, fn, layer):
        counters, key = self.counters, layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrappers(self):
        """{id(original): (original, wrapper)} for every table entry domd defines."""
        out = {}
        for table, spans in ((SPANS, True), (COUNTS, False)):
            for (module, name), layer in table.items():
                fn = getattr(importlib.import_module(module), name, None)
                if fn is None:
                    self.missing.append(f"{module}.{name}")
                    continue
                out[id(fn)] = (fn, self._span_wrapper(fn, f"{module[5:]}.{name}", layer)
                               if spans else self._count_wrapper(fn, layer))
        return out


def _counting_rows(counters, args):
    # write_csv(path, header, rows, ...): count rows without changing what it gets
    if len(args) < 3:
        return args
    rows = args[2]
    if hasattr(rows, "__len__"):
        counters["csvio.write.rows"] += len(rows)
        return args

    def counted():
        for row in rows:
            counters["csvio.write.rows"] += 1
            yield row

    return args[:2] + (counted(),) + args[3:]


@contextlib.contextmanager
def patched(replacements):
    """Bind each original function to its replacement in every domd module.

    replacements maps id(original) to (original, stand-in); every binding is
    restored on exit.
    """
    done = []
    try:
        for module in [m for k, m in list(sys.modules.items())
                       if k == "domd" or k.startswith("domd.")]:
            for attr, value in list(vars(module).items()):
                original, stand_in = replacements.get(id(value), (None, None))
                if original is value:
                    setattr(module, attr, stand_in)
                    done.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(done):
            setattr(module, attr, value)


@contextlib.contextmanager
def traced(recorder):
    """Record spans and counters into recorder while the block runs."""
    with patched(recorder.wrappers()):
        yield recorder


def summarize(recorder, wall):
    """Per-layer numbers of one traced execution lasting wall seconds.

    busy_s sums the outermost spans of a layer (a layer nested in itself is
    counted once), calls counts those spans, and self_s is span time minus
    the time its child spans cover.  uncovered_share is the part of wall
    that no span covers at all.
    """
    spans = recorder.spans
    child_time = defaultdict(float)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = Counter(recorder.counters)
    covered = 0.0
    for i, (_, layer, parent, start, end) in enumerate(spans):
        dur = end - start
        out[layer + ".self_s"] += dur - child_time[i]
        if parent < 0:
            covered += dur
        p = parent
        while p >= 0 and spans[p][1] != layer:
            p = spans[p][2]
        if p < 0:
            out[layer + ".busy_s"] += dur
            out[layer + ".calls"] += 1
    out["trace.uncovered_share"] = (wall - covered) / wall
    return out
