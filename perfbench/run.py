"""domd benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_noise --seed 7 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
alternates untraced and traced executions and reports the per-layer
metrics, the tracing overhead and the time no layer span covers.  Every
execution's outputs are checked; an execution at the reference seed is
compared with perfbench/reference.json.  The last stdout line is one JSON
object with the metrics that BENCHMARK.json names.  Exit code 0 on success,
1 when an output check failed, 2 when the benchmark could not run.
"""

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Reported times are in reference seconds: raw seconds scaled by
# KERNEL_REF_S / (time of calibration_kernel run around them).  The host's
# speed drifts by up to 2x over minutes; the ratio to a kernel that is
# bound by what bounds the workload does not.  Keyed by Workload.blas_bound.
KERNEL_REF_S = {False: 0.03, True: 0.08}

# per-layer metric, unit, and the end-to-end metric and workload it should move
LAYER_METRICS = (
    ("config.load.busy_s", "s", "setup_s on every config workload; a control"),
    ("network.build.busy_s", "s", "setup_s and wall_s on gossip_er1000"),
    ("network.weights.busy_s", "s", "setup_s and wall_s on gossip_er1000"),
    ("network.sigma2.busy_s", "s", "setup_s on gossip_er1000"),
    ("network.sigma2.calls", "count", "setup_s on gossip_er1000; 1 per case-seed in verify"),
    ("network.mix.busy_s", "s", "wall_s and exp_p50_ms on gossip_er1000"),
    ("network.mix.calls", "count", "wall_s and exp_p50_ms on gossip_er1000"),
    ("network.mix.bytes_computed", "bytes", "wall_s on gossip_er1000; from array shapes"),
    ("geometry.prox.busy_s", "s", "wall_s on sweep_noise (box) and verify_bounds (KL)"),
    ("geometry.prox.calls", "count", "wall_s on sweep_noise and verify_bounds"),
    ("geometry.contains.calls", "count", "wall_s on verify_bounds"),
    ("dynamics.path.busy_s", "s", "wall_s on sweep_noise"),
    ("objectives.oracle.busy_s", "s", "wall_s on sweep_noise"),
    ("objectives.oracle.calls", "count", "wall_s on sweep_noise"),
    ("objectives.centers.busy_s", "s", "wall_s on verify_bounds"),
    ("objectives.loss.calls", "count", "wall_s on sweep_noise and verify_bounds"),
    ("engine.run.busy_s", "s", "wall_s on sweep_noise and gossip_er1000; the whole engine"),
    ("engine.run.self_s", "s", "wall_s and exp_p50_ms on sweep_noise and run_tracking_csv"),
    ("engine.step.self_s", "s", "wall_s and exp_p50_ms on sweep_noise and run_tracking_csv"),
    ("engine.rounds", "count", "work done; a control"),
    ("engine.trace_bytes_computed", "bytes", "peak_rss_mb on gossip_er1000; from array shapes"),
    ("metrics.dynamic_regret.busy_s", "s", "wall_s on sweep_noise and run_tracking_csv"),
    ("metrics.static_regret.busy_s", "s", "wall_s on sweep_noise and run_tracking_csv"),
    ("metrics.local_gap.busy_s", "s", "wall_s on verify_bounds"),
    ("metrics.bounds.busy_s", "s", "under 1% everywhere; a control"),
    ("metrics.disagreement.busy_s", "s", "under 1% everywhere; a control"),
    ("harness.self_s", "s", "setup_s on every workload; assembly no child span covers"),
    ("csvio.write.busy_s", "s", "wall_s on run_tracking_csv, not sweep_noise"),
    ("csvio.write.bytes", "bytes", "wall_s on run_tracking_csv; measured file sizes"),
    ("csvio.write.rows", "count", "wall_s on run_tracking_csv"),
)

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    """Where the numbers were taken: machine, versions, BLAS threads, commit."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"l{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "l2_cache": caches.get("l2", "unknown"), "l3_cache": caches.get("l3", "unknown"),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads(), "git_commit": commit}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or the pinned setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} (not queried)"


def calibration_kernel(blas_bound):
    """Seconds taken by fixed numpy work that does not touch domd.

    Small-array steps in a Python loop, like domd's engine at n = 25; for a
    BLAS-bound workload also a product on a cache-sized matrix and one that
    streams an 8 MB matrix, like mixing on the 1000-node graph.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((25, 4))
    w = np.full((25, 25), 1.0 / 25)
    mid = rng.standard_normal((500, 500)) / 500
    big = rng.standard_normal((1000, 1000)) / 1000
    v = rng.standard_normal((500, 4))
    u = rng.standard_normal((1000, 4))
    start = time.perf_counter()
    for _ in range(3000):
        x = np.clip(w @ x - 0.01 * x, -5.0, 5.0)
    if blas_bound:
        for _ in range(150):
            v = mid @ v
            v /= np.abs(v).max()
        for _ in range(40):
            u = big @ u
            u /= np.abs(u).max()
    return time.perf_counter() - start


def setup_seconds(workload, seed):
    """Fresh interpreter -> first experiment assembled, as seen from outside."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "assembled":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return took


class Run:
    """Executions of one workload and everything measured or checked on them."""

    def __init__(self, workloads, tracer, wl, out_dir):
        self.workloads, self.tracer, self.wl, self.out_dir = workloads, tracer, wl, out_dir
        self.attempted = self.failed = 0
        self.problems = []
        self.notes = set()
        self.digests = {}

    def execute(self, seed, recorder=None, reference=False):
        """One execution; returns (wall seconds, experiment latencies, outcome).

        reference=True also compares the outcome with the stored reference values.
        """
        wl = self.wl
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        entries = []
        ctx = (self.tracer.traced(recorder) if recorder is not None
               else self.tracer.patched(self._boundary_hook(entries)))
        self.attempted += wl.experiments
        try:
            with ctx:
                start = time.perf_counter()
                raw = wl.run(seed, self.out_dir)
                wall = time.perf_counter() - start
            outcome = wl.check(raw, self.out_dir)
        except Exception:
            self._fail(seed, ["raised " + traceback.format_exc().strip().splitlines()[-1]])
            traceback.print_exc()
            return None, [], None
        del raw
        problems = list(outcome.problems)
        if reference:
            problems += self.workloads.reference_problems(wl.name, outcome.values)
        key = seed if wl.seeded else None
        first = self.digests.setdefault(key, outcome.digests)
        problems += [f"{name} differs from an earlier execution with the same seed"
                     for name in first if first[name] != outcome.digests.get(name)]
        if problems:
            self._fail(seed, problems)
        laps = self._latencies(entries, start, wall) if recorder is None else []
        return wall, laps, outcome

    def _fail(self, seed, problems):
        self.failed += self.wl.experiments
        self.problems += [f"seed {seed}: {p}" for p in problems]

    def _boundary_hook(self, entries):
        module, name = self.wl.boundary
        fn = getattr(importlib.import_module(module), name)

        def hook(*args, **kwargs):
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entries.append((begin, time.perf_counter()))

        return {id(fn): (fn, hook)}

    def _latencies(self, entries, start, wall):
        wl = self.wl
        if len(entries) != wl.experiments:
            self.notes.add(f"{'.'.join(wl.boundary)} ran {len(entries)} times for "
                           f"{wl.experiments} experiments; latency is wall_s split evenly")
            return [wall / wl.experiments] * wl.experiments
        if wl.partition:
            edges = [start] + [begin for begin, _ in entries[1:]] + [start + wall]
            return [b - a for a, b in zip(edges, edges[1:])]
        return [end - begin for begin, end in entries]


def tail(samples):
    """(percentile, value, samples above it) at the highest nearest-rank
    percentile with ten samples above it; with ten or fewer samples no rank
    has, and the lowest rank is used, so the value never jumps to the maximum."""
    xs = sorted(samples)
    rank = max(len(xs) - 10, 1)
    return 100.0 * rank / len(xs), xs[rank - 1], len(xs) - rank


def measure(run, seed, seconds, ref_seed):
    """End-to-end metrics with tracing off, in reference seconds."""
    blas, ref = run.wl.blas_bound, KERNEL_REF_S[run.wl.blas_bound]
    setups = []
    for _ in range(SETUP_PROBES):
        kernel = calibration_kernel(blas)
        setups.append((setup_seconds(run.wl.name, seed), kernel))
    run.execute(ref_seed, reference=True)  # also warms caches before timing
    timed = []  # (wall, experiment latencies, kernel before, kernel after)
    before = calibration_kernel(blas)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not timed:
        wall, laps, _ = run.execute(seed)
        after = calibration_kernel(blas)
        if wall is not None:
            timed.append((wall, laps, before, after))
        elif time.perf_counter() >= deadline:
            break
        before = after
    if not timed:
        return None, []
    scales = [2 * ref / (k0 + k1) for _, _, k0, k1 in timed]
    walls = [wall * f for (wall, _, _, _), f in zip(timed, scales)]
    latencies = [lap * f for (_, laps, _, _), f in zip(timed, scales) for lap in laps]
    kernels = [k for _, k in setups] + [k for *_, k0, k1 in timed for k in (k0, k1)]
    setup = statistics.median(t * ref / k for t, k in setups)
    pct, value, beyond = tail(latencies)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup, "wall_s": statistics.median(walls),
               "exp_p50_ms": 1e3 * statistics.median(latencies), "exp_tail_ms": 1e3 * value,
               "peak_rss_mb": peak}
    lines = [
        f"setup_s = {setup:.6f} s (median of {len(setups)} fresh interpreters; "
        f"raw median {statistics.median(t for t, _ in setups):.6f} s)",
        f"wall_s = {metrics['wall_s']:.6f} s (median of {len(walls)} executions; "
        f"raw median {statistics.median(t[0] for t in timed):.6f} s)",
        f"exp_p50_ms = {metrics['exp_p50_ms']:.4f} ms (median of {len(latencies)} experiments)",
        f"exp_tail_ms = {metrics['exp_tail_ms']:.4f} ms (p{pct:.1f} of {len(latencies)} "
        f"experiments, {beyond} beyond it" + (", fewer than ten)" if beyond < 10 else ")"),
        f"peak_rss_mb = {peak:.3f} MB (getrusage of this process)",
        f"times are reference seconds: raw x {ref} s / calibration kernel time "
        f"(kernel median {statistics.median(kernels):.6f} s over {len(kernels)} runs)",
    ]
    return metrics, lines


def measure_traced(run, seed, seconds, ref_seed, trace_file):
    """Per-layer metrics from traced executions, alternating with untraced ones.

    Times are in reference seconds, like those of measure().
    """
    wl, tracer = run.wl, run.tracer
    blas, ref = wl.blas_bound, KERNEL_REF_S[wl.blas_bound]
    run.execute(ref_seed, reference=True)
    plain, traced, summaries, first = [], [], [], None
    before = calibration_kernel(blas)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        recorder = tracer.Recorder() if len(plain) > len(traced) else None
        wall, _, _ = run.execute(seed, recorder)
        after = calibration_kernel(blas)
        scale = 2 * ref / (before + after)
        before = after
        if wall is None:
            if time.perf_counter() >= deadline:
                break
            continue
        if recorder is None:
            plain.append(wall * scale)
            continue
        traced.append(wall * scale)
        summaries.append({k: v * scale if k.endswith("_s") else v
                          for k, v in tracer.summarize(recorder, wall).items()})
        if first is None:
            first, first_wall = recorder, wall
            run.notes.update(f"{name} is not defined; not traced" for name in recorder.missing)
    if not traced:
        return None, []
    keys = set().union(*summaries)
    metrics = {k: statistics.median(s.get(k, 0) for s in summaries) for k in keys}
    wall = statistics.median(traced)
    overhead = wall - statistics.median(plain)
    lines = [f"{name} = {metrics.get(name, 0):.6g} {unit} (-> {why})"
             for name, unit, why in LAYER_METRICS]
    lines += [f"share of traced wall_s: {name} {metrics.get(name, 0) / wall:.1%}"
              for name, unit, _ in LAYER_METRICS if unit == "s"]
    lines += [
        f"trace.uncovered_share = {metrics['trace.uncovered_share']:.2%} of traced wall_s "
        "(no layer span covers it)",
        f"trace.overhead_s = {overhead:.6f} s (traced wall_s {wall:.6f} minus untraced "
        f"{statistics.median(plain):.6f}; {len(traced)} traced, {len(plain)} untraced executions)",
    ]
    trace_file.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "raw_wall_s": first_wall,
        "spans": [["name", "layer", "parent", "start", "end"]] + first.spans,  # raw seconds
        "counters": dict(first.counters),
        "per_layer_medians_reference_s": metrics, "overhead_s": overhead,
    }))
    return metrics, lines


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads (and inherited by the set-up
    # probes), so the benchmark never uses more threads than there are cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (ROOT / "src" / "domd" / "__init__.py").is_file():
        print(f"perfbench: no domd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import tracer
        import workloads
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / wl.name
    run = Run(workloads, tracer, wl, out / "exec")
    ref_seed = workloads.reference_seed()
    env = environment()
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if not wl.seeded:
        print(f"note: verify_bounds fixes its suite seeds to 0..{workloads.VERIFY_SEEDS - 1}; "
              f"--seed {args.seed} does not reach this workload")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    try:
        if args.trace:
            metrics, lines = measure_traced(run, args.seed, args.seconds, ref_seed,
                                            out / "trace.json")
            wanted = spec["per_layer"]
        else:
            metrics, lines = measure(run, args.seed, args.seconds, ref_seed)
            wanted = spec["end_to_end"]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed_frac = run.failed / run.attempted
    for line in lines + [f"failed_frac = {failed_frac:.6g} ({run.failed} of {run.attempted} "
                         "experiments failed)"] + sorted(f"note: {n}" for n in run.notes):
        print(line)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not run.problems and metrics is not None
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": (metrics or {}).get(m["name"], 0),
                                      "unit": m["unit"]} for m in wanted}}
    (out / "report.json").write_text(json.dumps(
        {"env": env, "lines": lines, "problems": run.problems, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
