"""Tests of the benchmark itself: tracing must leave domd as it found it."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import domd
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "domd" or name.startswith("domd.")
            for attr, value in vars(module).items()}


def _small_run(out_dir):
    cfg = replace(workloads.load("default.ini", 5), horizon=50)
    return domd.harness.run_experiment(cfg, out_dir=str(out_dir))


def test_traced_run_restores_every_wrapped_function(tmp_path):
    before = _bindings()
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        assert domd.engine.mix is not before[("domd.engine", "mix")]
        _small_run(tmp_path)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    assert recorder.spans and not recorder.missing


def test_traced_run_restores_bindings_when_the_program_raises():
    before = _bindings()
    with pytest.raises(ValueError):
        with tracer.traced(tracer.Recorder()):
            domd.harness.verify_bounds(0)
    assert all(_bindings()[key] is value for key, value in before.items())


def test_tracing_never_changes_outputs(tmp_path):
    _small_run(tmp_path / "plain")
    domd.harness.verify_bounds(1, out_dir=str(tmp_path / "plain"))
    with tracer.traced(tracer.Recorder()):
        _small_run(tmp_path / "traced")
        domd.harness.verify_bounds(1, out_dir=str(tmp_path / "traced"))
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == ["bounds.csv", "disagreement.csv", "regret.csv", "trajectory.csv",
                     "verify.csv"]
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_traced_run_gives_every_listed_per_layer_metric(tmp_path):
    recorder = tracer.Recorder()
    with tracer.traced(recorder):
        _small_run(tmp_path)
    summary = tracer.summarize(recorder, wall=1.0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    documented = {name for name, _, _ in run.LAYER_METRICS}
    for metric in spec["per_layer"]:
        assert metric["name"] in documented
        assert summary[metric["name"]] > 0, metric["name"]
    assert summary["engine.rounds"] == 50
    assert summary["network.mix.calls"] == 50


def test_tail_is_the_highest_rank_with_ten_samples_above():
    assert run.tail(range(100)) == (90.0, 89, 10)
    assert run.tail(range(11)) == (100.0 / 11, 0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0 / 3, 1.0, 2)


def test_reference_comparison_allows_reordered_sums_only():
    want = json.loads(workloads.REFERENCE.read_text())["workloads"]["sweep_noise"]
    nudged = {k: [v * (1 + 4e-16) for v in vals] for k, vals in want.items()}
    assert workloads.reference_problems("sweep_noise", nudged) == []
    moved = dict(want, final_mean=[v * (1 + 1e-6) for v in want["final_mean"]])
    assert workloads.reference_problems("sweep_noise", moved)
