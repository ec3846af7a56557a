"""Checks of the benchmark itself: tracer coverage, oracle rows, metric list.

    python3 -m pytest -q bench/check_trace.py

The file name keeps it out of the package's own test run: the traced
``amalgam_2d`` iteration alone takes about half a minute.
"""

from __future__ import annotations

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, load_spans, summarize  # noqa: E402


def _bindings():
    namespaces = [importlib.import_module("tfmult")]
    namespaces += [importlib.import_module(f"tfmult.{layer}") for layer in LAYERS]
    layer_modules = {f"tfmult.{layer}" for layer in LAYERS}
    for ns in namespaces:
        for attr, obj in vars(ns).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) in layer_modules):
                yield ns, attr, obj


def test_every_binding_is_wrapped_and_restored():
    import tfmult.cli as cli

    before = {(ns.__name__, attr): obj for ns, attr, obj in _bindings()}
    runners = dict(cli.EXPERIMENTS)
    assert ("tfmult.tf", "centered_fft") in before  # imported by name into tf
    assert ("tfmult.verify", "amalgam_norm_wfl1") in before

    tracer = Tracer("check")
    tracer.install()
    try:
        wrapped = {(ns.__name__, attr): obj for ns, attr, obj in _bindings()}
        assert wrapped.keys() == before.keys()
        assert all(fn.__wrapped__ is before[key] for key, fn in wrapped.items())
        assert all(cli.EXPERIMENTS[exp].__wrapped__ is runner
                   for exp, runner in runners.items())
    finally:
        tracer.uninstall()
    assert {(ns.__name__, attr): obj for ns, attr, obj in _bindings()} == before
    assert cli.EXPERIMENTS == runners


def test_spans_record_parent_and_run_id(tmp_path):
    import tfmult.core as core
    import tfmult.tf as tf

    tracer = Tracer("check-run")
    tracer.install()
    try:
        grid = core.make_grid(1, 16.0, 64)
        f = tf.gaussian_window(grid).field
        tf.modulation_norm(f, tf.gaussian_window(grid), 2, 2, refine=False)
    finally:
        tracer.uninstall()
    tracer.dump(tmp_path / "spans.jsonl")
    spans = load_spans(tmp_path / "spans.jsonl")
    assert {s["run_id"] for s in spans} == {"check-run"}
    by_id = {s["id"]: s for s in spans}
    ffts = [s for s in spans if s["name"] == "core.centered_fft"]
    assert ffts and all(by_id[s["parent"]]["name"] == "tf.modulation_norm" for s in ffts)
    assert all(s["start_ns"] <= s["end_ns"] for s in spans)
    assert summarize(spans)["fft"]["tf_calls"] == len(ffts)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tf_parented_fft_calls_are_counted(workload, tmp_path):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", "1", "--dir", str(tmp_path), "--run-id", "check", "--trace"]
    subprocess.run(cmd, env=run.child_env(), cwd=ROOT, check=True, timeout=170)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_codes"] == [0] * len(result["experiments"])
    fft = summarize(load_spans(tmp_path / "spans.jsonl"))["fft"]
    assert fft["tf_calls"] > 0 and fft["tf_rows"] > 0


def test_oracle_rows():
    text = "\n".join([
        "experiment,parameters,measured,predicted,rel_deviation,refinement_estimate",
        "chirp_stft,t=1;L=32;N=2048;aliased=False,2e-07,0,2e-07,",
        "amalgam_constants,norm=W;t=1;d=1,1.2,1.25,0.04,0.001",
        "lp_contrast,t=1;lambda=1;space=M11,1.5,,,",
        "schrodinger_conservation,f=gauss;t=1;p=1;q=inf,1.1,1.2,0.9,",
        "schrodinger_conservation,f=gauss;t=1;p=2;q=2,1,1,0,",
        "m_inf_1_divergence,t=1;growth_to_L=32,1.9,2,0.05,",
        "operator_probe,alpha=1;p=1;q=1;N=1024,1.3,,0.01,",
    ])
    assert workloads.oracle_deviations(text) == pytest.approx([2e-07, 0.04, 0.0])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    reported = run.per_layer_metrics([], 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in reported.items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
