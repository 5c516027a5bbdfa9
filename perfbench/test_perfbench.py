"""Self-tests of the benchmark: span arithmetic and a tiny pass of each workload."""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pb_tracing  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def test_self_time_subtracts_children():
    spans = [
        ("explain", 0.0, 10.0, -1),
        ("perturb", 1.0, 3.0, 0),
        ("models", 4.0, 8.0, 0),
        ("coverage", 5.0, 6.0, 2),
    ]
    assert pb_tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_never_negative_with_overlapping_children():
    spans = [
        ("explain", 0.0, 4.0, -1),
        ("perturb", 1.0, 3.0, 0),
        ("models", 2.0, 6.0, 0),  # overlaps its sibling and overhangs the parent
    ]
    selfs = pb_tracing.self_times(spans)
    assert selfs[0] == pytest.approx(1.0)
    assert min(selfs) >= 0.0


def test_self_times_add_up_to_root():
    tracer = pb_tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        tracer.call("perturb", leaf)
        time.sleep(0.001)
        tracer.call("coverage", leaf)

    tracer.call("explain", lambda: [tracer.call("models", middle) for _ in range(3)])
    balance = pb_tracing.add_up(tracer, wall=pb_tracing.root_time(tracer.spans))
    assert balance["unattributed_s"] == 0.0
    assert balance["attributed_s"] == pytest.approx(pb_tracing.root_time(tracer.spans))
    assert balance["min_self_s"] >= 0.0
    assert [span[3] for span in tracer.spans[:3]] == [-1, 0, 1]


def test_benchmark_json_declares_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(bench_run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(bench_run.WORKLOADS)


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_pass(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outcome = bench_run.run_workload(workload, seed=3, seconds=0.0, trace=True, tiny=True)
    assert outcome.mismatches == 0
    assert not outcome.checks.get("failures")
    assert outcome.failed == 0 and outcome.attempted >= 1
    for trace in (False, True):
        line = bench_run.result_line(outcome, trace)
        assert line["correct"]
        for metric in line["metrics"].values():
            assert metric["value"] == metric["value"]  # not NaN
    assert outcome.metrics["expl_per_s"] > 0
    if workload.startswith("corpus"):
        balance = outcome.checks["add_up"]
        assert balance["min_self_s"] >= 0.0
        assert abs(balance["gap_s"]) < 1e-6
        assert balance["unattributed_s"] >= -1e-9
    if workload == "corpus_uica_proc2":
        assert outcome.layers["runtime.shards"] >= 2
        assert outcome.layers["runtime.worker_self_s"] > 0
        assert outcome.layers["models.inner_queries"] > 0
    if workload == "serve_ithemal_socket":
        assert outcome.checks["result_cache_guard"]["ok"]
        assert outcome.layers["cache.gets"] >= 1
