"""The benchmark's own tests: tracer bookkeeping, declared metrics, and one
traced run per workload with its sum-to-wall, exact-repeat and
predicted-zero checks. They fail loudly if a workload stops exercising the
layers it was chosen for.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

(about a minute and a half: each traced run simulates the workload three
times.)
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.layers import LAYERS, LayerTracer  # noqa: E402
from perfbench.run import PREDICTED_ZERO, WORKLOAD_NAMES  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_self_times_sum_to_time_inside_layers():
    tracer = LayerTracer(("outer", "inner"))

    def busy(ns):
        end = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < end:
            pass

    inner = tracer.wrap("inner", lambda: busy(200_000))

    def _outer(depth):
        busy(100_000)
        inner()
        if depth:
            outer(depth - 1)  # same-layer re-entry: not a second call

    outer = tracer.wrap("outer", _outer)
    tracer.start()
    outer(1)
    busy(100_000)  # outside every layer
    tracer.stop()
    report = tracer.report()
    assert tracer.calls == [1, 2]
    assert sum(tracer.self_ns) == tracer.inside_ns
    assert report["outer.self_ms"] >= 0.2 and report["inner.self_ms"] >= 0.4
    assert report["unattributed.self_ms"] >= 0.1
    total = report["outer.self_ms"] + report["inner.self_ms"]
    assert total + report["unattributed.self_ms"] == pytest.approx(
        report["traced_wall_ms"])


def test_declared_per_layer_metrics_cover_every_layer():
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    for layer in LAYERS + ("unattributed",):
        assert f"{layer}.self_ms" in names
    for layer in LAYERS:
        assert {f"{layer}.calls", f"{layer}.ns_per_call"} <= names
    assert set(PREDICTED_ZERO) <= names
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_checks(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert all(info["checks"].values()), info["checks"]
    assert info["problems"] == [] and info["fail_rate"] == 0
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == declared
    # Each workload exercises the layer it was chosen for.
    chosen = {
        "ddio_rx_exact": "host.cache.calls",
        "bulk_tx_exact": "interpose.rules.calls",
        "rack_fluid": "net.switch.calls",
        "policy_churn": "interpose.commit.calls",
    }[workload]
    assert result["metrics"][chosen]["value"] > 0
