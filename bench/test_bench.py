"""Tests for the benchmark itself: PYTHONPATH=src python -m pytest bench -q"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_p90_needs_ten_samples_beyond_it():
    assert workloads.percentile([float(v) for v in range(1, 100)], 0.9) is None
    assert workloads.percentile([float(v) for v in range(1, 101)], 0.9) == 90.0
    assert workloads.percentile([], 0.9) is None


@pytest.mark.parametrize("old, new, better, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.03, 1.01, 1.02], "lower", "unchanged"),
    ([1.0, 1.01, 0.99, 1.0], [1.20, 1.21, 1.19, 1.20], "lower", "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [0.80, 0.81, 0.79, 0.80], "lower", "improved"),
    ([1.0, 1.01, 0.99, 1.0], [0.80, 0.81, 0.79, 0.80], "higher", "regressed"),
    ([1.0, 1.5, 0.6, 1.0], [1.0, 1.4, 0.7, 1.1], "lower", "unresolved"),
    ([1.0, 1.5, 0.9, 1.2], [0.5, 0.8, 0.4, 0.6], "lower", "improved"),
])
def test_compare_verdicts(old, new, better, expected):
    assert run.verdict(old, new, better, 0.1) == expected


def test_compare_flags_a_rise_in_failures():
    def doc(failed):
        return {"workloads": {"verify-gates": {"runs": [
            {"metrics": {"op_s": 7.0}, "attempted": 2, "failed": failed}]}}}

    rows = run.compare(doc(0), doc(1), _spec())
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric == {"op_s": "unchanged", "failed_ratio": "regressed"}


def test_compare_gates_only_on_benchmark_metrics_and_failures():
    def doc(op_s, op_wall_s):
        return {"workloads": {"exhibits-warm": {"runs": [
            {"metrics": {"op_s": op_s, "op_wall_s": op_wall_s},
             "attempted": 1, "failed": 0}]}}}

    rows = run.compare(doc(0.5, 0.5), doc(0.5, 0.9), _spec())
    gates = {row["metric"]: (row["verdict"], row["gates"]) for row in rows}
    assert gates == {"op_s": ("unchanged", True),
                     "op_wall_s": ("regressed", False),
                     "failed_ratio": ("unchanged", True)}


def test_pacer_times_the_reference_and_leaves_it_out():
    with workloads.Pacer() as pacer:
        _wall, before = pacer.clocks()
        busy_until = time.thread_time() + 1.0
        while time.thread_time() < busy_until:
            pass
        _wall, after = pacer.clocks()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.samples) >= 3
    assert after - before == pytest.approx(1.0 - pacer.cpu, abs=0.02)


def test_pacer_normalizes_a_span_by_the_timings_near_it():
    pacer = workloads.Pacer()
    pacer.times = [0.0, 0.2, 0.4, 5.0, 5.2, 5.4]
    pacer.samples = [0.01, 0.01, 0.01, 0.02, 0.02, 0.02]
    reference, power = workloads.REFERENCE_S, workloads.HOST_SENSITIVITY
    assert pacer.normalize(0.1, 0.3) == pytest.approx((reference / 0.01) ** power)
    assert pacer.normalize(4.5, 5.1) == pytest.approx((reference / 0.02) ** power)
    # Fewer than three timings near the span: all of them count.
    assert pacer.normalize(2.5, 2.6) == pytest.approx((reference / 0.015) ** power)


def test_cpu_seconds_counts_live_children():
    before = workloads.cpu_seconds()
    busy_read, busy_write = os.pipe()
    done_read, done_write = os.pipe()
    pid = os.fork()
    if pid == 0:                              # busy for 0.3 s, then wait
        busy_until = time.process_time() + 0.3
        while time.process_time() < busy_until:
            pass
        os.write(busy_write, b".")
        os.read(done_read, 1)
        os._exit(0)
    try:
        os.read(busy_read, 1)
        assert pid in workloads.children()
        assert workloads.cpu_seconds() - before >= 0.3
    finally:
        os.write(done_write, b".")
        os.waitpid(pid, 0)
        for fd in (busy_read, busy_write, done_read, done_write):
            os.close(fd)


def _span(pid, span_id, parent, start, end, name="dse.sweep"):
    return {"name": name, "pid": pid, "id": span_id, "parent": parent,
            "start": start, "end": end, "hot_s": 0.0, "attrs": {}}


def test_layer_self_times_plus_unattributed_equal_wall():
    spans = [
        _span(1, 0, None, 0.0, 4.0, "dse.sweep"),
        _span(1, 1, 0, 0.5, 1.5, "workloads.run"),
        _span(1, 2, 1, 0.6, 1.0, "fabric.run"),
        _span(1, 3, None, 5.0, 6.0, "eval.table3.render"),
        _span(2, 0, None, 0.0, 3.0, "workloads.run"),   # a worker's
    ]
    layers, unattributed = tracing.main_breakdown(spans, 1, 7.5)
    assert layers == pytest.approx({"dse": 3.0, "workloads": 0.6,
                                    "fabric": 0.4, "eval": 1.0})
    assert unattributed == pytest.approx(2.5)
    assert sum(layers.values()) + unattributed == pytest.approx(7.5)


def test_worker_spans_are_merged_per_pid(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    hot = tracer.hot_call("pipeline.step", lambda: None)
    outer = tracer.span("workloads.run",
                        lambda: [hot() for _ in range(3)])
    outer()                                   # the main process keeps its own
    pid = os.fork()
    if pid == 0:                              # a worker: flushes on return
        try:
            outer()
            outer()
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    spans, records = tracing.merge(str(tmp_path))
    assert [span["pid"] for span in spans] == [pid, pid]
    assert [span["parent"] for span in spans] == [None, None]
    assert [record["counters"]["pipeline.step.calls"] for record in records] \
        == [3, 3]
    assert len(tracer.spans) == 1 and tracer.pid == os.getpid()


def test_metric_units_match_benchmark_json():
    spec = _spec()
    for metric in spec["per_layer"]:
        assert tracing.LAYER_METRICS[metric["name"]] == metric["unit"]
    assert not set(run.WORKLOAD_METRICS) & {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_quick_traced_run_emits_every_metric_and_fires_every_seam(tmp_path):
    out = tmp_path / "quick.json"
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 30.0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4
    spec = _spec()
    doc = json.loads(out.read_text())
    fired: set[str] = set()
    for name, entry in doc["workloads"].items():
        for metric in spec["end_to_end"]:
            assert entry["median"][metric["name"]] is not None, metric
        for metric in spec["per_layer"]:
            assert f"{name}/{metric['name']}" in last["metrics"]
        assert set(tracing.LAYER_METRICS) <= set(entry["layers"])
        traced = entry["runs"][0]
        assert (sum(traced["main_self_s"].values())
                + traced["main_unattributed_s"]
                == pytest.approx(traced["wall_s"]))
        fired |= set(traced["seams_fired"])
    assert set(tracing.seam_names()) <= fired
    assert doc["report_sha256"]
