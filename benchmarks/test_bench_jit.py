"""Hot-PE promotion economics (not a paper exhibit).

Guards the claims that make promotion the simulator's default: on a
workload-scale suite pass, compiling the PEs still busy at the
promotion mark pays for itself (compile time included), and a pass
compiles only those PEs, holding each module no longer than its run.
"""

from __future__ import annotations

import gc
import time

import repro.fabric.system as fabric_system
from repro.jit import jit_metrics
from repro.params import DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, config_by_name
from repro.workloads.suite import WORKLOADS, get_workload

CONFIG = "T|D|X1|X2 +P+Q"


def _run_suite(scale: int) -> float:
    """Wall-clock for one full Table 3 suite pass, build + run + check,
    on default (interpreter-backend) PEs, so promotion compiles inside
    the timed window."""
    cfg = config_by_name(CONFIG)
    start = time.perf_counter()
    for name in WORKLOADS():
        workload = get_workload(name)
        system = workload.build(
            lambda n: PipelinedPE(cfg, DEFAULT_PARAMS, name=n), scale, 1)
        system.run(max_cycles=8_000_000)
        workload.check(system, scale, 1)
    return time.perf_counter() - start


def test_promotion_pays_for_itself_within_one_suite_run(bench_scale,
                                                        monkeypatch):
    """A promoting suite pass (compiles included) beats the same pass
    with promotion held off."""
    scale = max(bench_scale, 48)
    promoting = min(_run_suite(scale) for _ in range(2))
    monkeypatch.setattr(fabric_system, "PROMOTE_AT_CYCLE", 1 << 62)
    interpreted = min(_run_suite(scale) for _ in range(2))
    assert promoting < interpreted, (
        f"promoting pass ({promoting:.2f}s incl compiles) did not beat "
        f"the interpreter (interp {interpreted:.2f}s) at scale {scale}"
    )


def test_suite_pass_compiles_only_hot_pes_and_holds_no_module(bench_scale):
    """Every compile of a suite pass is a promotion, a repeated pass
    compiles exactly as many, and no module outlives its run."""
    gc.collect()
    before = jit_metrics()
    _run_suite(bench_scale)
    first = jit_metrics()
    _run_suite(bench_scale)
    second = jit_metrics()
    compiles = first["misses"] - before["misses"]
    assert compiles == first["promotions"] - before["promotions"]
    assert second["misses"] - first["misses"] == compiles
    # Far fewer modules than PEs: the suite builds 22 PEs per pass.
    assert compiles <= 5
    assert second["entries"] == before["entries"]
