"""Compiled-step economics (not a paper exhibit).

Guards the claims that make the compiled step every fast-path PE's
default: on a workload-scale suite pass, running every PE compiled from
cycle 0 pays for itself (compile time included) against the
interpreter, and a pass compiles at most one module per config (configs
that differ only in queue policy share one), which later passes reuse.
"""

from __future__ import annotations

import time

import repro.jit.cache as jit_cache
from repro.jit import body_name, jit_metrics
from repro.params import DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, config_by_name
from repro.workloads.suite import WORKLOADS, get_workload

CONFIGS = ("T|D|X1|X2 +P+Q", "TD|X")


def _run_suite(scale: int, backend: str | None = None,
               configs=CONFIGS) -> float:
    """CPU seconds for full Table 3 suite passes, build + run + check,
    one per config, on PEs of ``backend`` (default: compiled)."""
    start = time.thread_time()
    for name in configs:
        cfg = config_by_name(name)
        for workload_name in WORKLOADS():
            workload = get_workload(workload_name)
            system = workload.build(
                lambda n: PipelinedPE(cfg, DEFAULT_PARAMS, name=n,
                                      backend=backend),
                scale, 1)
            system.run(max_cycles=8_000_000)
            workload.check(system, scale, 1)
    return time.thread_time() - start


def test_compiled_pass_beats_the_interpreter_compiles_included(bench_scale):
    """A suite pass on default PEs, with its config's compile inside the
    timed window, beats the same pass on ``backend="interp"``."""
    scale = max(bench_scale, 48)
    configs = CONFIGS[:1]

    def compiled_pass() -> float:
        # Drop the process's module so this pass compiles it again.
        jit_cache._MODULES.pop(body_name(config_by_name(configs[0])), None)
        misses = jit_metrics()["misses"]
        seconds = _run_suite(scale, None, configs)
        assert jit_metrics()["misses"] == misses + 1
        return seconds

    compiled = min(compiled_pass() for _ in range(2))
    interpreted = min(_run_suite(scale, "interp", configs) for _ in range(2))
    assert compiled < interpreted, (
        f"compiled pass ({compiled:.2f}s incl compile) did not beat "
        f"the interpreter ({interpreted:.2f}s) at scale {scale}"
    )


def test_suite_pass_compiles_at_most_one_module_per_config(bench_scale):
    """A pass over two configs compiles at most their two modules, and a
    repeated pass compiles none: every PE binds a module already held."""
    before = jit_metrics()
    _run_suite(bench_scale)
    first = jit_metrics()
    _run_suite(bench_scale)
    second = jit_metrics()
    assert first["misses"] - before["misses"] <= len(CONFIGS)
    assert first["entries"] - before["entries"] <= len(CONFIGS)
    assert second["misses"] == first["misses"]
    assert second["entries"] == first["entries"]
    # The suite builds 22 PEs per config and pass; each binds once.
    assert second["hits"] - first["hits"] == 22 * len(CONFIGS)
