"""Simulator performance harness: throughput and campaign wall-clock.

Measures the quantities the fast path, the ``repro.jit`` specialization
backend, and the parallel campaigns were built for, and writes them to
a JSON baseline (``benchmarks/BENCH_simulator.json``) so regressions
show up as diffs:

* **cycles/sec** of the pipelined PE on a register-loop microbenchmark,
  for the reference dataclass walk (fast path off), the compiled-trigger
  + memoized fast path, and the JIT backend in per-cycle and block
  dispatch modes;
* **Table 3 suite cycles/sec**: the full ten-workload suite run
  end-to-end through the fused ``System`` loop, interpreter vs JIT,
  with simulation time isolated from workload build/validation;
* **campaign wall-clock** for a CPI campaign over several configs, on
  a serial (no-fork) campaign service and on a pooled one.  The pooled
  leg is only measured (and the speedup only claimed) when the pool is
  wider than one worker; on 1-core hosts the harness records the serial
  number and says so instead of reporting a vacuous ``speedup: 1.0``.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--quick]
        [--cycles N] [--scale N] [--suite-scale N] [--workers N]
        [--out PATH]

``--quick`` shrinks every measurement for CI smoke runs (the JSON is
then written only if ``--out`` is given explicitly).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.asm import assemble
from repro.dse.cpi import CpiTable
from repro.jit import clear_cache
from repro.params import DEFAULT_PARAMS
from repro.pipeline import PipelinedPE, config_by_name
from repro.pipeline.config import all_configs
from repro.serve.client import InProcessClient
from repro.serve.service import CampaignService, resolve_workers
from repro.workloads.suite import WORKLOADS, get_workload

LOOP = """
when %p == XXXXXXX0:
    ult %p1, %r0, $1000000; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    add %r0, %r0, $1; set %p = ZZZZZZ00;
when %p == XXXXXX01:
    halt;
"""

BENCH_CONFIG = "T|D|X1|X2 +P+Q"


def _make_pe(fast_path: bool = True, backend: str = "interp") -> PipelinedPE:
    pe = PipelinedPE(
        config_by_name(BENCH_CONFIG), name="bench", fast_path=fast_path,
        backend=backend,
    )
    assemble(LOOP).configure(pe)
    return pe


def measure_throughput(cycles: int, fast_path: bool, repeats: int = 3) -> float:
    """Best-of-N cycles/sec for per-cycle stepping on the loop program."""
    best = 0.0
    for _ in range(repeats):
        pe = _make_pe(fast_path=fast_path)
        start = time.perf_counter()
        for _ in range(cycles):
            pe.step()
            pe.commit_queues()
        elapsed = time.perf_counter() - start
        best = max(best, cycles / elapsed)
    return best


def measure_jit_throughput(cycles: int, repeats: int = 3) -> tuple[float, float]:
    """Best-of-N (step_mode, block_mode) cycles/sec for the JIT backend.

    *step mode* drives the generated per-cycle ``step`` through the same
    step/commit loop as the interpreter; *block mode* dispatches the
    generated ``run`` block loop via ``run_cycles`` — the form the fused
    ``System`` loop uses.  Codegen happens outside the timed region
    (amortization is covered separately by ``test_bench_jit``).
    """
    best_step = best_block = 0.0
    for _ in range(repeats):
        pe = _make_pe(backend="jit")
        start = time.perf_counter()
        for _ in range(cycles):
            pe.step()
            pe.commit_queues()
        elapsed = time.perf_counter() - start
        best_step = max(best_step, cycles / elapsed)

        pe = _make_pe(backend="jit")
        start = time.perf_counter()
        ran = pe.run_cycles(cycles)
        elapsed = time.perf_counter() - start
        best_block = max(best_block, ran / elapsed)
    return best_step, best_block


def measure_suite(scale: int, repeats: int = 2) -> dict:
    """Table 3 suite cycles/sec, interpreter vs JIT, simulation time only.

    Each workload is built (and validated) outside the timed region;
    only ``System.run`` is timed.  The aggregate is cycle-weighted:
    total simulated cycles over total simulation seconds, best of N
    whole-suite passes.
    """
    cfg = config_by_name(BENCH_CONFIG)

    def one_pass(backend: str) -> tuple[int, float, dict[str, float]]:
        total_cycles, total_seconds, per = 0, 0.0, {}
        for name in WORKLOADS():
            workload = get_workload(name)
            system = workload.build(
                lambda n: PipelinedPE(cfg, DEFAULT_PARAMS, name=n,
                                      backend=backend),
                scale, 1,
            )
            start = time.perf_counter()
            cycles = system.run(max_cycles=8_000_000)
            elapsed = time.perf_counter() - start
            workload.check(system, scale, 1)
            total_cycles += cycles
            total_seconds += elapsed
            per[name] = cycles / elapsed
        return total_cycles, total_seconds, per

    results = {}
    for backend in ("interp", "jit"):
        best = None
        for _ in range(repeats):
            cycles, seconds, per = one_pass(backend)
            if best is None or cycles / seconds > best[0]:
                best = (cycles / seconds, cycles, per)
        results[backend] = best
    speedup = results["jit"][0] / results["interp"][0]
    return {
        "scale": scale,
        "total_cycles": results["interp"][1],
        "interp_cycles_per_sec": round(results["interp"][0]),
        "jit_cycles_per_sec": round(results["jit"][0]),
        "speedup": round(speedup, 2),
        "per_workload_speedup": {
            name: round(results["jit"][2][name] / results["interp"][2][name], 2)
            for name in results["interp"][2]
        },
    }


def measure_campaign(
    scale: int, num_configs: int, workers: int
) -> tuple[float, float | None]:
    """(serial_seconds, parallel_seconds or None) for a CPI campaign.

    The parallel leg only runs when the pool is actually wider than one
    worker; otherwise it would measure the same serial execution plus
    pool overhead and invite a meaningless "speedup" ratio.
    """
    configs = all_configs()[:num_configs]

    def timed(service: CampaignService) -> float:
        with service:
            start = time.perf_counter()
            CpiTable(scale=scale).populate(
                configs, service=InProcessClient(service))
            return time.perf_counter() - start

    serial = timed(CampaignService(None, serial=True))
    if workers <= 1:
        return serial, None
    return serial, timed(CampaignService(None, workers=workers))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=60_000,
                        help="simulated cycles per throughput repeat")
    parser.add_argument("--scale", type=int, default=12,
                        help="workload scale for the campaign measurement")
    parser.add_argument("--suite-scale", type=int, default=96,
                        help="workload scale for the Table 3 suite "
                             "interp-vs-JIT measurement")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width for the parallel campaign "
                             "(default: REPRO_WORKERS, else one per CPU)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny measurements for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: "
                             "benchmarks/BENCH_simulator.json; quick runs "
                             "only write when given explicitly)")
    args = parser.parse_args(argv)

    cycles = 5_000 if args.quick else args.cycles
    scale = 6 if args.quick else args.scale
    suite_scale = 12 if args.quick else args.suite_scale
    num_configs = 2 if args.quick else 8
    repeats = 1 if args.quick else 3
    workers = args.workers or resolve_workers(num_configs)

    clear_cache()
    reference = measure_throughput(cycles, fast_path=False, repeats=repeats)
    fast = measure_throughput(cycles, fast_path=True, repeats=repeats)
    jit_step, jit_block = measure_jit_throughput(cycles, repeats=repeats)
    print(f"throughput reference : {reference:12,.0f} cycles/sec")
    print(f"throughput fast path : {fast:12,.0f} cycles/sec "
          f"({fast / reference:.2f}x)")
    print(f"throughput jit step  : {jit_step:12,.0f} cycles/sec "
          f"({jit_step / fast:.2f}x over fast path)")
    print(f"throughput jit block : {jit_block:12,.0f} cycles/sec "
          f"({jit_block / fast:.2f}x over fast path)")

    suite = measure_suite(suite_scale, repeats=max(2, repeats - 1))
    print(f"suite interp         : {suite['interp_cycles_per_sec']:12,} "
          f"cycles/sec (scale {suite['scale']}, "
          f"{suite['total_cycles']:,} cycles)")
    print(f"suite jit            : {suite['jit_cycles_per_sec']:12,} "
          f"cycles/sec ({suite['speedup']:.2f}x)")

    serial_s, parallel_s = measure_campaign(scale, num_configs, workers)
    print(f"campaign serial      : {serial_s:8.2f} s "
          f"({num_configs} configs, scale {scale})")
    if parallel_s is None:
        print(f"campaign parallel    : skipped (1 worker on a "
              f"{os.cpu_count()}-CPU host; no parallelism to measure)")
        sweep_speedup = None
    else:
        sweep_speedup = serial_s / parallel_s if parallel_s else float("inf")
        print(f"campaign {workers:2d} workers  : {parallel_s:8.2f} s "
              f"({sweep_speedup:.2f}x)")

    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "throughput": {
            "config": BENCH_CONFIG,
            "cycles": cycles,
            "reference_cycles_per_sec": round(reference),
            "fast_path_cycles_per_sec": round(fast),
            "jit_step_cycles_per_sec": round(jit_step),
            "jit_block_cycles_per_sec": round(jit_block),
            "fast_path_speedup": round(fast / reference, 2),
            "jit_speedup_over_fast_path": round(jit_block / fast, 2),
        },
        "suite": suite,
        "campaign": {
            "scale": scale,
            "configs": num_configs,
            "workers": workers,
            "serial_seconds": round(serial_s, 3),
            "parallel_seconds": (
                None if parallel_s is None else round(parallel_s, 3)
            ),
            "speedup": (
                None if sweep_speedup is None else round(sweep_speedup, 2)
            ),
            "note": (
                "parallel leg skipped: single-CPU host"
                if parallel_s is None else ""
            ),
        },
    }
    out = args.out
    if out is None and not args.quick:
        out = os.path.join(os.path.dirname(__file__), "BENCH_simulator.json")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
