"""Simulator performance harness: throughput and campaign time.

Measures the quantities the fast path, the ``repro.jit`` compiled step,
and the parallel campaigns were built for, and writes them to a JSON
baseline (``benchmarks/BENCH_simulator.json``) so regressions show up
as diffs:

* **cycles/sec** of the pipelined PE on a register-loop microbenchmark,
  for the reference dataclass walk (fast path off), the fast path on
  the interpreter (``backend="interp"``), and the compiled step every
  fast-path PE runs by default, stepped per cycle and run as a one-PE
  ``System`` (block dispatch);
* **Table 3 suite cycles/sec**: the full ten-workload suite run
  end-to-end through ``System.run``'s loop, interpreter vs the
  compiled default, with simulation time isolated from workload
  build/validation;
* **campaign seconds** for a CPI campaign over several configs, on a
  serial (no-fork) campaign service and on a pooled one.  The pooled
  leg is only measured (and the speedup only claimed) when the pool is
  wider than one worker; on 1-core hosts the harness records the serial
  number and says so instead of reporting a vacuous ``speedup: 1.0``.

Every leg runs in this process's main thread except the pooled
campaign, so each is timed in thread CPU seconds (``time.thread_time``),
which leave out the time a shared host takes the CPU away; the pooled
leg's work runs in worker processes and is timed by the wall clock.
Each leg is repeated (5 times, once with ``--quick``), the legs of one
measurement taking turns, and the JSON records the median with the min
and max of the repeats.

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
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.asm import assemble
from repro.dse.cpi import CpiTable
from repro.fabric import System
from repro.jit import reset_metrics
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
REPEATS = 5


def _spread(samples: list[float], digits: int = 0) -> dict:
    """Median, min and max of the repeats."""
    return {
        "median": round(statistics.median(samples), digits),
        "min": round(min(samples), digits),
        "max": round(max(samples), digits),
    }


def _make_pe(fast_path: bool = True, backend: str | None = None,
             source: str = LOOP) -> PipelinedPE:
    pe = PipelinedPE(
        config_by_name(BENCH_CONFIG), name="bench", fast_path=fast_path,
        backend=backend,
    )
    assemble(source).configure(pe)
    return pe


def _stepped(pe: PipelinedPE, cycles: int) -> float:
    """Cycles per CPU second of per-cycle stepping."""
    start = time.thread_time()
    for _ in range(cycles):
        pe.step()
        pe.commit_queues()
    return cycles / (time.thread_time() - start)


def measure_loop(cycles: int, repeats: int = REPEATS) -> dict[str, list[float]]:
    """Cycles per CPU second of each repeat on the loop program.

    ``reference`` and ``fast_path`` step the interpreter per cycle with
    the reference walk and the fast path (``backend="interp"``);
    ``jit_step`` steps the default PE, whose ``step`` runs its config's
    compiled cycle, through the same loop; ``jit_block`` runs a copy of
    the loop that halts after about ``cycles`` cycles (it takes three a
    turn on ``BENCH_CONFIG``) as a one-PE ``System``, whose run loop
    hands the run to the block loop, ``repro.jit.cache.run_block``.  The
    config's module is
    compiled before the timed region (compile economics are covered by
    ``test_bench_jit``).  Each repeat runs the four legs in turn, so a
    slow spell of the host lands on all of them.
    """
    halting = LOOP.replace("$1000000", f"${max(1, cycles // 3)}")
    rates: dict[str, list[float]] = {
        "reference": [], "fast_path": [], "jit_step": [], "jit_block": [],
    }
    for _ in range(repeats):
        rates["reference"].append(_stepped(_make_pe(fast_path=False), cycles))
        rates["fast_path"].append(
            _stepped(_make_pe(backend="interp"), cycles))
        rates["jit_step"].append(_stepped(_make_pe(), cycles))
        system = System()
        system.add_pe(_make_pe(source=halting))
        start = time.thread_time()
        ran = system.run()
        rates["jit_block"].append(ran / (time.thread_time() - start))
    return rates


def measure_suite(scale: int, repeats: int = REPEATS) -> dict:
    """Table 3 suite cycles/sec, interpreter (``backend="interp"``) vs
    the compiled default, simulation time only.  A default PE binds its
    config's module when its program loads, before the timed region.

    Each workload is built (and validated) outside the timed region;
    only ``System.run`` is timed, in CPU seconds.  A pass's rate is
    cycle-weighted: total simulated cycles over total simulation
    seconds.  Per-workload speedups compare median rates.
    """
    cfg = config_by_name(BENCH_CONFIG)

    def one_pass(backend: str | None) -> tuple[int, float, dict[str, float]]:
        total_cycles, total_seconds, per = 0, 0.0, {}
        for name in WORKLOADS():
            workload = get_workload(name)
            system = workload.build(
                lambda n: PipelinedPE(cfg, DEFAULT_PARAMS, name=n,
                                      backend=backend),
                scale, 1,
            )
            start = time.thread_time()
            cycles = system.run(max_cycles=8_000_000)
            elapsed = time.thread_time() - start
            workload.check(system, scale, 1)
            total_cycles += cycles
            total_seconds += elapsed
            per[name] = cycles / elapsed
        return total_cycles, total_seconds, per

    legs = {"interp": "interp", "jit": None}
    rates: dict[str, list[float]] = {leg: [] for leg in legs}
    per: dict[str, dict[str, list[float]]] = {leg: {} for leg in legs}
    for _ in range(repeats):
        for leg, backend in legs.items():
            cycles, seconds, rate_of = one_pass(backend)
            rates[leg].append(cycles / seconds)
            for name, rate in rate_of.items():
                per[leg].setdefault(name, []).append(rate)
    median = statistics.median
    return {
        "scale": scale,
        "total_cycles": cycles,
        "interp_cycles_per_sec": _spread(rates["interp"]),
        "jit_cycles_per_sec": _spread(rates["jit"]),
        "speedup": round(median(rates["jit"]) / median(rates["interp"]), 2),
        "per_workload_speedup": {
            name: round(median(per["jit"][name]) / median(per["interp"][name]), 2)
            for name in per["interp"]
        },
    }


def measure_campaign(
    scale: int, num_configs: int, workers: int, repeats: int = REPEATS
) -> tuple[list[float], list[float] | None]:
    """Seconds of each repeat of a CPI campaign: (serial, in thread CPU
    seconds; pooled, in wall-clock seconds, or None).

    The pooled leg only runs when the pool is actually wider than one
    worker; otherwise it would measure the same serial execution plus
    pool overhead and invite a meaningless "speedup" ratio.
    """
    configs = all_configs()[:num_configs]

    def timed(service: CampaignService, clock) -> float:
        with service:
            start = clock()
            CpiTable(scale=scale).populate(
                configs, service=InProcessClient(service))
            return clock() - start

    serial: list[float] = []
    pooled: list[float] | None = None if workers <= 1 else []
    for _ in range(repeats):
        serial.append(
            timed(CampaignService(None, serial=True), time.thread_time))
        if pooled is not None:
            pooled.append(timed(CampaignService(None, workers=workers),
                                time.perf_counter))
    return serial, pooled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=60_000,
                        help="simulated cycles per throughput repeat")
    parser.add_argument("--scale", type=int, default=12,
                        help="workload scale for the campaign measurement")
    parser.add_argument("--suite-scale", type=int, default=96,
                        help="workload scale for the Table 3 suite "
                             "interpreter-vs-compiled measurement")
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
    repeats = 1 if args.quick else REPEATS
    workers = args.workers or resolve_workers(num_configs)
    median = statistics.median

    reset_metrics()
    loop = measure_loop(cycles, repeats=repeats)
    for leg, rates in loop.items():
        print(f"throughput {leg.replace('_', ' '):<10}: "
              f"{median(rates):12,.0f} cycles/sec "
              f"(min {min(rates):,.0f}, max {max(rates):,.0f})")

    suite = measure_suite(suite_scale, repeats=repeats)
    print(f"suite interp         : "
          f"{suite['interp_cycles_per_sec']['median']:12,.0f} "
          f"cycles/sec (scale {suite['scale']}, "
          f"{suite['total_cycles']:,} cycles)")
    print(f"suite jit            : "
          f"{suite['jit_cycles_per_sec']['median']:12,.0f} "
          f"cycles/sec ({suite['speedup']:.2f}x)")

    serial_s, parallel_s = measure_campaign(scale, num_configs, workers,
                                            repeats=repeats)
    print(f"campaign serial      : {median(serial_s):8.2f} CPU s "
          f"({num_configs} configs, scale {scale})")
    if parallel_s is None:
        print(f"campaign parallel    : skipped (1 worker on a "
              f"{os.cpu_count()}-CPU host; no parallelism to measure)")
        sweep_speedup = None
    else:
        sweep_speedup = median(serial_s) / median(parallel_s)
        print(f"campaign {workers:2d} workers  : {median(parallel_s):8.2f} "
              f"wall s ({sweep_speedup:.2f}x)")

    payload = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "repeats": repeats,
        "throughput": {
            "config": BENCH_CONFIG,
            "cycles": cycles,
            "clock": "thread CPU seconds",
            **{f"{leg}_cycles_per_sec": _spread(rates)
               for leg, rates in loop.items()},
            "fast_path_speedup": round(
                median(loop["fast_path"]) / median(loop["reference"]), 2),
            "jit_speedup_over_fast_path": round(
                median(loop["jit_block"]) / median(loop["fast_path"]), 2),
        },
        "suite": {**suite, "clock": "thread CPU seconds"},
        "campaign": {
            "scale": scale,
            "configs": num_configs,
            "workers": workers,
            "serial_cpu_seconds": _spread(serial_s, 3),
            "parallel_wall_seconds": (
                None if parallel_s is None else _spread(parallel_s, 3)
            ),
            "speedup": (
                None if sweep_speedup is None else round(sweep_speedup, 2)
            ),
            "note": (
                "parallel leg skipped: single-CPU host"
                if parallel_s is None else
                "speedup compares serial CPU seconds with pooled wall"
                " seconds"
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
