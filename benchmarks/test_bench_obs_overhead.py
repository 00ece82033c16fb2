"""Tracing-overhead guard for the observability layer.

Two properties keep telemetry honest:

* **disabled == free**: with no sink attached, the only instrumentation
  cost is one ``is not None`` test per seam — simulation results must be
  bit-identical to a run where the obs package was never imported, and
  throughput must be unaffected beyond noise;
* **enabled == bounded**: full event capture plus per-cycle fabric
  sampling may slow the simulator, but only by a bounded constant
  factor — a regression that makes tracing 10x slower would make the
  instrumented campaigns useless.
"""

import cProfile
import pstats
import time

from repro.asm import assemble
from repro.obs import Telemetry
from repro.pipeline import PipelinedPE, config_by_name
from repro.workloads.suite import run_workload

CONFIG = config_by_name("T|D|X1|X2 +P+Q")

LOOP = """
when %p == XXXXXXX0:
    ult %p1, %r0, $1000000; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    add %r0, %r0, $1; set %p = ZZZZZZ00;
when %p == XXXXXX01:
    halt;
"""


def _loop_throughput(cycles: int, telemetry: Telemetry | None) -> float:
    """Best-of-3 cycles per thread CPU second for the register loop,
    optionally traced.

    The PE is a default one, whose ``step`` runs its config's compiled
    cycle with or without a sink attached, so the guards measure the
    seams on the tier that instrumented runs step.  Thread CPU time
    leaves out the time a shared host takes the CPU away.
    """
    best = 0.0
    for _ in range(3):
        pe = PipelinedPE(CONFIG, name="bench")
        assemble(LOOP).configure(pe)
        if telemetry is not None:
            telemetry.attach_pe(pe)
        start = time.thread_time()
        for _ in range(cycles):
            pe.step()
            pe.commit_queues()
        elapsed = time.thread_time() - start
        if telemetry is not None:
            telemetry.detach()
        best = max(best, cycles / elapsed)
    return best


def test_disabled_telemetry_is_bit_identical():
    """The load-bearing guarantee: attaching telemetry never changes
    simulated behavior, so *not* attaching it cannot either."""
    def factory(name):
        return PipelinedPE(CONFIG, name=name)

    bare = run_workload("string_search", make_pe=factory, scale=12, seed=0)
    traced = run_workload("string_search", make_pe=factory, scale=12, seed=0,
                          telemetry=Telemetry())
    assert bare.cycles == traced.cycles
    assert bare.worker_counters.as_dict() == traced.worker_counters.as_dict()
    for pe in bare.system.pes:
        twin = traced.system.pe(pe.name)
        assert pe.counters.as_dict() == twin.counters.as_dict()


def test_enabled_telemetry_overhead_bounded(benchmark):
    """Event capture costs something, but a bounded constant factor."""
    cycles = 20_000
    off = _loop_throughput(cycles, None)
    sink = Telemetry()
    on = benchmark.pedantic(
        lambda: _loop_throughput(cycles, sink), rounds=1, iterations=1
    )
    overhead = off / on
    print(f"\ntelemetry off: {off:12,.0f} cycles/sec")
    print(f"telemetry on : {on:12,.0f} cycles/sec ({overhead:.2f}x overhead)")
    # Generous bound: tracing must never cost an order of magnitude.
    assert overhead < 6.0, (
        f"telemetry overhead {overhead:.2f}x exceeds the 6x guard"
    )


def test_disabled_seam_cost_is_noise():
    """A run with the seams compiled in but no sink attached must match
    the throughput of an identical second run (both uninstrumented) —
    i.e. the seams themselves cost nothing measurable beyond jitter.

    Each side is the best of 15 repetitions, taken in five interleaved
    rounds of three, so a stretch of host contention slows both sides
    rather than one."""
    cycles = 20_000
    first = second = 0.0
    for _ in range(5):
        first = max(first, _loop_throughput(cycles, None))
        second = max(second, _loop_throughput(cycles, None))
    ratio = max(first, second) / min(first, second)
    assert ratio < 1.5, f"uninstrumented throughput unstable ({ratio:.2f}x)"


def _loop_calls(cycles: int, detached: bool) -> int:
    """Python calls (cProfile) of ``cycles`` register-loop cycles on a
    fresh PE; with ``detached``, a :class:`Telemetry` sink was attached
    to it and detached before the first cycle."""
    pe = PipelinedPE(CONFIG, name="bench")
    assemble(LOOP).configure(pe)
    if detached:
        sink = Telemetry()
        sink.attach_pe(pe)
        sink.detach()
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(cycles):
        pe.step()
        pe.commit_queues()
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_detached_seam_makes_no_call():
    """The exact twin of :func:`test_disabled_seam_cost_is_noise`: a PE
    whose sink was detached makes exactly the calls of a PE that never
    had one, so a detached seam costs no call (timing cannot show this
    below host noise; a count can)."""
    cycles = 5_000
    _loop_calls(cycles, detached=False)    # fill the program's caches
    bare = _loop_calls(cycles, detached=False)
    assert bare > cycles
    assert _loop_calls(cycles, detached=True) == bare


# ----------------------------------------------------------------------
# Service-tier seam (repro.obs.svc): disabled == free there too
# ----------------------------------------------------------------------

_SERVICE_PAYLOADS = [
    {"workload": "gcd", "config": name, "scale": 4, "seed": 0}
    for name in ("TDX", "TDX +Q", "T|DX +P", "T|D|X1|X2 +P+Q")
]


def _service_campaign(obs):
    """One small serial campaign; returns its canonical result text."""
    from repro.serve import CampaignService
    from repro.serve.store import canonical_json

    with CampaignService(None, workers=1, serial=True, obs=obs) as service:
        results = service.run_job(
            "workload-run", _SERVICE_PAYLOADS, timeout=300.0
        )
    return canonical_json(results)


def test_disabled_service_obs_is_bit_identical():
    """The serve-tier guarantee: attaching ServiceObs (spans, metrics,
    sim stage tracing) never changes campaign results, so the
    ``obs=None`` path cannot either."""
    from repro.obs import ServiceObs

    bare = _service_campaign(None)
    traced = _service_campaign(ServiceObs(sim_trace=True))
    assert bare == traced


def test_service_obs_overhead_bounded(benchmark):
    """Spans + histograms + sim stage capture cost a bounded factor."""
    from repro.obs import ServiceObs

    def best_of(factory, rounds=3):
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            _service_campaign(factory())
            best = min(best, time.perf_counter() - start)
        return best

    off = best_of(lambda: None)
    on = benchmark.pedantic(
        lambda: best_of(lambda: ServiceObs(sim_trace=True)),
        rounds=1, iterations=1,
    )
    overhead = on / off
    print(f"\nservice obs off: {off:8.3f}s")
    print(f"service obs on : {on:8.3f}s ({overhead:.2f}x overhead)")
    assert overhead < 6.0, (
        f"service obs overhead {overhead:.2f}x exceeds the 6x guard"
    )
