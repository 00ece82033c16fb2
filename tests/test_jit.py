"""Differential tests for the ``repro.jit`` specialization backend, and
the policy that promotes busy PEs to it mid-run.

The JIT emits straight-line per-trigger Python for a fixed (program,
partition, ±P, queue-policy) tuple and dispatches it instead of the
generic compiled-trigger walk.  Nothing about it may be architecturally
observable: every test here holds the JIT to bit-identical state,
cycles, and counters against the interpreter fast path (itself held to
the reference dataclass walk by ``test_pipeline_equivalence``), and the
promotion tests pin down which runs compile what, and for how long.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings

import repro.jit.cache as jit_cache
from repro.asm import assemble
from repro.errors import SimulationError
from repro.isa import alu
from repro.jit import CODEGEN_VERSION, generate_source, jit_metrics
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, config_by_name
from repro.pipeline.config import all_configs
from repro.pipeline.predictor import PredicatePredictor
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import WORKLOADS, get_workload, run_workload
from tests.test_pipeline_equivalence import _run, chain_programs
from tests.test_pipeline_equivalence import (
    _workload_fingerprint as workload_fingerprint,
)

_DIFF_SCALE = 6

#: All 48 microarchitectures: 8 partitions x {-P, +P} x {conservative,
#: effective, padded} queue accounting.
ALL_CONFIGS = all_configs(include_padded=True)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_jit_is_bit_identical_across_the_workload_suite(config):
    """48 configs x 10 workloads: the JIT backend must reproduce the
    interpreter fast path bit for bit — same CPI stacks, counters,
    cycle counts, and final architectural state — through the fused
    ``System`` loop and the block runs its quiescent-sibling rule
    enters."""
    for name in WORKLOADS():
        jit = run_workload(
            name, scale=_DIFF_SCALE,
            make_pe=lambda n: PipelinedPE(config, P, name=n, backend="jit"),
        )
        interp = run_workload(
            name, scale=_DIFF_SCALE,
            make_pe=lambda n: PipelinedPE(config, P, name=n, backend="interp"),
        )
        assert workload_fingerprint(jit) == workload_fingerprint(interp), (
            f"{config.name} / {name}: jit diverged from the interpreter"
        )


@settings(max_examples=25, deadline=None)
@given(chain_programs())
def test_jit_matches_interpreter_on_random_programs(generated):
    instructions, pushes = generated
    for name in ("T|D|X1|X2 +P+Q", "TD|X", "T|DX +P+Q", "T|D|X1|X2 +P+pad"):
        jit = PipelinedPE(config_by_name(name), P, name="jit", backend="jit")
        interp = PipelinedPE(config_by_name(name), P, name="int",
                             backend="interp")
        jit_result = _run(jit, instructions, pushes)
        interp_result = _run(interp, instructions, pushes)
        assert jit_result == interp_result, f"{name}: state diverged"
        assert jit.counters == interp.counters, f"{name}: counters diverged"


def test_corpus_replays_clean_through_the_jit_backend():
    """Every saved fuzz regression stays clean with the jit leg enabled
    (all 48 configs per case, bit-identical to the interpreter)."""
    from repro.verify.corpus import DEFAULT_CORPUS, load_corpus
    from repro.verify.harness import check_case

    pairs = load_corpus(DEFAULT_CORPUS)
    assert pairs, "saved corpus is missing"
    for path, case in pairs:
        result = check_case(case, P, ref_configs=0, jit=True)
        assert not result["divergences"], (
            f"corpus case {path} diverged: {result['divergences']}"
        )


def test_fresh_fuzz_round_through_the_jit_backend():
    """A deterministic fresh-fuzz round with the jit leg: generated
    cases run golden vs interpreter vs JIT on all 48 configs."""
    from repro.verify.generator import generate_case
    from repro.verify.harness import check_case, real_divergences

    for seed in range(7700, 7706):
        case = generate_case(seed, P)
        result = check_case(case, P, ref_configs=0, jit=True)
        assert not real_divergences(result), (
            f"seed {seed} diverged: {real_divergences(result)}"
        )


# ---------------------------------------------------------------------------
# Backend selection, fallback rules, and the specialization cache.
# ---------------------------------------------------------------------------

#: The perf-harness predicate loop, scaled down: count to 40 and halt.
_LOOP = """
when %p == XXXXXXX0:
    ult %p1, %r0, $40; set %p = ZZZZZZZ1;
when %p == XXXXXX11:
    add %r0, %r0, $1; set %p = ZZZZZZ00;
when %p == XXXXXX01:
    halt;
"""


def test_backend_selector_and_fallback_to_interpreter():
    cfg = config_by_name("T|D|X1|X2 +P+Q")
    program = assemble(_LOOP, P)
    jit = PipelinedPE(cfg, P, name="jit", backend="jit")
    interp = PipelinedPE(cfg, P, name="interp", backend="interp")
    program.configure(jit)
    program.configure(interp)
    assert jit._jit is not None
    assert interp._jit is None
    while not interp.halted:
        interp.step()
        interp.commit_queues()
    while not jit.halted:
        jit.step()
        jit.commit_queues()
    assert jit.counters == interp.counters
    assert jit.regs.snapshot() == interp.regs.snapshot()
    assert jit.preds.state == interp.preds.state


def test_jit_backend_refuses_the_reference_walk():
    """The compiled module inlines the fast path's trigger walk, so a
    PE cannot ask for both it and the reference walk."""
    cfg = config_by_name("T|D|X1|X2 +P+Q")
    with pytest.raises(SimulationError, match="fast_path=False"):
        PipelinedPE(cfg, P, backend="jit", fast_path=False)
    with pytest.raises(SimulationError, match="unknown backend"):
        PipelinedPE(cfg, P, backend="compiled")
    assert PipelinedPE(cfg, P, fast_path=False).backend == "interp"


def test_compiled_pes_run_the_one_datapath(monkeypatch):
    """Generated modules compute and predict through the interpreter's
    datapath: with a wrong adder in the ALU table and a predictor that
    predicts taken from its initial state, a compiled PE still ends
    exactly where an interpreted one does, on all 48 configs."""
    monkeypatch.setitem(
        alu._SEMANTICS, "add",
        lambda a, b, p, mask, w, s: (a + b + 2) & mask)
    monkeypatch.setattr(PredicatePredictor, "WEAK_TAKEN", 1)
    for cfg in ALL_CONFIGS:
        pes = {}
        for backend in ("jit", "interp"):
            # A fresh Program: it caches the lowering that holds the
            # ALU callable.
            program = assemble(_LOOP, P)
            pe = PipelinedPE(cfg, P, name=backend, backend=backend)
            program.configure(pe)
            while not pe.halted:
                pe.step()
                pe.commit_queues()
            pes[backend] = pe
        jit, interp = pes["jit"], pes["interp"]
        assert jit.regs.snapshot() == interp.regs.snapshot(), cfg.name
        assert jit.counters == interp.counters, cfg.name
    # The patched datapath is what both ran: the loop counts in threes.
    assert interp.regs.snapshot()[0] == 42


def test_attached_hooks_defer_to_the_interpreter_bit_identically():
    """A fault hook must see exactly the interpreter schedule: the
    generated step defers while it is attached, and results match."""
    cfg = config_by_name("T|D|X1|X2 +P")
    program = assemble(_LOOP, P)
    seen = {"jit": [], "interp": []}
    pes = {}
    for backend in ("jit", "interp"):
        pe = PipelinedPE(cfg, P, name=backend, backend=backend)
        program.configure(pe)
        pe.fault_hook = (
            lambda p, key=backend: seen[key].append(p.counters.cycles)
        )
        while not pe.halted:
            pe.step()
            pe.commit_queues()
        pes[backend] = pe
    assert seen["jit"] == seen["interp"]
    assert pes["jit"].counters == pes["interp"].counters


def test_live_pes_share_one_module_until_the_last_lets_go():
    cfg = config_by_name("T|D|X1|X2 +P+Q")
    program = assemble(_LOOP, P)
    gc.collect()
    gc.disable()          # modules must go without the cycle collector
    try:
        base = jit_metrics()
        pes = []
        for i in range(3):
            pe = PipelinedPE(cfg, P, name=f"pe{i}", backend="jit")
            program.configure(pe)
            pes.append(pe)
        stats = jit_metrics()
        assert stats["misses"] == base["misses"] + 1
        assert stats["hits"] == base["hits"] + 2
        assert stats["entries"] == base["entries"] + 1
        assert pes[0]._jit is pes[1]._jit is pes[2]._jit
        for pe in pes:
            pe._bind_compiled(None)
        assert jit_metrics()["entries"] == base["entries"]
    finally:
        gc.enable()
    src = generate_source(program.instructions, cfg, P)
    assert f"codegen v{CODEGEN_VERSION}" in src.splitlines()[0]


# ---------------------------------------------------------------------------
# Hot-PE promotion: which runs compile, what they compile, how long the
# modules live.
# ---------------------------------------------------------------------------

_CFG = config_by_name("T|D|X1|X2 +P+Q")


def _pipelined(name: str) -> PipelinedPE:
    return PipelinedPE(_CFG, P, name=name)


@pytest.fixture
def compiled(monkeypatch) -> list[str]:
    """Names of the PEs modules are acquired for during the test."""
    names: list[str] = []
    original = jit_cache.acquire

    def spy(pe):
        names.append(pe.name)
        return original(pe)

    monkeypatch.setattr(jit_cache, "acquire", spy)
    return names


def test_promotion_compiles_only_busy_pes_and_releases_their_modules(
        compiled):
    """udiv's worker passes the mark issuing; its feeder mostly waits.
    Only the worker is compiled, and its module is gone when the run
    ends — without waiting for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        before = jit_metrics()
        run = run_workload("udiv", scale=8, make_pe=_pipelined)
        after = jit_metrics()
    finally:
        gc.enable()
    assert compiled == ["worker"]
    assert after["promotions"] == before["promotions"] + 1
    assert after["compiled_cycles"] > before["compiled_cycles"]
    assert after["entries"] == before["entries"]
    for pe in run.system.pes:
        assert pe._jit is None and "step" not in vars(pe)


def test_fuzz_batches_and_short_kernels_never_compile(compiled, monkeypatch):
    from repro.verify import fuzz_run, real_divergences

    monkeypatch.setenv("REPRO_WORKERS", "1")    # run the batch in-process
    before = jit_metrics()
    results = fuzz_run(3, 7700, ref_configs=0)
    run_workload("gcd", scale=24, make_pe=_pipelined)
    assert not any(real_divergences(result) for result in results)
    assert compiled == []
    assert jit_metrics()["promotions"] == before["promotions"]


def _udiv_run(instrument: str) -> WorkloadRun:
    """udiv at scale 8 on the fused loop, or with one instrument that
    sends it to the reference loop."""
    from repro.obs.events import Telemetry
    from repro.resilience.invariants import InvariantChecker

    workload = get_workload("udiv")
    if instrument == "reference":
        return workload.run(
            make_pe=lambda n: PipelinedPE(_CFG, P, name=n, fast_path=False),
            scale=8)
    if instrument == "telemetry":
        return workload.run(make_pe=_pipelined, scale=8,
                            telemetry=Telemetry())
    system = workload.build(_pipelined, 8, 0)
    if instrument == "invariants":
        system.attach_invariant_checker(InvariantChecker())
    elif instrument == "fault_hook":
        system.pe("worker").fault_hook = lambda pe: None
    cycles = system.run()
    workload.check(system, 8, 0)
    worker = system.pe(workload.worker_name)
    return WorkloadRun(workload.name, cycles, worker.name, worker.counters,
                       system)


@pytest.mark.parametrize(
    "instrument", ["telemetry", "invariants", "fault_hook", "reference"])
def test_instrumented_runs_never_promote_and_stay_bit_identical(
        instrument, compiled):
    promoted = _udiv_run("none")
    assert compiled == ["worker"]
    compiled.clear()
    instrumented = _udiv_run(instrument)
    assert compiled == []
    assert (workload_fingerprint(instrumented)
            == workload_fingerprint(promoted))


def test_module_memory_stays_bounded_after_a_cpi_campaign(monkeypatch):
    from repro.dse.cpi import CpiTable

    monkeypatch.setenv("REPRO_WORKERS", "1")    # run the tasks in-process
    gc.collect()
    gc.disable()
    try:
        before = jit_metrics()
        CpiTable(scale=8).populate(all_configs()[:8])
        after = jit_metrics()
    finally:
        gc.enable()
    assert after["promotions"] >= before["promotions"] + 8
    assert after["entries"] == before["entries"]


def test_compiled_step_proves_the_checkable_kernels_like_the_interpreter():
    """gcd, stream and udiv at queue capacity 2 over all 48 configs: the
    compiled step is proved, through the same state spaces."""
    from repro.analyze import CheckBounds, check_program, checkable_workloads

    bounds = CheckBounds(queue_capacity=2)
    for name, program, streams, params in checkable_workloads():
        jit = check_program(program, streams, params, bounds=bounds,
                            name=name, backend="jit")
        interp = check_program(program, streams, params, bounds=bounds,
                               name=name)
        assert jit.verdict == interp.verdict == "proved", name
        assert len(jit.configs) == 48
        assert ([(c.config, c.states, c.transitions) for c in jit.configs]
                == [(c.config, c.states, c.transitions)
                    for c in interp.configs]), name
