"""Differential tests for the ``repro.jit`` compiled step, which every
fast-path PE runs from cycle 0.

The JIT emits straight-line Python for one pipeline config: the stage
walk, capture and compute at the config's stages, and trigger resolution
through the PE's candidate table and queue-status view.  Nothing about
it may be architecturally observable: every test here holds the default
(compiled) PE to bit-identical state, cycles, and counters against the
interpreter (``backend="interp"``), itself held to the reference
dataclass walk by ``test_pipeline_equivalence``; the module tests pin
down which PEs run compiled and how many modules a process compiles.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings

import repro.jit.cache as jit_cache
from repro.asm import assemble
from repro.errors import SimulationError
from repro.isa import alu
from repro.jit import CODEGEN_VERSION, body_name, generate_source, jit_metrics
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, config_by_name
from repro.pipeline.config import all_configs
from repro.pipeline.predictor import PredicatePredictor
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import WORKLOADS, get_workload, run_workload
from tests.test_check import (
    _corpus_case,
    _inject_conservative_suppression_bug,
    _inject_effective_tag_bug,
)
from tests.test_fabric import step_workload
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
    """48 configs x 10 workloads: the default, compiled PEs must
    reproduce the interpreter fast path bit for bit — same CPI stacks,
    counters, cycle counts, and final architectural state — through the
    fused ``System`` loop and the block runs its quiescent-sibling rule
    enters."""
    for name in WORKLOADS():
        jit = run_workload(
            name, scale=_DIFF_SCALE,
            make_pe=lambda n: PipelinedPE(config, P, name=n),
        )
        assert all(pe._jit is not None for pe in jit.system.pes)
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
        jit = PipelinedPE(config_by_name(name), P, name="jit")
        interp = PipelinedPE(config_by_name(name), P, name="int",
                             backend="interp")
        jit_result = _run(jit, instructions, pushes)
        interp_result = _run(interp, instructions, pushes)
        assert jit_result == interp_result, f"{name}: state diverged"
        assert jit.counters == interp.counters, f"{name}: counters diverged"


def test_corpus_replays_clean_through_the_jit_backend():
    """Every saved fuzz regression stays clean with the jit leg enabled
    (all 48 configs per case, the compiled default bit-identical to the
    interpreter)."""
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
    cases run golden vs compiled vs interpreter on all 48 configs."""
    from repro.verify.generator import generate_case
    from repro.verify.harness import check_case, real_divergences

    for seed in range(7700, 7706):
        case = generate_case(seed, P)
        result = check_case(case, P, ref_configs=0, jit=True)
        assert not real_divergences(result), (
            f"seed {seed} diverged: {real_divergences(result)}"
        )


# ---------------------------------------------------------------------------
# Backend selection, fallback rules, and the per-config modules.
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
    jit = PipelinedPE(cfg, P, name="jit")
    interp = PipelinedPE(cfg, P, name="interp", backend="interp")
    reference = PipelinedPE(cfg, P, name="ref", fast_path=False)
    assert (jit.backend, interp.backend, reference.backend) == (
        "jit", "interp", "interp")
    for pe in (jit, interp, reference):
        assert pe._jit is None          # nothing bound before a program
        program.configure(pe)
    assert jit._jit is not None
    assert interp._jit is None and reference._jit is None
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
    """The compiled step runs the fast path's trigger walk, so a PE
    cannot ask for both it and the reference walk."""
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


_VIEW_BUGS = [
    pytest.param(_inject_effective_tag_bug, id="neck-tag"),
    pytest.param(_inject_conservative_suppression_bug, id="suppression"),
]


def _view_case_runs(program, streams, backend) -> dict:
    """config name -> (fingerprint, counters) of the neck-tag case."""
    from repro.verify.harness import GOLDEN_WATCHDOG, _run_guarded

    runs = {}
    for cfg in ALL_CONFIGS:
        pe = PipelinedPE(cfg, P, name=f"view-{cfg.name}", backend=backend)
        program.configure(pe)
        assert (pe._jit is not None) is (backend is None), cfg.name
        runs[cfg.name] = (_run_guarded(pe, streams, GOLDEN_WATCHDOG),
                          pe.counters.as_dict())
    return runs


@pytest.mark.parametrize("inject", _VIEW_BUGS)
def test_a_mutated_queue_status_view_reaches_compiled_pes(inject,
                                                          monkeypatch):
    """Compiled PEs resolve triggers through the queue-status views, so
    a bug injected into a view reaches them exactly as it reaches the
    interpreter: with either of the two historical view bugs of
    ``tests/test_check.py`` in place, the neck-tag corpus case ends in
    the same state, cycle count and counters on both executors, on all
    48 configs, and the bug does change some config's run."""
    from repro.verify.generator import case_source, case_streams

    case = _corpus_case("neck-tag-visibility")
    program = assemble(case_source(case, P), P, name=case["name"])
    streams = case_streams(case)
    clean = _view_case_runs(program, streams, "interp")
    inject(monkeypatch)
    interp = _view_case_runs(program, streams, "interp")
    compiled = _view_case_runs(program, streams, None)
    for name, run in interp.items():
        assert compiled[name] == run, name
    assert any(interp[name] != clean[name] for name in clean)


def test_generated_source_holds_no_program_or_queue_status_constant():
    """Every config's module reads the program only through the PE and
    queue status only through its view: no in-flight queue booking, no
    tag and no slot number appears in the source."""
    for cfg in ALL_CONFIGS:
        src = generate_source(cfg)
        assert f"codegen v{CODEGEN_VERSION}" in src.splitlines()[0]
        for banned in ("pending_deqs", "sched_deqs", "pending_enqs", ".tag",
                       "instructions", "_dp_meta", "inputs", "outputs"):
            assert banned not in src, (cfg.name, banned)
        compile(src, cfg.name, "exec")


def test_configs_of_one_body_share_its_source():
    """The queue-status policy never reaches the generated walk: the 48
    configs emit 16 distinct sources, one per body name (partition and
    ±P), and every config of a body name emits the same text."""
    sources: dict[str, set[str]] = {}
    for cfg in ALL_CONFIGS:
        sources.setdefault(body_name(cfg), set()).add(generate_source(cfg))
    assert len(sources) == 16
    assert all(len(texts) == 1 for texts in sources.values())
    assert len({text for texts in sources.values() for text in texts}) == 16


def test_pes_of_one_config_share_one_module_for_the_process(monkeypatch):
    """PEs of one config share its module whatever their programs, and
    the module outlives them: a PE built after they are gone binds the
    same one without compiling.  A config of the same body but another
    queue policy binds it too."""
    cfg = config_by_name("T|D|X1|X2 +P+Q").with_options(speculative_depth=7)
    # Forget the body's module (restored at teardown), so the first PE
    # compiles it.
    monkeypatch.delitem(jit_cache._MODULES, body_name(cfg), raising=False)
    programs = [assemble(_LOOP, P), assemble(_LOOP.replace("$40", "$9"), P)]
    base = jit_metrics()
    pes = []
    for i in range(3):
        pe = PipelinedPE(cfg, P, name=f"pe{i}")
        programs[i % 2].configure(pe)
        pes.append(pe)
    stats = jit_metrics()
    assert stats["misses"] == base["misses"] + 1
    assert stats["hits"] == base["hits"] + 2
    assert stats["entries"] == base["entries"] + 1
    module = pes[0]._jit
    assert module is pes[1]._jit is pes[2]._jit
    del pes, pe
    gc.collect()
    late = PipelinedPE(cfg, P, name="late")
    programs[0].configure(late)
    assert late._jit is module
    sibling = PipelinedPE(config_by_name("T|D|X1|X2 +P"), P, name="sibling")
    programs[1].configure(sibling)
    assert sibling._jit is module
    assert jit_metrics()["misses"] == stats["misses"]
    assert jit_metrics()["entries"] == stats["entries"]


# ---------------------------------------------------------------------------
# Which runs step compiled, and how many modules they compile.
# ---------------------------------------------------------------------------

_CFG = config_by_name("T|D|X1|X2 +P+Q")


def _pipelined(name: str) -> PipelinedPE:
    return PipelinedPE(_CFG, P, name=name)


@pytest.fixture
def compiled(monkeypatch) -> list[str]:
    """Names of the PEs that ran ``_CFG``'s compiled cycle, one entry
    per cycle: a spy replaces its body's function before any PE of the
    test binds it."""
    names: list[str] = []
    original = jit_cache.acquire(_CFG)

    def spy(pe):
        names.append(pe.name)
        return original(pe)

    monkeypatch.setitem(jit_cache._MODULES, body_name(_CFG), spy)
    return names


def test_every_fast_path_pe_runs_compiled_from_cycle_0(compiled):
    """udiv's worker and its mostly waiting feeder both bind their
    config's compiled cycle at program load; every cycle the worker
    steps runs it, and long idle stretches go to block runs."""
    before = jit_metrics()
    run = run_workload("udiv", scale=8, make_pe=_pipelined)
    after = jit_metrics()
    for pe in run.system.pes:
        assert pe._jit is jit_cache._MODULES[body_name(_CFG)]
    worker = run.system.pe("worker")
    assert compiled.count("worker") == worker.counters.cycles > 0
    assert after["misses"] <= before["misses"] + 1
    assert sum(after["block_exits"].values()) > sum(
        before["block_exits"].values())


def test_attached_hooks_run_compiled_bit_identically(compiled):
    """A PE carrying a fault hook and a telemetry sink runs its config's
    compiled cycle, and both see what they see on the interpreter: the
    hook is called at the same cycles, and on this +P config, which
    mispredicts, the events — issues, retires, quashes and rollbacks —
    are the same, in the same cycles."""
    from repro.obs.events import Telemetry

    program = assemble(_LOOP, P)
    seen = {"jit": [], "interp": []}
    events = {}
    pes = {}
    for backend in ("jit", "interp"):
        pe = PipelinedPE(_CFG, P, name="pe", backend=backend)
        program.configure(pe)
        pe.fault_hook = (
            lambda p, key=backend: seen[key].append(p.counters.cycles)
        )
        sink = Telemetry()
        sink.attach_pe(pe)
        while not pe.halted:
            pe.step()
            pe.commit_queues()
        events[backend] = [(e.kind, e.cycle, e.source, e.data)
                           for e in sink.events]
        pes[backend] = pe
    assert len(compiled) == pes["jit"].counters.cycles
    assert pes["jit"].counters.mispredictions > 0
    assert seen["jit"] == seen["interp"]
    assert events["jit"] == events["interp"]
    assert pes["jit"].counters == pes["interp"].counters


def test_fuzz_batches_and_short_kernels_compile_at_most_one_module_per_config(
        monkeypatch):
    from repro.verify import fuzz_run, real_divergences

    monkeypatch.setenv("REPRO_WORKERS", "1")    # run the batch in-process
    # Modules are kept for the process, so earlier tests may hold some:
    # bound the ones this test adds.
    before = jit_metrics()["entries"]
    first = fuzz_run(3, 7700, ref_configs=0)
    run_workload("gcd", scale=24, make_pe=_pipelined)
    assert not any(real_divergences(result) for result in first)
    after_first = jit_metrics()
    # Modules are per body: 16 for the 48 configs.
    assert after_first["entries"] - before <= len(
        {body_name(cfg) for cfg in ALL_CONFIGS})
    again = fuzz_run(3, 7700, ref_configs=0)
    run_workload("gcd", scale=24, make_pe=_pipelined)
    after_again = jit_metrics()
    assert again == first
    assert after_again["misses"] == after_first["misses"]
    # 48 configs x 3 cases, plus gcd's PEs.
    assert after_again["hits"] >= after_first["hits"] + 3 * 48


def _udiv_run(instrument: str) -> WorkloadRun:
    """udiv at scale 8, bare or under one instrument; the reference walk
    is stepped one ``System.step`` per cycle (``step_loop``)."""
    from repro.obs.events import Telemetry
    from repro.resilience.invariants import InvariantChecker

    workload = get_workload("udiv")
    if instrument == "reference":
        return step_workload(
            "udiv", scale=8,
            make_pe=lambda n: PipelinedPE(_CFG, P, name=n, fast_path=False))
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
def test_instrumented_runs_enter_no_block_run_and_stay_bit_identical(
        instrument, compiled):
    """An instrumented run enters no block run.  Under a telemetry sink,
    a fault hook or an invariant checker the worker still runs every
    cycle compiled; under the reference walk, stepped by ``step_loop``,
    it runs none.  Results match the uninstrumented run."""
    bare = _udiv_run("none")
    exits = jit_metrics()["block_exits"]
    compiled.clear()
    instrumented = _udiv_run(instrument)
    assert jit_metrics()["block_exits"] == exits
    worker = instrumented.system.pe("worker")
    if instrument == "reference":
        assert compiled == []
    else:
        assert compiled.count("worker") == worker.counters.cycles
    assert (workload_fingerprint(instrumented)
            == workload_fingerprint(bare))


def test_fault_trials_match_on_compiled_and_interpreted_workers(
        monkeypatch):
    """A fault trial arms its injector and an invariant checker on the
    PEs a campaign builds, compiled by default: every fault class gives
    the same trial results there as on interpreted PEs, on a +P and a
    plain config, and the trials reach every outcome but not-applied
    among them."""
    import repro.resilience.campaign as campaign
    from repro.resilience.campaign import (
        CORRUPTED, DEFAULT_FAULTS, DETECTED, HUNG, MASKED, FaultTrial,
        run_trial,
    )

    trials = [
        FaultTrial(config=config, workload=workload, fault=fault.value,
                   trial=trial, scale=6, seed=0)
        for config in ("T|D|X1|X2 +P", "TD|X")
        for workload in ("bst", "arg_max")
        for fault in DEFAULT_FAULTS
        for trial in range(3)
    ]
    on_compiled = [run_trial(trial) for trial in trials]
    built = []

    def interpreted_pe(*args, **kwargs):
        pe = PipelinedPE(*args, backend="interp", **kwargs)
        built.append(pe)
        return pe

    monkeypatch.setattr(campaign, "PipelinedPE", interpreted_pe)
    on_interpreted = [run_trial(trial) for trial in trials]
    assert built and all(pe._jit is None for pe in built)
    assert on_compiled == on_interpreted
    assert {result.outcome for result in on_compiled} >= {
        DETECTED, HUNG, CORRUPTED, MASKED}


def test_module_memory_stays_bounded_after_a_cpi_campaign(monkeypatch):
    """A CPI campaign over eight configs holds at most one module per
    body (four: two partitions, ±P), and running it again compiles
    nothing."""
    from repro.dse.cpi import CpiTable

    monkeypatch.setenv("REPRO_WORKERS", "1")    # run the tasks in-process
    configs = all_configs()[:8]
    before = jit_metrics()
    CpiTable(scale=8).populate(configs)
    first = jit_metrics()
    CpiTable(scale=8).populate(configs)
    second = jit_metrics()
    bodies = {body_name(cfg) for cfg in configs}
    assert len(bodies) == 4
    assert first["entries"] <= before["entries"] + len(bodies)
    assert first["hits"] - before["hits"] >= 8 * 10
    assert second["misses"] == first["misses"]
    assert second["entries"] == first["entries"]


def test_compiled_step_proves_the_checkable_kernels_like_the_interpreter():
    """gcd, stream and udiv at queue capacity 2 over all 48 configs: the
    compiled step, ``check_program``'s default, is proved through the
    same state spaces as the interpreter."""
    from repro.analyze import CheckBounds, check_program, checkable_workloads

    bounds = CheckBounds(queue_capacity=2)
    for name, program, streams, params in checkable_workloads():
        jit = check_program(program, streams, params, bounds=bounds,
                            name=name)
        interp = check_program(program, streams, params, bounds=bounds,
                               name=name, backend="interp")
        assert jit.verdict == interp.verdict == "proved", name
        assert len(jit.configs) == 48
        assert ([(c.config, c.states, c.transitions) for c in jit.configs]
                == [(c.config, c.states, c.transitions)
                    for c in interp.configs]), name
