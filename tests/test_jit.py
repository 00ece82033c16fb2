"""Differential tests for the ``repro.jit`` specialization backend.

The JIT emits straight-line per-trigger Python for a fixed (program,
partition, ±P, queue-policy) tuple and dispatches it instead of the
generic compiled-trigger walk.  Nothing about it may be architecturally
observable: every test here holds the JIT to bit-identical state,
cycles, and counters against the interpreter fast path (itself held to
the reference dataclass walk by ``test_pipeline_equivalence``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.asm import assemble
from repro.jit import (
    CODEGEN_VERSION,
    cache_stats,
    clear_cache,
    fingerprint,
    generate_source,
)
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, config_by_name
from repro.pipeline.config import all_configs
from repro.workloads.suite import WORKLOADS, run_workload
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
    ``System`` loop, block delegation, and quiescent-wait batching."""
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


def test_block_run_refuses_staged_entries_and_still_completes():
    """``run_cycles`` must fall back to per-cycle stepping when entries
    are staged on a queue (the generated block loop refuses), without
    losing cycles or diverging."""
    cfg = config_by_name("T|D|X1|X2 +P+Q")
    program = assemble(_LOOP, P)
    results = {}
    for backend in ("jit", "interp"):
        pe = PipelinedPE(cfg, P, name=backend, backend=backend)
        program.configure(pe)
        pe.inputs[0].enqueue(7, 0)   # staged, deliberately uncommitted
        ran = pe.run_cycles(10_000)
        results[backend] = (ran, pe.halted, pe.counters.as_dict())
    assert results["jit"] == results["interp"]


def test_fingerprint_caching_makes_recompiles_free():
    clear_cache()
    cfg = config_by_name("T|D|X1|X2 +P+Q")
    program = assemble(_LOOP, P)
    first = PipelinedPE(cfg, P, name="pe0", backend="jit")
    program.configure(first)
    base = cache_stats()
    others = []
    for i in (1, 2):
        pe = PipelinedPE(cfg, P, name=f"pe{i}", backend="jit")
        program.configure(pe)
        others.append(pe)
    stats = cache_stats()
    assert stats["misses"] == base["misses"], "recompile was not a cache hit"
    assert stats["hits"] >= base["hits"] + 2
    key = fingerprint(first.instructions, cfg, P)
    assert first._jit.key == key == others[0]._jit.key
    src = generate_source(first.instructions, cfg, P)
    assert f"codegen v{CODEGEN_VERSION}" in src.splitlines()[0]
