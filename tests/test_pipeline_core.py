"""Cycle-accurate pipelined PE: correctness and hazard behavior."""

import pytest

from repro.arch import FunctionalPE
from repro.asm import assemble
from repro.pipeline import PipelinedPE, all_configs, config_by_name
from repro.pipeline.config import ALL_PARTITIONS, partition_name

ALL_PARTITION_NAMES = [partition_name(s) for s in ALL_PARTITIONS]

# A deterministic program exercising arithmetic, predicate control flow,
# queue I/O and the scratchpad: sums tagged input, scales it, stores it
# locally, and emits it.
MIXED_PROGRAM = """
when %p == XXXXX000 with %i0.0:
    add %r1, %r1, %i0; deq %i0;
when %p == XXXXX000 with %i0.1:
    add %r1, %r1, %i0; deq %i0; set %p = ZZZZZ001;
when %p == XXXXX001:
    mul %r2, %r1, $3; set %p = ZZZZZ011;
when %p == XXXXX011:
    ssw $7, %r2; set %p = ZZZZZ010;
when %p == XXXXX010:
    lsw %r3, $7; set %p = ZZZZZ110;
when %p == XXXXX110:
    mov %o0.2, %r3; set %p = ZZZZZ100;
when %p == XXXXX100:
    halt;
"""



def _drive(pe, pushes, max_cycles):
    """Run to halt, feeding host pushes as queue capacity allows."""
    backlog = list(pushes)
    for _ in range(max_cycles):
        if pe.halted:
            return pe
        while backlog and not pe.inputs[backlog[0][0]].is_full:
            queue, value, tag = backlog.pop(0)
            pe.inputs[queue].enqueue(value, tag)
        pe.step()
        pe.commit_queues()
    raise AssertionError(f"{pe.name} did not halt")


def run_pipelined(source, config_name, pushes=(), max_cycles=20_000):
    pe = PipelinedPE(config_by_name(config_name), name=config_name)
    assemble(source).configure(pe)
    return _drive(pe, pushes, max_cycles)


def run_functional(source, pushes=()):
    pe = FunctionalPE(name="f")
    assemble(source).configure(pe)
    return _drive(pe, pushes, 20_000)


PUSHES = [(0, 5, 0), (0, 6, 0), (0, 7, 1)]


class TestArchitecturalEquivalence:
    """Every microarchitecture must compute exactly what the functional
    reference computes — pipelining changes timing, never results."""

    @pytest.mark.parametrize("config_name", ALL_PARTITION_NAMES)
    def test_partitions_match_functional(self, config_name):
        reference = run_functional(MIXED_PROGRAM, PUSHES)
        pipelined = run_pipelined(MIXED_PROGRAM, config_name, PUSHES)
        assert pipelined.regs.snapshot() == reference.regs.snapshot()
        assert pipelined.scratchpad.load(7) == reference.scratchpad.load(7)
        assert [e.value for e in pipelined.outputs[0].drain()] == \
            [e.value for e in reference.outputs[0].drain()]

    @pytest.mark.parametrize("flags", ["", " +P", " +Q", " +P+Q"])
    def test_features_match_functional_on_deepest_pipe(self, flags):
        reference = run_functional(MIXED_PROGRAM, PUSHES)
        pipelined = run_pipelined(MIXED_PROGRAM, "T|D|X1|X2" + flags, PUSHES)
        assert pipelined.regs.snapshot() == reference.regs.snapshot()

    @pytest.mark.parametrize("config_name", [
        "T|D|X +P", "T|D|X1|X2 +P+Q", "TDX1|X2 +P", "TD|X +P+Q",
    ])
    def test_speculation_never_corrupts_state(self, config_name):
        pushes = [(0, v, 0) for v in (10, 90, 20, 80, 30)] + [(0, 1, 1)]
        # Count words above 50 with data-dependent branching.
        source = """
        when %p == XXXXXXX0 with %i0.0:
            ugt %p1, %i0, $50; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r2, %r2, $1; deq %i0; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            nop; deq %i0; set %p = ZZZZZZ00;
        when %p == XXXXXXX0 with %i0.1:
            mov %r3, %r2; deq %i0; set %p = ZZ1ZZZZZ;
        when %p == XX1XXXXX:
            halt;
        """
        reference = run_functional(source, pushes)
        pipelined = run_pipelined(source, config_name, pushes)
        assert pipelined.regs.read(3) == reference.regs.read(3) == 2
        if "+P" in config_name:
            assert pipelined.counters.predictions > 0


class TestTiming:
    def test_tdx_straight_line_cpi_is_one(self):
        source = "\n".join(
            f"when %p == XXXXXX{i:02b}:\n    add %r0, %r0, $1; "
            f"set %p = ZZZZZZ{(i + 1) % 4:02b};"
            for i in range(3)
        ) + "\nwhen %p == XXXXXX11:\n    halt;"
        pe = run_pipelined(source, "TDX")
        # Issue once per cycle; the drain of the final halt adds one cycle.
        assert pe.counters.issued == pe.counters.retired == 4
        assert pe.counters.cycles <= pe.counters.retired + 1

    def test_predicate_hazard_grows_with_depth(self):
        """A dependent trigger right behind a predicate write stalls
        depth-proportionally without +P."""
        source = """
        when %p == XXXXXXX0:
            ult %p1, %r0, $40; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r0, %r0, $1; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            halt;
        """
        hazards = {}
        for name in ("TD|X", "T|D|X", "T|D|X1|X2"):
            pe = run_pipelined(source, name)
            assert pe.regs.read(0) == 40
            hazards[name] = pe.counters.pred_hazard_cycles
        assert hazards["TD|X"] < hazards["T|D|X"] < hazards["T|D|X1|X2"]

    def test_same_depth_same_predicate_hazards(self):
        source = """
        when %p == XXXXXXX0:
            ult %p1, %r0, $40; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r0, %r0, $1; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            halt;
        """
        counts = {
            name: run_pipelined(source, name).counters.pred_hazard_cycles
            for name in ("TD|X", "T|DX", "TDX1|X2")
        }
        assert len(set(counts.values())) == 1

    def test_prediction_removes_loop_hazards(self):
        source = """
        when %p == XXXXXXX0:
            ult %p1, %r0, $40; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r0, %r0, $1; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            halt;
        """
        base = run_pipelined(source, "T|D|X1|X2")
        opt = run_pipelined(source, "T|D|X1|X2 +P")
        assert opt.regs.read(0) == base.regs.read(0) == 40
        assert opt.counters.pred_hazard_cycles < base.counters.pred_hazard_cycles / 4
        assert opt.counters.cycles < base.counters.cycles
        # A predictable loop mispredicts at most a couple of times.
        assert opt.counters.mispredictions <= 3

    def test_misprediction_quashes_and_recovers(self):
        """Alternating branch outcomes: the predicted path's pure register
        op issues speculatively and is quashed on every misprediction,
        yet the final counts stay architecturally correct."""
        pushes = [(0, v, 0) for v in (90, 10, 90, 10, 90, 10)] + [(0, 0, 1)]
        source = """
        when %p == XXXX00X0 with %i0.0:
            ugt %p1, %i0, $50; set %p = ZZZZZZZ1;
        when %p == XXXX0011:
            add %r2, %r2, $1; set %p = ZZZZ01ZZ;
        when %p == XXXX0001:
            add %r4, %r4, $1; set %p = ZZZZ01ZZ;
        when %p == XXXXX1XX:
            nop; deq %i0; set %p = ZZZZ0000;
        when %p == XXXX00X0 with %i0.1:
            mov %r3, %r2; deq %i0; set %p = ZZ1ZZZZZ;
        when %p == XX1XXXXX:
            halt;
        """
        pe = run_pipelined(source, "T|D|X1|X2 +P", pushes)
        assert pe.regs.read(3) == 3      # words above 50
        assert pe.regs.read(4) == 3      # words at or below 50
        assert pe.counters.mispredictions > 0
        assert pe.counters.quashed > 0

    def test_effective_queue_status_improves_consumer_loop(self):
        """A tight consume loop stalls conservatively without +Q."""
        pushes = [(0, v, 0) for v in range(3)] + [(0, 99, 1)]
        source = """
        when %p == XXXXXXX0 with %i0.0:
            add %r1, %r1, %i0; deq %i0;
        when %p == XXXXXXX0 with %i0.1:
            mov %r2, %r1; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """
        base = run_pipelined(source, "T|D|X1|X2", pushes)
        opt = run_pipelined(source, "T|D|X1|X2 +Q", pushes)
        assert base.regs.read(2) == opt.regs.read(2) == 3
        assert opt.counters.none_triggered_cycles < base.counters.none_triggered_cycles

    def test_forbidden_instructions_counted_under_speculation(self):
        pushes = [(0, v, 0) for v in (60, 60, 60)] + [(0, 0, 1)]
        source = """
        when %p == XXXXXXX0 with %i0.0:
            ugt %p1, %i0, $50; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r2, %r2, $1; deq %i0; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            nop; deq %i0; set %p = ZZZZZZ00;
        when %p == XXXXXXX0 with %i0.1:
            mov %r3, %r2; deq %i0; set %p = ZZ1ZZZZZ;
        when %p == XX1XXXXX:
            halt;
        """
        pe = run_pipelined(source, "T|D|X1|X2 +P", pushes)
        # The dequeueing add is triggered while the ugt speculation is
        # still unresolved -> forbidden cycles appear.
        assert pe.counters.forbidden_cycles > 0

    def test_data_hazard_on_multiply_consumer(self):
        source = """
        when %p == XXXXXX00:
            mul %r1, %r0, $7; set %p = ZZZZZZ01;
        when %p == XXXXXX01:
            add %r2, %r1, $1; set %p = ZZZZZZ11;
        when %p == XXXXXX11:
            halt;
        """
        pe = run_pipelined(source, "TD|X1|X2")
        assert pe.regs.read(2) == 1
        assert pe.counters.data_hazard_cycles > 0

    def test_counters_tile_the_cycle_count(self):
        for flags in ("", " +P", " +P+Q"):
            pe = run_pipelined(MIXED_PROGRAM, "T|D|X1|X2" + flags, PUSHES)
            pe.counters.check_consistency()


class TestNestedSpeculationExtension:
    def test_nested_depth_reduces_hazards_on_back_to_back_writes(self):
        """Section 6 extension: a second in-flight prediction removes the
        pending-predicate stall on closely spaced predicate writes."""
        source = """
        when %p == 00XXXXXX:
            ult %p1, %r0, $30; set %p = 01ZZZZZZ;
        when %p == 01XXXXXX:
            eqz %p2, %r3; set %p = 10ZZZZZZ;
        when %p == 10XXX11X:
            add %r0, %r0, $1; set %p = 00ZZZZZZ;
        when %p == 10XXXX0X:
            halt;
        """
        flat = PipelinedPE(config_by_name("T|D|X1|X2 +P"), name="flat")
        nested_config = config_by_name("T|D|X1|X2 +P").with_options(
            speculative_depth=2)
        nested = PipelinedPE(nested_config, name="nested")
        for pe in (flat, nested):
            assemble(source).configure(pe)
            while not pe.halted:
                pe.step()
                pe.commit_queues()
        assert flat.regs.read(0) == nested.regs.read(0) == 30
        assert nested.counters.pred_hazard_cycles < flat.counters.pred_hazard_cycles


class TestReset:
    def test_reset_clears_pipeline_state(self):
        pe = run_pipelined(MIXED_PROGRAM, "T|D|X1|X2 +P+Q", PUSHES)
        pe.reset()
        assert not pe.halted
        assert pe.counters.cycles == 0
        assert pe.preds.state == 0
        # And it runs again identically.
        for queue, value, tag in PUSHES:
            pe.inputs[queue].enqueue(value, tag)
        pe.commit_queues()
        while not pe.halted:
            pe.step()
            pe.commit_queues()
        assert pe.regs.read(2) == (5 + 6 + 7) * 3


class TestCaptureStage:
    """Operands are captured only in the decode stage: forwarding scans
    the stages past it, so an in-flight entry needs no stage field.
    Every ``_capture`` call, from the compiled cycle, the interpreter or
    the reference walk, must find its entry in ``pipe[decode_stage]``."""

    @pytest.fixture
    def captures(self, monkeypatch) -> list[str]:
        """The config names of the checked ``_capture`` calls."""
        seen: list[str] = []
        original = PipelinedPE._capture

        def checked(pe, entry):
            assert pe._pipe[pe.config.decode_stage] is entry, pe.config.name
            seen.append(pe.config.name)
            return original(pe, entry)

        monkeypatch.setattr(PipelinedPE, "_capture", checked)
        return seen

    def test_every_workload_on_every_config(self, captures):
        from repro.workloads.suite import WORKLOADS, run_workload

        configs = all_configs(include_padded=True)
        for config in configs:
            for workload in WORKLOADS():
                run_workload(workload, scale=2, make_pe=lambda name, c=config:
                             PipelinedPE(c, name=name))
        assert {name for name in captures} == {c.name for c in configs}

    def test_fuzz_corpus_on_every_config_and_executor(self, captures):
        import os

        from repro.params import DEFAULT_PARAMS
        from repro.verify.corpus import load_corpus
        from repro.verify.harness import check_case

        corpus = load_corpus(os.path.join(os.path.dirname(__file__), "corpus"))
        assert corpus
        for path, case in corpus:
            # Compiled and interpreter legs on all 48 configs, and the
            # reference walk on all 48 too.
            result = check_case(case, DEFAULT_PARAMS, ref_configs=48, jit=True)
            assert result["divergences"] == [], path
        assert len(set(captures)) == 48
