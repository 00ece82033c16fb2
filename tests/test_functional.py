"""The functional (architectural) PE simulator."""

import pytest

from repro.arch import FunctionalPE
from repro.asm import assemble
from repro.errors import SimulationError
from repro.params import ArchParams, DEFAULT_PARAMS as P


def run_program(source, pushes=None, max_cycles=10_000, pe=None):
    pe = pe or FunctionalPE(name="t")
    assemble(source).configure(pe)
    for queue, value, tag in pushes or []:
        pe.inputs[queue].enqueue(value, tag)
        pe.inputs[queue].commit()
    pe.run(max_cycles)
    return pe


class TestExecution:
    def test_halt_program(self):
        pe = run_program("when %p == XXXXXXXX:\n    halt;")
        assert pe.halted and pe.counters.retired == 1

    def test_register_arithmetic(self):
        pe = run_program("""
        when %p == XXXXXXX0:
            add %r0, %r0, $21; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """)
        assert pe.regs.read(0) == 21

    def test_predicate_branching(self):
        pe = run_program("""
        when %p == XXXXXX00:
            ult %p1, %r0, $5; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            add %r0, %r0, $1; set %p = ZZZZZZ00;
        when %p == XXXXXX01:
            halt;
        """)
        assert pe.regs.read(0) == 5   # loop ran until r0 < 5 failed

    def test_queue_consume_and_produce(self):
        pe = run_program("""
        when %p == XXXXXXXX with %i0.0:
            add %o1.2, %i0, $100; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """, pushes=[(0, 7, 0)])
        entry = pe.outputs[1].peek(0)
        assert entry.value == 107 and entry.tag == 2

    def test_tag_directed_dispatch(self):
        source = """
        when %p == XXXXXXXX with %i0.1:
            mov %r1, %i0; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXXX with %i0.0:
            mov %r0, %i0; deq %i0;
        when %p == XXXXXXX1:
            halt;
        """
        pe = run_program(source, pushes=[(0, 11, 0), (0, 22, 1)])
        assert pe.regs.read(0) == 11 and pe.regs.read(1) == 22

    def test_scratchpad_round_trip(self):
        pe = run_program("""
        when %p == XXXXXX00:
            ssw %r0, $55; set %p = ZZZZZZ01;
        when %p == XXXXXX01:
            lsw %r1, %r0; set %p = ZZZZZZ11;
        when %p == XXXXXX11:
            halt;
        """)
        assert pe.regs.read(1) == 55

    def test_waits_for_missing_input(self):
        pe = FunctionalPE(name="t")
        assemble("""
        when %p == XXXXXXXX with %i0.0:
            mov %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """).configure(pe)
        for _ in range(10):
            pe.step()
            pe.commit_queues()
        assert pe.counters.none_triggered == 10
        pe.inputs[0].enqueue(1, 0)
        pe.commit_queues()
        pe.run()
        assert pe.halted

    def test_timeout_raises(self):
        pe = FunctionalPE(name="t")
        assemble("when %p == XXXXXXX1:\n    halt;").configure(pe)
        with pytest.raises(SimulationError, match="did not halt"):
            pe.run(max_cycles=50)

    def test_may_halt_on_the_last_budgeted_cycle(self):
        """A two-instruction program halts on its second cycle: a budget
        of 2 returns, a budget of 1 still raises."""
        program = assemble("""
        when %p == XXXXXXX0:
            mov %r0, $1; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """)
        pe = FunctionalPE(name="t")
        program.configure(pe)
        assert pe.run(max_cycles=2).cycles == 2
        pe = FunctionalPE(name="t")
        program.configure(pe)
        with pytest.raises(SimulationError,
                           match=r"^t: did not halt within 1 cycles$"):
            pe.run(max_cycles=1)

    def test_program_too_long_rejected(self):
        pe = FunctionalPE(name="t")
        ins = assemble("when %p == XXXXXXXX:\n    nop;").instructions * 17
        with pytest.raises(SimulationError, match="NIns"):
            pe.load_program(ins)


class TestCounters:
    def test_cpi_is_one_when_always_ready(self):
        pe = run_program("""
        when %p == XXXXXX00:
            add %r0, %r0, $1; set %p = ZZZZZZ01;
        when %p == XXXXXX01:
            add %r0, %r0, $1; set %p = ZZZZZZ11;
        when %p == XXXXXX11:
            halt;
        """)
        assert pe.counters.cpi == 1.0
        assert pe.counters.retired == 3

    def test_predicate_write_tracking(self):
        pe = run_program("""
        when %p == XXXXXX00:
            eq %p1, %r0, %r0; set %p = ZZZZZZZ1;
        when %p == XXXXXX11:
            halt;
        """)
        assert pe.counters.predicate_writes == 1
        assert pe.counters.predicate_write_rate == 0.5

    def test_retired_by_op_histogram(self):
        pe = run_program("""
        when %p == XXXXXXX0:
            add %r0, %r0, $1; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """)
        assert pe.counters.retired_by_op == {"add": 1, "halt": 1}

    def test_reset_restores_initial_state(self):
        pe = run_program("""
        .start %p = 00000010
        when %p == XXXXXX10:
            add %r0, %r0, $9; set %p = ZZZZZZ11;
        when %p == XXXXXX11:
            halt;
        """)
        assert pe.regs.read(0) == 9
        pe.reset()
        assert not pe.halted
        assert pe.regs.read(0) == 0
        assert pe.preds.state == 0b10     # .start value survives reset
        assert pe.counters.retired == 0
        pe.run()
        assert pe.regs.read(0) == 9


class TestParameterizedMachine:
    def test_small_machine(self):
        params = ArchParams(num_regs=2, num_preds=2, num_input_queues=1,
                            num_output_queues=1, max_check=1, max_deq=1,
                            num_instructions=4)
        pe = FunctionalPE(params, name="small")
        assemble("""
        when %p == X0:
            add %r1, %r1, $3; set %p = Z1;
        when %p == X1:
            halt;
        """, params).configure(pe)
        pe.run()
        assert pe.regs.read(1) == 3
