"""Trigger resolution: priority, predicate matching, queue conditions."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.queue import TaggedQueue
from repro.arch.scheduler import ArchQueueView, Scheduler, TriggerKind
from repro.arch.trigger_cache import compile_program
from repro.asm import assemble
from repro.isa.instruction import (
    DatapathOp,
    Destination,
    Instruction,
    Operand,
    TagCheck,
    Trigger,
    make_nop,
)
from repro.isa.opcodes import op_by_name
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline.queue_status import (
    ConservativeQueueView,
    EffectiveQueueView,
    InFlightQueueState,
    PaddedQueueView,
)
from repro.verify.generator import case_source, generate_case


@pytest.fixture()
def queues():
    inputs = [TaggedQueue(4, f"i{i}") for i in range(4)]
    outputs = [TaggedQueue(4, f"o{i}") for i in range(4)]
    return inputs, outputs


def view(queues):
    return ArchQueueView(*queues)


def ins(trigger=Trigger(), op="add", srcs=(Operand.reg(0), Operand.reg(1)),
        dst=Destination.reg(0), deq=()):
    return Instruction(
        trigger=trigger,
        dp=DatapathOp(op=op_by_name(op), srcs=tuple(srcs), dst=dst, deq=tuple(deq)),
    )


def fill(queue, *entries):
    for entry in entries:
        value, tag = entry if isinstance(entry, tuple) else (entry, 0)
        queue.enqueue(value, tag)
    queue.commit()


class TestPriority:
    def test_highest_priority_triggered_fires(self, queues):
        program = [ins(Trigger(pred_on=0b1)), ins(), ins()]
        outcome = Scheduler().evaluate(program, 0, view(queues))
        # Slot 0 requires p0=1 and p0 is 0, so slot 1 wins.
        assert outcome.kind is TriggerKind.FIRED and outcome.index == 1

    def test_invalid_slots_skipped(self, queues):
        program = [make_nop(), ins()]
        outcome = Scheduler().evaluate(program, 0, view(queues))
        assert outcome.index == 1

    def test_none_triggered(self, queues):
        program = [ins(Trigger(pred_on=0b1))]
        outcome = Scheduler().evaluate(program, 0, view(queues))
        assert outcome.kind is TriggerKind.NONE_TRIGGERED

    def test_triggered_indices_telemetry(self, queues):
        program = [ins(), ins(Trigger(pred_on=0b1)), ins()]
        indices = Scheduler().triggered_indices(program, 0, view(queues))
        assert indices == [0, 2]


class TestQueueConditions:
    def test_source_queue_must_be_nonempty(self, queues):
        program = [ins(srcs=(Operand.input_queue(0), Operand.reg(0)))]
        sched = Scheduler()
        assert sched.evaluate(program, 0, view(queues)).kind is TriggerKind.NONE_TRIGGERED
        fill(queues[0][0], 5)
        assert sched.evaluate(program, 0, view(queues)).fired

    def test_dequeued_queue_must_be_nonempty(self, queues):
        program = [ins(deq=(2,))]
        sched = Scheduler()
        assert not sched.evaluate(program, 0, view(queues)).fired
        fill(queues[0][2], 1)
        assert sched.evaluate(program, 0, view(queues)).fired

    def test_tag_check_matches_head(self, queues):
        program = [ins(Trigger(tag_checks=(TagCheck(0, tag=2),)))]
        sched = Scheduler()
        fill(queues[0][0], (5, 1))
        assert not sched.evaluate(program, 0, view(queues)).fired
        queues[0][0].dequeue()
        fill(queues[0][0], (5, 2))
        assert sched.evaluate(program, 0, view(queues)).fired

    def test_negated_tag_check(self, queues):
        program = [ins(Trigger(tag_checks=(TagCheck(0, tag=2, negate=True),)))]
        sched = Scheduler()
        fill(queues[0][0], (5, 2))
        assert not sched.evaluate(program, 0, view(queues)).fired
        queues[0][0].dequeue()
        fill(queues[0][0], (5, 0))
        assert sched.evaluate(program, 0, view(queues)).fired

    def test_output_needs_space(self, queues):
        program = [ins(dst=Destination.output_queue(1, 0))]
        sched = Scheduler()
        for _ in range(4):
            queues[1][1].enqueue(0)
        queues[1][1].commit()
        assert sched.evaluate(program, 0, view(queues)).kind is TriggerKind.NONE_TRIGGERED
        queues[1][1].dequeue()
        assert sched.evaluate(program, 0, view(queues)).fired


class TestPredicateHazards:
    def test_pending_watched_bit_blocks(self, queues):
        program = [ins(Trigger(pred_on=0b1))]
        outcome = Scheduler().evaluate(
            program, 0b1, view(queues), pending_predicates=0b1)
        assert outcome.kind is TriggerKind.PREDICATE_HAZARD

    def test_pending_unwatched_bit_harmless(self, queues):
        program = [ins(Trigger(pred_on=0b1))]
        outcome = Scheduler().evaluate(
            program, 0b1, view(queues), pending_predicates=0b10)
        assert outcome.fired

    def test_stable_mismatch_beats_pending(self, queues):
        """If the non-pending watched bits already fail, the instruction is
        simply not triggered — no hazard stall."""
        program = [ins(Trigger(pred_on=0b11))]
        outcome = Scheduler().evaluate(
            program, 0b00, view(queues), pending_predicates=0b10)
        assert outcome.kind is TriggerKind.NONE_TRIGGERED

    def test_unknown_blocks_lower_priority(self, queues):
        """Priority semantics: nothing may fire past an unknown slot."""
        program = [ins(Trigger(pred_on=0b1)), ins()]
        outcome = Scheduler().evaluate(
            program, 0b1, view(queues), pending_predicates=0b1)
        assert outcome.kind is TriggerKind.PREDICATE_HAZARD
        assert outcome.index == 0

    def test_higher_priority_triggered_fires_before_unknown(self, queues):
        program = [ins(), ins(Trigger(pred_on=0b1))]
        outcome = Scheduler().evaluate(
            program, 0b1, view(queues), pending_predicates=0b1)
        assert outcome.fired and outcome.index == 0


class TestSpeculationRestrictions:
    def test_side_effect_forbidden_while_speculating(self, queues):
        fill(queues[0][0], 1)
        program = [ins(deq=(0,))]
        outcome = Scheduler().evaluate(
            program, 0, view(queues), forbid_side_effects=True)
        assert outcome.kind is TriggerKind.FORBIDDEN

    def test_pure_instruction_allowed_while_speculating(self, queues):
        program = [ins()]
        outcome = Scheduler().evaluate(
            program, 0, view(queues), forbid_side_effects=True)
        assert outcome.fired


class TestTriggeredIndicesPendingPredicates:
    def test_pending_write_hides_watching_slots(self, queues):
        program = [ins(Trigger(pred_on=0b1)), ins(Trigger(pred_off=0b1)), ins()]
        sched = Scheduler()
        # Stable state: p0=0 -> slots 1 and 2 trigger.
        assert sched.triggered_indices(program, 0, view(queues)) == [1, 2]
        # An in-flight write to p0 makes both watchers unknown, not
        # "triggered under the stale value".
        assert sched.triggered_indices(
            program, 0, view(queues), pending_predicates=0b1
        ) == [2]

    def test_pending_bits_outside_the_watch_set_are_ignored(self, queues):
        program = [ins(Trigger(pred_on=0b10)), ins()]
        indices = Scheduler().triggered_indices(
            program, 0b10, view(queues), pending_predicates=0b100
        )
        assert indices == [0, 1]


class TestCompiledEvaluate:
    """The compiled descriptor path must agree with the dataclass walk."""

    def _assert_agree(self, program, pred_state, queues, pending=0, forbid=False):
        from repro.arch.trigger_cache import compile_program

        sched = Scheduler()
        reference = sched.evaluate(
            program, pred_state, view(queues),
            pending_predicates=pending, forbid_side_effects=forbid,
        )
        compiled = sched.evaluate(
            program, pred_state, view(queues),
            pending_predicates=pending, forbid_side_effects=forbid,
            compiled=compile_program(program, P.num_preds),
        )
        assert compiled.kind is reference.kind
        assert compiled.index == reference.index

    def test_agreement_across_predicate_states(self, queues):
        program = [ins(Trigger(pred_on=0b1, pred_off=0b10)), ins(deq=(0,)), ins()]
        fill(queues[0][0], (7, 1))
        for pred_state in range(8):
            for pending in (0, 0b1, 0b11):
                for forbid in (False, True):
                    self._assert_agree(program, pred_state, queues,
                                       pending, forbid)

    def test_agreement_on_tag_checks(self, queues):
        program = [
            ins(Trigger(tag_checks=(TagCheck(queue=0, tag=2),))),
            ins(Trigger(tag_checks=(TagCheck(queue=0, tag=2, negate=True),))),
            ins(Trigger(pred_on=0b1)),
        ]
        self._assert_agree(program, 0, queues)          # empty queue
        fill(queues[0][0], (9, 2))
        self._assert_agree(program, 0, queues)          # tag match
        queues[0][0].dequeue()
        queues[0][0].commit()
        fill(queues[0][0], (9, 3))
        self._assert_agree(program, 0, queues)          # tag mismatch


@lru_cache(maxsize=None)
def _fuzz_program(seed):
    """A fuzz case's program, assembled once per seed."""
    return tuple(assemble(case_source(generate_case(seed, P)), P).instructions)


_PADDING = 2
_MASKS = st.integers(0, (1 << P.num_preds) - 1)
#: In-flight queue bookings, mostly none, so dequeuing candidates fire
#: (or are forbidden) often enough to be checked.
_BOOKINGS = st.sampled_from((0, 0, 0, 1, 2))
_TOKENS = st.lists(
    st.tuples(st.integers(0, 255), st.integers(0, P.num_tags - 1)),
    max_size=P.queue_capacity,
)


@st.composite
def _queue_states(draw):
    """Input contents, output occupancies (live and staged) and in-flight
    bookings, with a dequeue booked until retirement at least as long as
    until decode."""
    inputs = []
    for i in range(P.num_input_queues):
        queue = TaggedQueue(P.queue_capacity, f"i{i}")
        fill(queue, *draw(_TOKENS))
        inputs.append(queue)
    outputs = []
    for o in range(P.num_output_queues):
        queue = TaggedQueue(P.queue_capacity + _PADDING, f"o{o}")
        live = draw(st.integers(0, queue.capacity))
        fill(queue, *[0] * live)
        for _ in range(draw(st.integers(0, queue.capacity - live))):
            queue.enqueue(0)
        outputs.append(queue)
    in_flight = InFlightQueueState(P.num_input_queues, P.num_output_queues)
    for i in range(P.num_input_queues):
        in_flight.pending_deqs[i] = draw(_BOOKINGS)
        in_flight.sched_deqs[i] = in_flight.pending_deqs[i] + draw(_BOOKINGS)
    for o in range(P.num_output_queues):
        in_flight.pending_enqs[o] = draw(_BOOKINGS)
    return inputs, outputs, in_flight


class TestIndexedWalk:
    """The predicate-indexed candidate walk agrees with the reference
    walk on fuzz programs under every pipelined queue-status view."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 199),
        pred_state=_MASKS,
        pending=st.just(0) | _MASKS,
        forbid=st.booleans(),
        state=_queue_states(),
    )
    def test_agrees_with_the_reference_walk(self, seed, pred_state, pending,
                                            forbid, state):
        program = _fuzz_program(seed)
        # One table for the three views: the later two read candidates
        # the first one filled.
        compiled = compile_program(program, P.num_preds)
        inputs, outputs, in_flight = state
        sched = Scheduler()
        for view in (
            ConservativeQueueView(inputs, outputs, in_flight),
            EffectiveQueueView(inputs, outputs, in_flight),
            PaddedQueueView(inputs, outputs, in_flight, _PADDING),
        ):
            reference = sched.evaluate(program, pred_state, view,
                                       pending, forbid)
            outcome = sched.evaluate(program, pred_state, view,
                                     pending, forbid, compiled=compiled)
            assert (outcome.kind, outcome.index) == (
                reference.kind, reference.index), type(view).__name__
