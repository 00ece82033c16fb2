"""Queue-status policies: conservative, effective (+Q), padded."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.queue import TaggedQueue
from repro.pipeline.config import config_by_name
from repro.pipeline.queue_status import (
    TAG_VISIBILITY,
    ConservativeQueueView,
    EffectiveQueueView,
    InFlightQueueState,
    PaddedQueueView,
    make_queue_view,
)


@pytest.fixture()
def setup():
    inputs = [TaggedQueue(4, f"i{i}") for i in range(2)]
    outputs = [TaggedQueue(4, f"o{i}") for i in range(2)]
    state = InFlightQueueState(2, 2)
    inputs[0].enqueue(10, tag=0)
    inputs[0].enqueue(20, tag=1)
    inputs[0].commit()
    return inputs, outputs, state


class TestConservative:
    def test_pending_dequeue_means_empty(self, setup):
        inputs, outputs, state = setup
        view = ConservativeQueueView(inputs, outputs, state)
        assert view.input_count(0) == 2
        state.sched_deqs[0] = 1
        assert view.input_count(0) == 0
        assert view.input_tag(0) is None

    def test_pending_enqueue_means_full(self, setup):
        inputs, outputs, state = setup
        view = ConservativeQueueView(inputs, outputs, state)
        assert view.output_space(0) == 4
        state.pending_enqs[0] = 1
        assert view.output_space(0) == 0

    def test_physical_dequeue_alone_does_not_hide_input(self, setup):
        """The conservative window keys off retirement, not decode."""
        inputs, outputs, state = setup
        view = ConservativeQueueView(inputs, outputs, state)
        state.pending_deqs[0] = 1     # physically pending, but sched flag clear
        assert view.input_count(0) == 2


class TestEffective:
    def test_occupancy_corrected_by_pending_dequeues(self, setup):
        inputs, outputs, state = setup
        view = EffectiveQueueView(inputs, outputs, state)
        assert view.input_count(0) == 2
        state.pending_deqs[0] = 1
        assert view.input_count(0) == 1

    def test_neck_inspection(self, setup):
        """With one dequeue in flight the scheduler sees the second entry."""
        inputs, outputs, state = setup
        view = EffectiveQueueView(inputs, outputs, state)
        assert view.input_tag(0, 0) == 0
        state.pending_deqs[0] = 1
        assert view.input_tag(0, 0) == 1     # the neck's tag

    def test_output_space_counts_in_flight_enqueues(self, setup):
        inputs, outputs, state = setup
        view = EffectiveQueueView(inputs, outputs, state)
        state.pending_enqs[1] = 2
        assert view.output_space(1) == 2

    def test_never_negative(self, setup):
        inputs, outputs, state = setup
        view = EffectiveQueueView(inputs, outputs, state)
        state.pending_deqs[0] = 5
        assert view.input_count(0) == 0
        state.pending_enqs[0] = 9
        assert view.output_space(0) == 0

    def test_tags_invisible_past_head_and_neck(self, setup):
        """Section 5.3 hardware has only head and neck tag comparators;
        an effective position of 2+ must read as unknown, not peek deep."""
        inputs, outputs, state = setup
        inputs[0].enqueue(30, tag=1)
        inputs[0].commit()                    # occupancy 3, tags (0, 1, 1)
        view = EffectiveQueueView(inputs, outputs, state)
        state.pending_deqs[0] = 2
        assert view.input_count(0) == 1       # occupancy math is still exact
        assert view.input_tag(0, 0) is None   # third-from-head: no comparator


class TestVisibilityWindowRegression:
    """Minimized repro: with two dequeues in flight, a tag match visible
    only at the third-from-head entry must not fire a trigger — the
    hardware cannot see it."""

    def test_third_from_head_tag_cannot_fire_a_trigger(self):
        from repro.arch.scheduler import Scheduler, TriggerKind
        from repro.isa.instruction import (
            DatapathOp, Destination, Instruction, Operand, TagCheck, Trigger,
        )
        from repro.isa.opcodes import op_by_name

        inputs = [TaggedQueue(4, f"i{i}") for i in range(4)]
        outputs = [TaggedQueue(4, f"o{i}") for i in range(4)]
        for value, tag in ((1, 0), (2, 0), (3, 1)):
            inputs[0].enqueue(value, tag)
        inputs[0].commit()
        state = InFlightQueueState(4, 4)
        state.pending_deqs[0] = 2            # head and neck being dequeued
        view = EffectiveQueueView(inputs, outputs, state)
        program = [Instruction(
            trigger=Trigger(tag_checks=(TagCheck(queue=0, tag=1),)),
            dp=DatapathOp(
                op=op_by_name("mov"),
                srcs=(Operand.input_queue(0),),
                dst=Destination.reg(0),
            ),
        )]
        outcome = Scheduler().evaluate(program, 0, view)
        assert outcome.kind is TriggerKind.NONE_TRIGGERED


class TestPadded:
    def test_output_checks_against_unpadded_capacity(self, setup):
        inputs, outputs, state = setup
        # Physical queue is padded by the pipeline depth (2 here).
        outputs[0] = TaggedQueue(6, "padded")
        view = PaddedQueueView(inputs, outputs, state, padding=2)
        assert view.output_space(0) == 4
        state.pending_enqs[0] = 3      # padding absorbs them: ignored
        assert view.output_space(0) == 4

    def test_inputs_stay_conservative(self, setup):
        inputs, outputs, state = setup
        view = PaddedQueueView(inputs, outputs, state, padding=2)
        state.sched_deqs[0] = 1
        assert view.input_count(0) == 0


class TestFactory:
    def test_policy_selects_view(self, setup):
        inputs, outputs, state = setup
        assert isinstance(
            make_queue_view(config_by_name("T|D|X"), inputs, outputs, state),
            ConservativeQueueView,
        )
        assert isinstance(
            make_queue_view(config_by_name("T|D|X +Q"), inputs, outputs, state),
            EffectiveQueueView,
        )
        assert isinstance(
            make_queue_view(config_by_name("T|D|X +pad"), inputs, outputs, state),
            PaddedQueueView,
        )


# -- the views against their property-based formulas ---------------------

def _oracle_input_count(policy, q, state, queue):
    if policy == "effective":
        return max(0, q.occupancy - state.pending_deqs[queue])
    return 0 if state.sched_deqs[queue] else q.occupancy


def _oracle_input_tag(policy, q, state, queue, position):
    if policy == "effective":
        effective = position + state.pending_deqs[queue]
        if effective >= TAG_VISIBILITY or effective >= q.occupancy:
            return None
        return q.peek(effective).tag
    if state.sched_deqs[queue] or position >= q.occupancy:
        return None
    return q.peek(position).tag


def _oracle_output_space(policy, q, state, queue, padding):
    if policy == "effective":
        return max(0, q.free_slots - state.pending_enqs[queue])
    if policy == "padded":
        return max(0, (q.capacity - padding) - q.occupancy)
    return 0 if state.pending_enqs[queue] else q.free_slots


@st.composite
def _queue_world(draw):
    """Two inputs and two outputs with random live and staged contents
    (never past capacity), plus random in-flight bookings."""
    capacity = draw(st.integers(1, 5))
    padding = draw(st.integers(1, 4))
    policy = draw(st.sampled_from(["conservative", "effective", "padded"]))
    out_capacity = capacity + padding if policy == "padded" else capacity

    def fill(cap, name):
        queue = TaggedQueue(cap, name)
        live = draw(st.integers(0, cap))
        staged = draw(st.integers(0, cap - live))
        for i in range(live):
            queue.enqueue(i, draw(st.integers(0, 3)))
        queue.commit()
        for i in range(staged):
            queue.enqueue(100 + i, draw(st.integers(0, 3)))
        return queue

    inputs = [fill(capacity, f"i{i}") for i in range(2)]
    outputs = [fill(out_capacity, f"o{i}") for i in range(2)]
    state = InFlightQueueState(2, 2)
    for i in range(2):
        state.sched_deqs[i] = draw(st.integers(0, 3))
        state.pending_deqs[i] = draw(st.integers(0, state.sched_deqs[i]))
        state.pending_enqs[i] = draw(st.integers(0, 3))
    return policy, padding, inputs, outputs, state


class TestViewsMatchPropertyFormulas:
    """Each view reads queue storage directly; it must answer exactly
    what the ``occupancy``/``free_slots``/``peek`` formulas answer."""

    @settings(max_examples=300, deadline=None)
    @given(world=_queue_world())
    def test_views_agree_with_the_property_formulas(self, world):
        policy, padding, inputs, outputs, state = world
        view = {
            "conservative": ConservativeQueueView(inputs, outputs, state),
            "effective": EffectiveQueueView(inputs, outputs, state),
            "padded": PaddedQueueView(inputs, outputs, state, padding),
        }[policy]
        for queue in range(2):
            q = inputs[queue]
            assert view.input_count(queue) == _oracle_input_count(
                policy, q, state, queue)
            for position in range(q.capacity + 1):
                assert view.input_tag(queue, position) == _oracle_input_tag(
                    policy, q, state, queue, position)
            assert view.output_space(queue) == _oracle_output_space(
                policy, outputs[queue], state, queue, padding)
