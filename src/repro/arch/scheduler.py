"""Trigger resolution and priority encoding — the PE front end.

Every cycle the scheduler compares all instruction triggers against the
predicate state and queue status and fires the highest-priority triggered
instruction (Section 2.1).  The queue status it sees is abstracted behind
:class:`QueueStatusView`, which is the seam where the pipelined models
plug in conservative, effective (+Q), or padded accounting.

Pipelining introduces two suppression mechanisms the scheduler must
honor:

* ``pending_predicates`` — a mask of predicate bits with in-flight
  datapath writes.  An instruction whose trigger inspects a pending bit
  has *unknown* eligibility; priority semantics then forbid firing any
  lower-priority instruction past it (the predicate hazard).
* ``forbid_side_effects`` — set while a predicate speculation is
  unresolved (Section 5.2); a triggered instruction with pre-retirement
  side effects is then recognized but not issued (a forbidden cycle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arch.queue import TaggedQueue
from repro.isa.instruction import Instruction

if TYPE_CHECKING:
    from repro.arch.trigger_cache import CompiledProgram


class QueueStatusView:
    """What the scheduler believes about queue state.

    The architectural view (this base class) reports true occupancies.
    Subclasses in :mod:`repro.pipeline.queue_status` adjust for in-flight
    dequeues and enqueues in conservative or effective (+Q) fashion.
    """

    def __init__(self, inputs: list[TaggedQueue], outputs: list[TaggedQueue]) -> None:
        self.inputs = inputs
        self.outputs = outputs

    def input_count(self, queue: int) -> int:
        """Entries the scheduler may consider available on an input queue."""
        return self.inputs[queue].occupancy

    def input_tag(self, queue: int, position: int = 0) -> int | None:
        """Tag at the given *effective* position (0 = effective head)."""
        q = self.inputs[queue]
        if position >= q.occupancy:
            return None
        return q.peek(position).tag

    def output_space(self, queue: int) -> int:
        """Slots the scheduler may consider free on an output queue."""
        return self.outputs[queue].free_slots


ArchQueueView = QueueStatusView
"""Alias: the unadjusted architectural queue view."""


class _Eligibility(enum.Enum):
    TRIGGERED = "triggered"
    NOT_TRIGGERED = "not_triggered"
    UNKNOWN = "unknown"          # depends on a pending predicate write


class TriggerKind(enum.Enum):
    """Outcome classification of one scheduling cycle (Figure 5 taxonomy)."""

    FIRED = "fired"
    PREDICATE_HAZARD = "predicate_hazard"
    FORBIDDEN = "forbidden"
    NONE_TRIGGERED = "none_triggered"


@dataclass(frozen=True)
class TriggerOutcome:
    """Result of one trigger-resolution cycle."""

    kind: TriggerKind
    index: int | None = None   # fired (or forbidden) instruction slot

    @property
    def fired(self) -> bool:
        return self.kind is TriggerKind.FIRED


NONE_TRIGGERED = TriggerOutcome(TriggerKind.NONE_TRIGGERED)
"""The one outcome of a cycle in which nothing triggered."""


class Scheduler:
    """Priority-ordered trigger resolution over one PE's instruction list."""

    def evaluate(
        self,
        instructions: list[Instruction],
        pred_state: int,
        view: QueueStatusView,
        pending_predicates: int = 0,
        forbid_side_effects: bool = False,
        compiled: CompiledProgram | None = None,
    ) -> TriggerOutcome:
        """Resolve triggers for one cycle.

        Walks instructions in priority (list) order.  The first instruction
        whose eligibility is *unknown* (its trigger inspects a predicate
        with an in-flight write) stops the walk with a predicate hazard:
        nothing of lower priority may fire past it.  The first *triggered*
        instruction before any unknown one fires — unless speculation
        forbids its side effects, which is reported as a forbidden cycle.

        When ``compiled`` descriptors for the same program are supplied
        (see :mod:`repro.arch.trigger_cache`) only the descriptors whose
        predicates match are checked, over flat integers instead of the
        instruction dataclasses; the outcome is bit-for-bit identical.
        """
        if compiled is not None:
            return self._evaluate_compiled(
                compiled, pred_state, view, pending_predicates,
                forbid_side_effects,
            )
        for index, ins in enumerate(instructions):
            status = self._eligibility(ins, pred_state, view, pending_predicates)
            if status is _Eligibility.UNKNOWN:
                return TriggerOutcome(TriggerKind.PREDICATE_HAZARD, index)
            if status is _Eligibility.TRIGGERED:
                if forbid_side_effects and ins.dp.has_side_effects_before_retire:
                    return TriggerOutcome(TriggerKind.FORBIDDEN, index)
                return TriggerOutcome(TriggerKind.FIRED, index)
        return NONE_TRIGGERED

    def _evaluate_compiled(
        self,
        compiled: CompiledProgram,
        pred_state: int,
        view: QueueStatusView,
        pending_predicates: int,
        forbid_side_effects: bool,
    ) -> TriggerOutcome:
        """The fast path of :meth:`evaluate`: queue checks for the
        predicate-matched candidates alone.

        ``compiled.candidates`` holds, per (predicate state, pending
        mask), the descriptors whose stable predicate bits match, in
        priority order, up to the first with no queue condition; every
        descriptor it leaves out is not triggered whatever the queues
        hold.  Each conditional candidate's queue conditions are then
        checked (occupancy, tag checks, output space) and the first
        that holds decides the cycle; if none holds, the unconditional
        candidate does (or nothing triggers).  Every condition is a
        pure read of the view, so checking predicates before queues
        yields the reference walk's outcome.
        """
        try:
            entry = compiled.candidates[
                pending_predicates << compiled.shift | pred_state]
        except KeyError:
            entry = compiled.fill(pred_state, pending_predicates)
        conditional, outcome, if_forbidden = entry
        for required, tag_checks, out_queue, fires, forbidden in conditional:
            for queue in required:
                if view.input_count(queue) < 1:
                    break
            else:
                for queue, tag, negate in tag_checks:
                    head_tag = view.input_tag(queue, 0)
                    if head_tag is None or (head_tag == tag) is negate:
                        break
                else:
                    if out_queue < 0 or view.output_space(out_queue) >= 1:
                        return forbidden if forbid_side_effects else fires
        return if_forbidden if forbid_side_effects else outcome

    def _eligibility(
        self,
        ins: Instruction,
        pred_state: int,
        view: QueueStatusView,
        pending_predicates: int,
    ) -> _Eligibility:
        if not ins.valid:
            return _Eligibility.NOT_TRIGGERED

        # Queue conditions are known regardless of predicate state; if they
        # fail, the instruction cannot trigger this cycle.
        for queue in ins.required_input_queues:
            if view.input_count(queue) < 1:
                return _Eligibility.NOT_TRIGGERED
        for check in ins.trigger.tag_checks:
            head_tag = view.input_tag(check.queue, 0)
            if head_tag is None or not check.matches(head_tag):
                return _Eligibility.NOT_TRIGGERED
        out_queue = ins.output_queue
        if out_queue is not None and view.output_space(out_queue) < 1:
            return _Eligibility.NOT_TRIGGERED

        # Predicate conditions: resolve what we can against non-pending
        # bits; pending watched bits make the outcome unknown.
        watched = ins.trigger.watched_predicates
        stable = watched & ~pending_predicates
        on_stable = ins.trigger.pred_on & stable
        off_stable = ins.trigger.pred_off & stable
        if (pred_state & on_stable) != on_stable:
            return _Eligibility.NOT_TRIGGERED
        if (~pred_state & off_stable) != off_stable:
            return _Eligibility.NOT_TRIGGERED
        if watched & pending_predicates:
            return _Eligibility.UNKNOWN
        return _Eligibility.TRIGGERED
