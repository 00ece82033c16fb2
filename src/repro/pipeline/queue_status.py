"""Queue status accounting policies (paper Section 5.3).

Queue hazards straddle the control/data hazard dichotomy: in-flight
dequeues and enqueues make the architectural queue state stale by the
time the scheduler reads it.  Three policies are modeled:

* :class:`ConservativeQueueView` — RAW-style binary accounting: a queue
  with any pending dequeue is treated as empty, one with any pending
  enqueue as full.  Safe, cheap, and responsible for the growing
  "no triggered instruction" CPI component in unoptimized pipelines.
* :class:`EffectiveQueueView` — the paper's +Q: subtract in-flight
  dequeues from input occupancy (peeking past the head to the "neck"
  when needed) and add in-flight enqueues to output occupancy.  Costs
  only a couple of narrow adders.
* :class:`PaddedQueueView` — the WaveScalar "reject buffer": output
  queues get one extra physical slot per pipeline stage so in-flight
  enqueues always have somewhere to land; inputs stay conservative.
  Used in the Section 5.4 area/power comparison.

The views run for every trigger candidate of every cycle, so they read
the queues' storage (``_live``, ``_staged``) rather than the
``occupancy``/``free_slots`` properties.
"""

from __future__ import annotations

from repro.arch.queue import TaggedQueue
from repro.arch.scheduler import QueueStatusView
from repro.pipeline.config import PipelineConfig, QueuePolicy


class InFlightQueueState:
    """Pending queue activity of instructions currently in the pipeline.

    Two horizons matter.  ``pending_deqs`` counts dequeues issued but not
    yet *physically performed* (they land in decode) — this is what the
    effective view corrects occupancy by.  ``sched_deqs`` counts dequeues
    of instructions that have not yet *retired*: without pipeline-register
    inspection a scheduler only learns about a dequeue at writeback, so
    the conservative policy keys off this longer window.  Enqueues land
    at retirement, so a single count serves both roles.
    """

    def __init__(self, num_inputs: int, num_outputs: int) -> None:
        self.pending_deqs = [0] * num_inputs     # issued, not yet past decode
        self.sched_deqs = [0] * num_inputs       # issued, not yet retired
        self.pending_enqs = [0] * num_outputs    # issued, not yet retired

    def reset(self) -> None:
        for i in range(len(self.pending_deqs)):
            self.pending_deqs[i] = 0
            self.sched_deqs[i] = 0
        for i in range(len(self.pending_enqs)):
            self.pending_enqs[i] = 0


class ConservativeQueueView(QueueStatusView):
    """Binary full/empty treatment of queues with pending operations."""

    def __init__(
        self,
        inputs: list[TaggedQueue],
        outputs: list[TaggedQueue],
        in_flight: InFlightQueueState,
    ) -> None:
        super().__init__(inputs, outputs)
        self.in_flight = in_flight

    def input_count(self, queue: int) -> int:
        if self.in_flight.sched_deqs[queue]:
            return 0
        return len(self.inputs[queue]._live)

    def input_tag(self, queue: int, position: int = 0) -> int | None:
        if self.in_flight.sched_deqs[queue]:
            return None
        live = self.inputs[queue]._live
        if position >= len(live):
            return None
        return live[position].tag

    def output_space(self, queue: int) -> int:
        if self.in_flight.pending_enqs[queue]:
            return 0
        q = self.outputs[queue]
        return q.capacity - len(q._live) - len(q._staged)


#: Queue entries whose tags the +Q trigger hardware can inspect: the head
#: and the "neck" (Section 5.3).  Deeper entries have no tag comparators.
TAG_VISIBILITY = 2


class EffectiveQueueView(QueueStatusView):
    """The paper's +Q accounting: occupancy corrected for the pipeline."""

    def __init__(
        self,
        inputs: list[TaggedQueue],
        outputs: list[TaggedQueue],
        in_flight: InFlightQueueState,
        visible_depth: int = TAG_VISIBILITY,
    ) -> None:
        super().__init__(inputs, outputs)
        self.in_flight = in_flight
        self.visible_depth = visible_depth

    def input_count(self, queue: int) -> int:
        count = (len(self.inputs[queue]._live)
                 - self.in_flight.pending_deqs[queue])
        return count if count > 0 else 0

    def input_tag(self, queue: int, position: int = 0) -> int | None:
        """Tag at the effective position: skip entries being dequeued.

        With a split trigger/decode this inspects the "neck" of the queue
        as well as the head, exactly as Section 5.3 describes.  The
        hardware exposes *only* head and neck tag comparators, so an
        effective position beyond the visibility window reads as unknown
        (``None``) and the trigger conservatively does not fire — it
        cannot peek arbitrarily deep the way a software model could.
        """
        effective = position + self.in_flight.pending_deqs[queue]
        if effective >= self.visible_depth:
            return None
        live = self.inputs[queue]._live
        if effective >= len(live):
            return None
        return live[effective].tag

    def output_space(self, queue: int) -> int:
        q = self.outputs[queue]
        space = (q.capacity - len(q._live) - len(q._staged)
                 - self.in_flight.pending_enqs[queue])
        return space if space > 0 else 0


class PaddedQueueView(ConservativeQueueView):
    """Reject-buffer policy: outputs never conservatively block.

    The physical padding (depth extra slots per output queue, applied by
    the PE at configuration time) guarantees capacity for every in-flight
    enqueue, so the scheduler checks only the real occupancy against the
    *unpadded* capacity; inputs remain conservative.
    """

    def __init__(
        self,
        inputs: list[TaggedQueue],
        outputs: list[TaggedQueue],
        in_flight: InFlightQueueState,
        padding: int,
    ) -> None:
        super().__init__(inputs, outputs, in_flight)
        self.padding = padding

    def output_space(self, queue: int) -> int:
        q = self.outputs[queue]
        space = q.capacity - self.padding - len(q._live)
        return space if space > 0 else 0


def make_queue_view(
    config: PipelineConfig,
    inputs: list[TaggedQueue],
    outputs: list[TaggedQueue],
    in_flight: InFlightQueueState,
) -> QueueStatusView:
    """The scheduler's queue view for a given microarchitecture."""
    if config.queue_policy is QueuePolicy.EFFECTIVE:
        return EffectiveQueueView(inputs, outputs, in_flight)
    if config.queue_policy is QueuePolicy.PADDED:
        return PaddedQueueView(inputs, outputs, in_flight, config.depth)
    return ConservativeQueueView(inputs, outputs, in_flight)
