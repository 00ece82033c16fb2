"""Runtime architectural invariant checking (opt-in, per cycle).

The pipelined PE maintains redundant state — speculation records, the
scheduler-visible queue bookkeeping, staged queue entries — whose
consistency the normal execution path assumes rather than checks.  This
module makes those assumptions executable:

* **queue physics** — live + staged entries never exceed capacity;
* **predicate range** — the predicate word stays within ``NPreds`` bits;
* **non-nested speculation** — outstanding speculations never exceed the
  configured ``speculative_depth``, and every speculation's owner is
  still in flight (a speculation that outlives its owner can never be
  resolved: a rollback-completeness failure);
* **queue-status bookkeeping** — ``pending_deqs`` / ``sched_deqs`` /
  ``pending_enqs`` exactly match a recount over the pipeline registers;
* **queue-status conservatism** — no view ever reports more input
  tokens or output space than the physical queues minus in-flight
  claims can honor (the paper's safety argument for +Q, Section 5.3);
* **enqueue completeness** — every in-flight enqueue has a physical
  slot to land in, so retirement can never overflow a queue.

Attach a checker to a system (``system.attach_invariant_checker``) to
run every cycle boundary, or call :meth:`InvariantChecker.check_pe`
directly from tests.  Violations raise
:class:`~repro.errors.InvariantViolation` with PE/cycle attribution.
"""

from __future__ import annotations

from repro.errors import InvariantViolation, attribute_error


class InvariantChecker:
    """Per-cycle checker over the speculation/queue/predicate invariants.

    ``checks`` counts invocations so tests can assert the checker
    actually ran; ``violations`` retains every message raised (useful
    when a campaign catches the exception and wants the detail later).
    """

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[str] = []

    # ------------------------------------------------------------------

    def check_system(self, system) -> None:
        """Check every PE; called by ``System.run`` and ``System.step``
        at cycle boundaries."""
        for pe in system.pes:
            self.check_pe(pe, cycle=system.cycles)

    def check_pe(self, pe, cycle: int | None = None) -> None:
        self.checks += 1
        try:
            self._check_queues(pe)
            self._check_predicates(pe)
            if hasattr(pe, "_specs"):
                self._check_speculation(pe)
                self._check_bookkeeping(pe)
                self._check_conservatism(pe)
        except InvariantViolation as exc:
            self.violations.append(str(exc))
            raise attribute_error(exc, pe.name, cycle) from exc

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------

    def _check_queues(self, pe) -> None:
        for queue in list(pe.inputs) + list(pe.outputs):
            held = queue.occupancy + len(queue._staged)
            if held > queue.capacity:
                raise InvariantViolation(
                    f"queue {queue.name!r} holds {held} entries "
                    f"(capacity {queue.capacity})"
                )

    def _check_predicates(self, pe) -> None:
        mask = (1 << pe.params.num_preds) - 1
        if pe.preds.state & ~mask:
            raise InvariantViolation(
                f"predicate state {pe.preds.state:#x} exceeds "
                f"NPreds = {pe.params.num_preds}"
            )

    def _check_speculation(self, pe) -> None:
        if len(pe._specs) > pe._spec_depth:
            raise InvariantViolation(
                f"{len(pe._specs)} outstanding speculations exceed "
                f"speculative_depth = {pe._spec_depth}"
            )
        in_flight = {
            entry.seq for entry in pe._pipe if entry is not None
        }
        for spec in pe._specs:
            if spec.owner_seq not in in_flight:
                raise InvariantViolation(
                    f"speculation on %p{spec.pred_index} outlived its owner "
                    f"(seq {spec.owner_seq}): rollback can never resolve it"
                )

    def _check_bookkeeping(self, pe) -> None:
        state = pe._queue_state
        pending_deqs = [0] * len(state.pending_deqs)
        sched_deqs = [0] * len(state.sched_deqs)
        pending_enqs = [0] * len(state.pending_enqs)
        for entry in pe._pipe:
            if entry is None:
                continue
            for queue in entry.meta.deq:
                sched_deqs[queue] += 1
                if not entry.captured:
                    pending_deqs[queue] += 1
            out = entry.meta.out_queue
            if out >= 0:
                pending_enqs[out] += 1
        for label, stored, recount in (
            ("pending_deqs", state.pending_deqs, pending_deqs),
            ("sched_deqs", state.sched_deqs, sched_deqs),
            ("pending_enqs", state.pending_enqs, pending_enqs),
        ):
            if list(stored) != recount:
                raise InvariantViolation(
                    f"queue bookkeeping {label} = {list(stored)} disagrees "
                    f"with pipeline recount {recount}"
                )

    def _check_conservatism(self, pe) -> None:
        """No status view may overpromise against physical queue state.

        Valid at cycle boundaries (no staged entries on PE-owned
        queues), which is when the system invokes the checker.
        """
        state = pe._queue_state
        view = pe._view
        for index, queue in enumerate(pe.inputs):
            claimed = view.input_count(index)
            available = queue.occupancy - state.pending_deqs[index]
            if claimed > max(0, available):
                raise InvariantViolation(
                    f"queue-status view promises {claimed} tokens on "
                    f"{queue.name!r} but only {available} are unclaimed"
                )
        for index, queue in enumerate(pe.outputs):
            if state.pending_enqs[index] > queue.free_slots:
                raise InvariantViolation(
                    f"{state.pending_enqs[index]} in-flight enqueues to "
                    f"{queue.name!r} exceed its {queue.free_slots} free slots"
                )
            claimed = view.output_space(index)
            grantable = queue.free_slots - state.pending_enqs[index]
            if claimed > max(0, grantable):
                raise InvariantViolation(
                    f"queue-status view promises {claimed} slots on "
                    f"{queue.name!r} but only {grantable} are grantable"
                )
