"""The structured telemetry event bus.

The paper's FPGA prototype pairs every PE with debug monitors and
performance counters (Section 6.1); this module is the fabric-level
generalization.  A :class:`Telemetry` sink attaches to a
:class:`~repro.fabric.system.System` (or, for its events alone, to a
single PE) and collects:

* **typed events** emitted by the instrumented components — instruction
  ``issue`` / ``retire`` / ``quash``, speculative ``rollback``, queue
  ``enqueue`` / ``dequeue`` with tags, and memory ``port_grant``s;
* **per-cycle samples**, taken by the system at every cycle boundary (a
  lone PE is sampled by running it in a one-PE system) — queue-occupancy
  timelines (delta-compressed), queue high-water marks, memory-port/LSQ
  busy cycles, per-PE pipeline-stage occupancy intervals, and per-PE
  cycle outcomes (the raw material for the Chrome trace export and the
  ASCII pipeline diagram, :func:`repro.obs.trace_export.pipeline_diagram`).

The instrumentation contract is strictly opt-in: every emitting
component carries a ``telemetry`` attribute that defaults to ``None``
(a class attribute on :class:`~repro.arch.queue.TaggedQueue`, so
uninstrumented queues pay no per-instance storage), and every emit site
is guarded by a single ``is not None`` test — the same zero-cost-when-off
discipline as the resilience layer's ``fault_hook`` seam.  Telemetry
never mutates simulated state, so instrumented and uninstrumented runs
are bit-identical (``tests/test_obs.py`` holds them to that).
"""

from __future__ import annotations

#: What a pipelined PE did in one cycle, named after the counter that
#: moved, in classification order (the counters tile every cycle).
_OUTCOMES = (
    "issued", "predicate hazard", "data hazard", "forbidden", "no trigger",
)
_NO_COUNTS = (0,) * (len(_OUTCOMES) + 1)


class TelemetryEvent:
    """One typed event on the bus."""

    __slots__ = ("kind", "cycle", "source", "data")

    def __init__(self, kind: str, cycle: int, source: str, data: dict) -> None:
        self.kind = kind
        self.cycle = cycle
        self.source = source
        self.data = data

    def __repr__(self) -> str:
        return (
            f"TelemetryEvent({self.kind!r}, cycle={self.cycle}, "
            f"source={self.source!r}, {self.data})"
        )


class Telemetry:
    """An opt-in structured event sink plus per-cycle fabric sampler.

    ``limit`` bounds the stored event list; past it events are counted
    in ``dropped_events`` (and ``truncated`` is set) rather than stored,
    so a pathological run cannot exhaust memory.
    """

    def __init__(self, limit: int = 1 << 20) -> None:
        if limit < 1:
            raise ValueError("telemetry event limit must be positive")
        self.limit = limit
        #: Current cycle, maintained by the instrumented steppers so
        #: sources that do not know the time (queues, ports) still stamp
        #: their events correctly.
        self.now = 0
        self.events: list[TelemetryEvent] = []
        self.dropped_events = 0
        self.truncated = False
        self.event_counts: dict[str, int] = {}
        # -- sampled fabric state ------------------------------------------
        #: Delta-compressed occupancy per queue: (cycle, occupancy) pairs,
        #: appended only when the sampled occupancy changes.
        self.queue_timelines: dict[str, list[tuple[int, int]]] = {}
        self.queue_high_water: dict[str, int] = {}
        self.queue_capacity: dict[str, int] = {}
        #: Busy (non-idle) cycles per memory port / LSQ.
        self.port_busy_cycles: dict[str, int] = {}
        self.sampled_cycles = 0
        # -- stage occupancy intervals -------------------------------------
        #: Closed intervals per PE per stage:
        #: (start_cycle, end_cycle, label, slot, seq), end inclusive.
        self.stage_intervals: dict[str, list[list[tuple]]] = {}
        self._stage_open: dict[str, list] = {}
        #: Delta-compressed cycle outcomes per pipelined PE:
        #: (cycle, outcome, predicates, speculating) rows, appended only
        #: when one of the last three changes; :meth:`cycle_rows`
        #: expands them to one per cycle.
        self.pe_rows: dict[str, list[tuple]] = {}
        #: pe name -> (last sampled cycle, its cycle and outcome counters).
        self._pe_counts: dict[str, tuple] = {}
        self._attached: list = []

    # ------------------------------------------------------------------
    # Event intake
    # ------------------------------------------------------------------

    def emit(self, kind: str, source: str, **data) -> None:
        """Record one typed event, stamped with the current cycle."""
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        if len(self.events) >= self.limit:
            self.dropped_events += 1
            self.truncated = True
            return
        self.events.append(TelemetryEvent(kind, self.now, source, data))

    def events_of(self, kind: str) -> list[TelemetryEvent]:
        return [event for event in self.events if event.kind == kind]

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def attach_pe(self, pe) -> None:
        """Instrument one PE and the queues it currently owns."""
        pe.telemetry = self
        self._attached.append(pe)
        for queue in list(pe.inputs) + list(pe.outputs):
            queue.telemetry = self

    def attach_system(self, system) -> None:
        """Instrument a whole system: PEs, channels, ports, and LSQs.

        Call *after* wiring — the fabric wiring methods replace queue
        objects, and only the queues present at attach time are
        instrumented.
        """
        system.telemetry = self
        self._attached.append(system)
        for pe in system.pes:
            self.attach_pe(pe)
        for channel in system._all_channels():
            channel.telemetry = self
        for port in system.read_ports + system.write_ports + list(system.lsqs):
            port.telemetry = self

    def detach(self) -> None:
        """Remove this sink from everything it instrumented."""
        for owner in self._attached:
            owner.telemetry = None
            pes = getattr(owner, "pes", None)
            if pes is None:
                queues = list(owner.inputs) + list(owner.outputs)
            else:
                queues = list(owner._all_channels())
                for port in (
                    owner.read_ports + owner.write_ports + list(owner.lsqs)
                ):
                    port.telemetry = None
            for queue in queues:
                # Restore the class-level None default (no instance attr).
                if "telemetry" in queue.__dict__:
                    del queue.__dict__["telemetry"]
        self._attached = []

    # ------------------------------------------------------------------
    # Per-cycle sampling
    # ------------------------------------------------------------------

    def sample_system(self, system) -> None:
        """Sample fabric state at the end of one system cycle.

        Called by :meth:`repro.fabric.system.System.run` and
        :meth:`~repro.fabric.system.System.step` when this sink is
        attached; timelines therefore see committed (end-of-cycle)
        queue state.
        """
        cycle = system.cycles
        self.now = cycle
        self.sampled_cycles += 1
        for queue in system._all_channels():
            self._sample_queue(queue, cycle)
        for port in system.read_ports + system.write_ports + list(system.lsqs):
            if not port.idle:
                name = port.name
                self.port_busy_cycles[name] = (
                    self.port_busy_cycles.get(name, 0) + 1
                )
        for pe in system.pes:
            snapshot = getattr(pe, "stage_snapshot", None)
            if snapshot is not None:
                self._sample_stages(pe.name, snapshot(), cycle)
                self._sample_row(pe, cycle)

    def _sample_queue(self, queue, cycle: int) -> None:
        name = queue.name
        occupancy = queue.occupancy
        timeline = self.queue_timelines.get(name)
        if timeline is None:
            timeline = self.queue_timelines[name] = []
            self.queue_capacity[name] = queue.capacity
            self.queue_high_water[name] = 0
        if not timeline or timeline[-1][1] != occupancy:
            timeline.append((cycle, occupancy))
        if occupancy > self.queue_high_water[name]:
            self.queue_high_water[name] = occupancy

    def _sample_stages(self, pe_name: str, snapshot, cycle: int) -> None:
        open_entries = self._stage_open.get(pe_name)
        if open_entries is None:
            open_entries = self._stage_open[pe_name] = [None] * len(snapshot)
            self.stage_intervals[pe_name] = [[] for _ in snapshot]
        intervals = self.stage_intervals[pe_name]
        for stage, occupant in enumerate(snapshot):
            current = open_entries[stage]
            seq = None if occupant is None else occupant.seq
            if current is not None and current[4] != seq:
                start, __, label, slot, open_seq = current
                intervals[stage].append((start, cycle - 1, label, slot, open_seq))
                current = None
            if current is None and occupant is not None:
                current = [cycle, cycle, occupant.label, occupant.slot, seq]
            open_entries[stage] = current

    def _sample_row(self, pe, cycle: int) -> None:
        counters = pe.counters
        counts = (
            counters.cycles, counters.issued, counters.pred_hazard_cycles,
            counters.data_hazard_cycles, counters.forbidden_cycles,
            counters.none_triggered_cycles,
        )
        last = self._pe_counts.get(pe.name)
        before = _NO_COUNTS if last is None else last[1]
        if counts[0] == before[0]:
            return   # a halted PE no longer steps
        self._pe_counts[pe.name] = (cycle, counts)
        for outcome, now, was in zip(_OUTCOMES, counts[1:], before[1:]):
            if now > was:
                break
        else:
            outcome = "halted" if pe.halted else "-"
        row = (cycle, outcome, pe.preds.state, bool(pe._specs))
        rows = self.pe_rows.setdefault(pe.name, [])
        if not rows or rows[-1][1:] != row[1:]:
            rows.append(row)

    def cycle_rows(self, pe_name: str) -> list[tuple]:
        """``pe_rows`` expanded to one row per sampled PE cycle."""
        rows = self.pe_rows.get(pe_name, [])
        if not rows:
            return []
        ends = [row[0] for row in rows[1:]]
        ends.append(self._pe_counts[pe_name][0] + 1)
        return [
            (cycle, *row[1:])
            for row, end in zip(rows, ends)
            for cycle in range(row[0], end)
        ]

    def finish(self) -> None:
        """Close any open stage intervals (call once the run completes)."""
        for pe_name, open_entries in self._stage_open.items():
            intervals = self.stage_intervals[pe_name]
            for stage, current in enumerate(open_entries):
                if current is not None:
                    start, __, label, slot, seq = current
                    intervals[stage].append((start, self.now, label, slot, seq))
                    open_entries[stage] = None

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Structured digest of what the bus captured."""
        return {
            "event_counts": dict(sorted(self.event_counts.items())),
            "events_stored": len(self.events),
            "events_dropped": self.dropped_events,
            "truncated": self.truncated,
            "sampled_cycles": self.sampled_cycles,
            "queues_observed": len(self.queue_timelines),
            "ports_observed": len(self.port_busy_cycles),
        }
