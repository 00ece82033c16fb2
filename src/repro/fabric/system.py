"""Multi-PE system: wiring, memory ports, and the cycle loop.

A :class:`System` owns a set of processing elements (functional or
pipelined — anything with the PE interface), a memory with read/write
ports, and the channel wiring between them.  A producer PE's output
queue and the consumer's input queue are the *same*
:class:`~repro.arch.queue.TaggedQueue` object; staged-enqueue commit
gives every channel a one-cycle traversal independent of step order.

The run loop plays the role of the paper's Linux driver + userspace
library: program the PEs, preload memory, run to completion, audit
every PE's cycle accounting, read back performance counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.queue import TaggedQueue
from repro.errors import (
    ConfigError,
    DeadlockError,
    SimulationError,
    attribute_error,
)
from repro.fabric.lsq import LoadStoreQueue
from repro.fabric.memory import Memory, MemoryReadPort, MemoryWritePort


@dataclass
class ChannelInfo:
    """One channel's endpoints, as tooling (the static analyzer) sees them.

    ``producer`` / ``consumer`` are ``(pe_name, queue_index)`` pairs when
    a PE drives or drains the channel; ``port_producer`` /
    ``port_consumer`` name a memory port or LSQ playing that role
    instead.  ``feeds_from`` links a response channel back to the request
    channel whose tags the port propagates (read ports and LSQ load
    paths echo the request tag on the response, Section 6), so tag-flow
    analysis can follow traffic through memory.
    """

    queue: TaggedQueue
    producer: tuple[str, int] | None = None
    consumer: tuple[str, int] | None = None
    port_producer: str | None = None
    port_consumer: str | None = None
    feeds_from: TaggedQueue | None = None


class System:
    """A small spatial array plus memory, as in the paper's 4x4-max testbed."""

    def __init__(self, memory_words: int = 1 << 16, memory_latency: int = 4) -> None:
        self.memory = Memory(memory_words)
        self.memory_latency = memory_latency
        self.pes: list = []
        self.read_ports: list[MemoryReadPort] = []
        self.write_ports: list[MemoryWritePort] = []
        self.lsqs: list[LoadStoreQueue] = []
        self.cycles = 0
        self._channels: list[TaggedQueue] | None = None   # cached wiring
        #: Optional per-cycle invariant checker (resilience layer); when
        #: set, :meth:`step` calls it at every cycle boundary.
        self.invariant_checker = None
        #: Optional telemetry sink (observability layer); when set,
        #: :meth:`step` samples fabric state at every cycle boundary.
        #: Attach via :meth:`repro.obs.events.Telemetry.attach_system`.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_pe(self, pe) -> None:
        """Register a PE (functional or pipelined)."""
        if any(existing.name == pe.name for existing in self.pes):
            raise ConfigError(f"duplicate PE name {pe.name!r}")
        self.pes.append(pe)
        self._channels = None

    def _rewired(self, *pes) -> None:
        """Invalidate caches that depend on the current queue wiring."""
        self._channels = None
        for pe in pes:
            invalidate = getattr(pe, "invalidate_schedule_cache", None)
            if invalidate is not None:
                invalidate()

    def pe(self, name: str):
        """Look up a PE by name."""
        for pe in self.pes:
            if pe.name == name:
                return pe
        raise ConfigError(f"no PE named {name!r}")

    def connect(self, producer, out_index: int, consumer, in_index: int) -> TaggedQueue:
        """Wire producer output queue to consumer input queue (one channel)."""
        channel = TaggedQueue(
            producer.outputs[out_index].capacity,
            f"{producer.name}.o{out_index}->{consumer.name}.i{in_index}",
        )
        producer.outputs[out_index] = channel
        consumer.inputs[in_index] = channel
        self._rewired(producer, consumer)
        return channel

    def add_read_port(self, pe, request_out: int, response_in: int) -> MemoryReadPort:
        """Give a PE a load endpoint: addresses out, data back in."""
        port = MemoryReadPort(
            self.memory, self.memory_latency, f"rd<-{pe.name}.o{request_out}"
        )
        request = TaggedQueue(pe.outputs[request_out].capacity, f"{port.name}.req")
        response = TaggedQueue(pe.inputs[response_in].capacity, f"{port.name}.rsp")
        pe.outputs[request_out] = request
        pe.inputs[response_in] = response
        port.request = request
        port.response = response
        self.read_ports.append(port)
        self._rewired(pe)
        return port

    def add_write_port(self, addr_pe, addr_out: int, data_pe, data_out: int) -> MemoryWritePort:
        """Give PE(s) a store endpoint: an address channel and a data channel.

        The two channels may come from the same PE (it interleaves its own
        address/data traffic) or from two PEs (the ``stream`` pattern).
        """
        port = MemoryWritePort(self.memory, f"wr<-{addr_pe.name}/{data_pe.name}")
        address = TaggedQueue(addr_pe.outputs[addr_out].capacity, f"{port.name}.addr")
        data = TaggedQueue(data_pe.outputs[data_out].capacity, f"{port.name}.data")
        addr_pe.outputs[addr_out] = address
        data_pe.outputs[data_out] = data
        port.address = address
        port.data = data
        self.write_ports.append(port)
        self._rewired(addr_pe, data_pe)
        return port

    def add_load_store_queue(
        self,
        pe,
        load_request_out: int,
        load_response_in: int,
        store_address_out: int,
        store_data_out: int,
        store_buffer_entries: int = 4,
    ) -> LoadStoreQueue:
        """Give a PE a decoupled load-store queue (Section 6 extension).

        Replaces a (read port, write port) pair with one unit that keeps
        an in-order store buffer and forwards buffered stores to younger
        matching loads.
        """
        lsq = LoadStoreQueue(
            self.memory, self.memory_latency, store_buffer_entries,
            name=f"lsq<-{pe.name}",
        )
        capacity = pe.outputs[load_request_out].capacity
        lsq.load_request = TaggedQueue(capacity, f"{lsq.name}.ld.req")
        lsq.load_response = TaggedQueue(
            pe.inputs[load_response_in].capacity, f"{lsq.name}.ld.rsp")
        lsq.store_address = TaggedQueue(
            pe.outputs[store_address_out].capacity, f"{lsq.name}.st.addr")
        lsq.store_data = TaggedQueue(
            pe.outputs[store_data_out].capacity, f"{lsq.name}.st.data")
        pe.outputs[load_request_out] = lsq.load_request
        pe.inputs[load_response_in] = lsq.load_response
        pe.outputs[store_address_out] = lsq.store_address
        pe.outputs[store_data_out] = lsq.store_data
        self.lsqs.append(lsq)
        self._rewired(pe)
        return lsq

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def _all_channels(self) -> list[TaggedQueue]:
        """Every distinct channel in the system (cached; wiring methods
        invalidate).  Rebuilding this dict per cycle dominated the run
        loop's own overhead on multi-PE workloads."""
        if self._channels is not None:
            return self._channels
        seen: dict[int, TaggedQueue] = {}
        for pe in self.pes:
            for queue in list(pe.inputs) + list(pe.outputs):
                seen[id(queue)] = queue
        for port in self.read_ports:
            for queue in (port.request, port.response):
                if queue is not None:
                    seen[id(queue)] = queue
        for port in self.write_ports:
            for queue in (port.address, port.data):
                if queue is not None:
                    seen[id(queue)] = queue
        for lsq in self.lsqs:
            for queue in (lsq.load_request, lsq.load_response,
                          lsq.store_address, lsq.store_data):
                if queue is not None:
                    seen[id(queue)] = queue
        self._channels = list(seen.values())
        return self._channels

    def wiring(self) -> list[ChannelInfo]:
        """Structured channel inventory: every distinct queue with its
        producing and consuming endpoints resolved.

        This is the fabric-level input of :mod:`repro.analyze.fabric`:
        channel identity is queue object identity (``connect`` makes the
        producer's output queue and the consumer's input queue the same
        object), and memory ports are annotated with the request channel
        whose tags they propagate onto responses.
        """
        infos: dict[int, ChannelInfo] = {}

        def info(queue: TaggedQueue) -> ChannelInfo:
            return infos.setdefault(id(queue), ChannelInfo(queue=queue))

        for pe in self.pes:
            for index, queue in enumerate(pe.outputs):
                info(queue).producer = (pe.name, index)
            for index, queue in enumerate(pe.inputs):
                info(queue).consumer = (pe.name, index)
        for port in self.read_ports:
            if port.request is not None:
                info(port.request).port_consumer = port.name
            if port.response is not None:
                response = info(port.response)
                response.port_producer = port.name
                response.feeds_from = port.request
        for port in self.write_ports:
            for queue in (port.address, port.data):
                if queue is not None:
                    info(queue).port_consumer = port.name
        for lsq in self.lsqs:
            if lsq.load_request is not None:
                info(lsq.load_request).port_consumer = lsq.name
            if lsq.load_response is not None:
                response = info(lsq.load_response)
                response.port_producer = lsq.name
                response.feeds_from = lsq.load_request
            for queue in (lsq.store_address, lsq.store_data):
                if queue is not None:
                    info(queue).port_consumer = lsq.name
        return list(infos.values())

    @property
    def all_halted(self) -> bool:
        return all(pe.halted for pe in self.pes)

    def attach_invariant_checker(self, checker) -> None:
        """Enable opt-in per-cycle invariant checking (resilience layer)."""
        self.invariant_checker = checker

    def step(self) -> bool:
        """Advance the whole system one cycle; True if anything progressed."""
        progressed = False
        for pe in self.pes:
            try:
                if pe.step():
                    progressed = True
            except SimulationError as exc:
                raise attribute_error(exc, pe.name, self.cycles) from exc
        for port in self.read_ports:
            busy_before = not port.idle
            port.step()
            if busy_before:
                progressed = True
        stores_before = sum(port.stores_accepted for port in self.write_ports)
        for port in self.write_ports:
            port.step()
        if sum(port.stores_accepted for port in self.write_ports) != stores_before:
            progressed = True
        for lsq in self.lsqs:
            busy_before = not lsq.idle
            lsq.step()
            if busy_before:
                progressed = True
        for channel in self._all_channels():
            if channel._staged:
                channel.commit()
        self.cycles += 1
        if self.invariant_checker is not None:
            self.invariant_checker.check_system(self)
        if self.telemetry is not None:
            self.telemetry.sample_system(self)
        return progressed

    @property
    def ports_idle(self) -> bool:
        return (
            all(port.idle for port in self.read_ports)
            and all(port.idle for port in self.write_ports)
            and all(lsq.idle for lsq in self.lsqs)
        )

    def _run_interleaved(self, max_cycles: int, stall_limit: int) -> bool:
        """The reference cycle loop: one :meth:`step` per iteration.
        Returns True when every PE halted within the budget."""
        idle_streak = 0
        for _ in range(max_cycles):
            if self.all_halted:
                return True
            progressed = self.step()
            idle_streak = 0 if progressed else idle_streak + 1
            if idle_streak >= stall_limit:
                raise self._deadlock_error(
                    "deadlock: no progress for "
                    f"{stall_limit} cycles at cycle {self.cycles}"
                )
        return False

    def _run_jit(self, max_cycles: int, stall_limit: int) -> bool:
        """Hoisted-state cycle loop for all-jit systems (no system-level
        instrumentation attached).

        Per cycle this performs exactly :meth:`step`'s schedule — PEs in
        order, read ports, write ports, LSQs, channel commits — but with
        the fabric lists in locals, ports that provably cannot act
        skipped (an idle read port only advances its private clock, which
        is relative to acceptance time; a write port missing an operand
        does nothing), and the progress predicate folded into the same
        occupancy tests.  On single-PE systems without LSQs, whenever no
        port can make progress until the PE next enqueues, the loop
        delegates to the PE's generated block run — which commits the
        PE's queues each cycle, exactly as the channel-commit pass here
        would — and resumes interleaving the moment traffic appears.
        """
        live = [(pe._jit.step, pe) for pe in self.pes if not pe.halted]
        rports = self.read_ports
        wports = self.write_ports
        lsqs = self.lsqs
        channels = self._all_channels()
        solo = self.pes[0] if (
            len(self.pes) == 1
            and not lsqs
            and self.pes[0]._jit_block is not None
        ) else None
        counters = [pe.counters for pe in self.pes]
        dq_prev = -1
        idle_streak = 0
        remaining = max_cycles
        while remaining > 0:
            if not live:
                return True
            if solo is not None:
                for port in rports:
                    if port._in_flight or (
                        port.request is not None and port.request._live
                    ):
                        break
                else:
                    for port in wports:
                        if (
                            port.address is not None
                            and port.address._live
                            and port.data is not None
                            and port.data._live
                        ):
                            break
                    else:
                        before = solo.counters.cycles
                        try:
                            idle_streak = solo._jit_block(
                                remaining, True, idle_streak, stall_limit
                            )
                        except SimulationError as exc:
                            self.cycles += max(
                                0, solo.counters.cycles - before - 1
                            )
                            raise attribute_error(
                                exc, solo.name, self.cycles) from exc
                        ran = solo.counters.cycles - before
                        if ran:
                            self.cycles += ran
                            remaining -= ran
                            if idle_streak >= stall_limit:
                                raise self._deadlock_error(
                                    "deadlock: no progress for "
                                    f"{stall_limit} cycles at cycle "
                                    f"{self.cycles}"
                                )
                            if solo.halted:
                                live = []
                            continue
                        # Zero cycles: the block refused (a hook is
                        # attached or entries are staged) — take the
                        # interleaved path for this cycle.
            prog = False
            pruned = False
            moved = False
            multi = False
            cand = None
            pe = None
            try:
                for entry in live:
                    pe = entry[1]
                    if entry[0](pe):
                        if prog:
                            multi = True
                        prog = True
                        cand = entry
                    if pe.halted:
                        pruned = True
            except SimulationError as exc:
                raise attribute_error(exc, pe.name, self.cycles) from exc
            pe_prog = prog
            if pruned:
                live = [entry for entry in live if not entry[1].halted]
            for port in rports:
                if port._in_flight or (
                    port.request is not None and port.request._live
                ):
                    if port.request is not None and port.request._live:
                        moved = True
                    port.step()
                    prog = True
            for port in wports:
                if (
                    port.address is not None
                    and port.address._live
                    and port.data is not None
                    and port.data._live
                ):
                    port.step()
                    prog = True
                    moved = True
            for lsq in lsqs:
                busy_before = not lsq.idle
                lsq.step()
                if busy_before:
                    prog = True
            for channel in channels:
                if channel._staged:
                    channel.commit()
                    moved = True
            self.cycles += 1
            remaining -= 1
            if prog:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= stall_limit:
                    raise self._deadlock_error(
                        "deadlock: no progress for "
                        f"{stall_limit} cycles at cycle {self.cycles}"
                    )
            dq_now = 0
            for c_ in counters:
                dq_now += c_.dequeues
            deq = dq_now != dq_prev
            dq_prev = dq_now
            if moved or lsqs or not live:
                continue
            if pe_prog:
                # A dequeue this cycle frees channel space a sibling that
                # already evaluated (it steps earlier) only sees next
                # cycle — it may fire then, so it is not quiescent.
                if deq:
                    continue
                # Exactly one PE progressed, it is last in step order,
                # and every other live PE is quiescent (empty pipe, no
                # hooks, none-triggered this cycle): the runner's block
                # entry point can batch cycles on its own.  Its enqueues
                # and dequeues are the only events that can change what
                # the quiescent PEs observe, and the block stops at the
                # end of any cycle where either happens — because the
                # runner steps last,
                # siblings would only see the change the following
                # cycle under interleaving too.  Quiescent PEs are then
                # credited their cycle and none-triggered counts for
                # every cycle the block ran.
                if multi or cand is not live[-1]:
                    continue
                cp = cand[1]
                if (
                    cp._jit_block is None
                    or cp.fault_hook is not None
                    or cp.telemetry is not None
                ):
                    continue
                ok = True
                for entry in live:
                    p = entry[1]
                    if p is cp:
                        continue
                    if (
                        p.fault_hook is not None
                        or p.telemetry is not None
                        or any(p._pipe)
                    ):
                        ok = False
                        break
                if ok:
                    for port in rports:
                        if port._in_flight:
                            ok = False
                            break
                if not ok:
                    continue
                before = cp.counters.cycles
                try:
                    idle_streak = cp._jit_block(
                        remaining, True, idle_streak, stall_limit,
                        len(live) > 1,
                    )
                except SimulationError as exc:
                    ran = max(0, cp.counters.cycles - before - 1)
                    self.cycles += ran
                    for entry in live:
                        if entry[1] is not cp:
                            pc = entry[1].counters
                            pc.cycles += ran
                            pc.none_triggered_cycles += ran
                    raise attribute_error(exc, cp.name, self.cycles) from exc
                ran = cp.counters.cycles - before
                if ran:
                    self.cycles += ran
                    remaining -= ran
                    for entry in live:
                        if entry[1] is not cp:
                            pc = entry[1].counters
                            pc.cycles += ran
                            pc.none_triggered_cycles += ran
                    if idle_streak >= stall_limit:
                        raise self._deadlock_error(
                            "deadlock: no progress for "
                            f"{stall_limit} cycles at cycle {self.cycles}"
                        )
                    if cp.halted:
                        live = [e for e in live if not e[1].halted]
                continue
            # No PE issued or retired this cycle and nothing changed any
            # state a trigger can observe (no queue commit, no request
            # dequeue, no store).  If on top of that every live PE has
            # an empty pipeline and no per-PE hooks, its decision walk
            # is a pure function of frozen state: each further cycle in
            # this regime only increments its cycle and none-triggered
            # counters, until a memory response commits.  Batch those
            # wait cycles stepping only the in-flight read ports.
            for entry in live:
                p = entry[1]
                if (
                    p.fault_hook is not None
                    or p.telemetry is not None
                    or any(p._pipe)
                ):
                    break
            else:
                for port in rports:
                    if port.request is not None and port.request._live:
                        break
                else:
                    for port in wports:
                        if (
                            port.address is not None
                            and port.address._live
                            and port.data is not None
                            and port.data._live
                        ):
                            break
                    else:
                        while remaining > 0:
                            busy = False
                            woke = False
                            for port in rports:
                                if port._in_flight:
                                    port.step()
                                    busy = True
                            for channel in channels:
                                if channel._staged:
                                    channel.commit()
                                    woke = True
                            self.cycles += 1
                            remaining -= 1
                            for entry in live:
                                pc = entry[1].counters
                                pc.cycles += 1
                                pc.none_triggered_cycles += 1
                            if busy:
                                idle_streak = 0
                            else:
                                idle_streak += 1
                                if idle_streak >= stall_limit:
                                    raise self._deadlock_error(
                                        "deadlock: no progress for "
                                        f"{stall_limit} cycles at cycle "
                                        f"{self.cycles}"
                                    )
                            if woke:
                                break
        return False

    def run(
        self,
        max_cycles: int = 2_000_000,
        stall_limit: int = 20_000,
        flush_limit: int = 1_000,
    ) -> int:
        """Run until every PE halts and memory ports drain; returns cycles.

        Raises :class:`DeadlockError` — carrying a structured forensic
        report (per-PE predicate state, queue occupancies with head/neck
        tags, in-flight pipeline registers, last-triggered instructions)
        — on deadlock (no architectural progress for ``stall_limit``
        cycles) or timeout.

        When every PE carries a jit specialization and no system-level
        instrumentation is attached, the cycle loop runs through
        :meth:`_run_jit` — the same per-cycle schedule as :meth:`step`
        with the fabric state hoisted, and, on single-PE systems, whole
        stretches delegated to the PE's generated block loop while no
        memory port can make progress.  Both drivers produce identical
        architectural state, counters, and cycle counts.

        Every completed run audits each PE's cycle accounting
        (``PipelineCounters.check_consistency``), so a leak raises a
        :class:`SimulationError` naming the PE.
        """
        if not self.pes:
            raise ConfigError("system has no PEs")
        use_jit = (
            self.invariant_checker is None
            and self.telemetry is None
            and all(getattr(pe, "_jit", None) is not None for pe in self.pes)
        )
        completed = (self._run_jit(max_cycles, stall_limit) if use_jit
                     else self._run_interleaved(max_cycles, stall_limit))
        if not completed:
            raise self._deadlock_error(f"timeout after {max_cycles} cycles")
        # Let in-flight memory traffic land (stores issued just before halt).
        for _ in range(flush_limit):
            if self.ports_idle:
                self._finish_run()
                return self.cycles
            self.step()
        raise self._deadlock_error(
            f"memory ports still busy {flush_limit} cycles after halt"
        )

    def _finish_run(self) -> None:
        """End-of-run bookkeeping: telemetry close-out, counter audits."""
        if self.telemetry is not None:
            self.telemetry.finish()
        for pe in self.pes:
            check = getattr(pe.counters, "check_consistency", None)
            if check is None:
                continue
            try:
                check()
            except AssertionError as exc:
                raise attribute_error(
                    SimulationError(str(exc)), pe.name, self.cycles
                ) from exc

    def forensic_report(self) -> dict:
        """Structured dump of everything a hang post-mortem needs."""
        # Imported here: the resilience layer may inspect fabric objects,
        # so the fabric cannot import it at module load time.
        from repro.resilience.forensics import forensic_report

        return forensic_report(self)

    def _deadlock_error(self, message: str) -> DeadlockError:
        from repro.resilience.forensics import format_report

        report = self.forensic_report()
        return DeadlockError(f"{message}\n{format_report(report)}", report=report)
