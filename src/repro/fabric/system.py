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
from repro.jit.cache import run_block


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
        #: set, :meth:`run` and :meth:`step` call it at every cycle
        #: boundary.
        self.invariant_checker = None
        #: Optional telemetry sink (observability layer); when set,
        #: :meth:`run` and :meth:`step` sample fabric state at every
        #: cycle boundary.  Attach via
        #: :meth:`repro.obs.events.Telemetry.attach_system`.
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
        self._channels = None
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
        self._channels = None
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
        self._channels = None
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
        self._channels = None
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
        """Advance the whole system one cycle; True if anything progressed.

        The one-cycle public API: :meth:`run` performs this schedule in
        its own loop and calls this method for the post-halt flush.
        """
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
        cycles) or timeout (a PE still live after ``max_cycles`` cycles;
        a run whose last PE halts on cycle ``max_cycles`` returns).

        Every fabric runs one cycle loop.  Per cycle it performs exactly
        :meth:`step`'s schedule — PEs in order, read ports, write ports,
        LSQs, channel commits, then the invariant checker and the
        telemetry sampler when attached — but with the fabric lists in
        locals, halted PEs dropped, ports that provably cannot act
        skipped (an idle read port only advances its private clock,
        which is relative to acceptance time; a write port missing an
        operand does nothing), and the progress predicate folded into
        the same occupancy tests.  Each PE steps through its own
        ``step``; a pipelined PE runs its config's compiled cycle from
        cycle 0 unless it was built with ``backend="interp"`` or
        ``fast_path=False``.  When every PE is a fast-path pipelined PE
        and nothing is attached — no invariant checker, telemetry sink
        or fault hook, whose per-cycle calls a block run skips — a
        stretch that only a compiled PE works through is handed to
        :func:`~repro.jit.cache.run_block` (the quiescent-sibling rule
        below), the one way into a block run.  :meth:`step` runs the
        post-halt flush.

        Every completed run audits each PE's cycle accounting
        (``PipelineCounters.check_consistency``), so a leak raises a
        :class:`SimulationError` naming the PE.
        """
        if not self.pes:
            raise ConfigError("system has no PEs")
        checker = self.invariant_checker
        telemetry = self.telemetry
        # Block runs skip the per-cycle hooks: gate them on there being none.
        blocks = (
            checker is None
            and telemetry is None
            and all(
                getattr(pe, "fast_path", False)
                and pe.fault_hook is None
                and pe.telemetry is None
                for pe in self.pes
            )
        )
        live = [pe for pe in self.pes if not pe.halted]
        rports = self.read_ports
        wports = self.write_ports
        lsqs = self.lsqs
        channels = self._all_channels()
        counters = [pe.counters for pe in self.pes]
        dq_prev = -1
        idle_streak = 0
        remaining = max_cycles
        while live and remaining > 0:
            prog = False
            pruned = False
            moved = False
            multi = False
            cand = None
            try:
                for pe in live:
                    if pe.step():
                        if prog:
                            multi = True
                        prog = True
                        cand = pe
                    if pe.halted:
                        pruned = True
            except SimulationError as exc:
                raise attribute_error(exc, pe.name, self.cycles) from exc
            if pruned:
                live = [pe for pe in live if not pe.halted]
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
            if checker is not None:
                checker.check_system(self)
            if telemetry is not None:
                telemetry.sample_system(self)
            if prog:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= stall_limit:
                    raise self._deadlock_error(
                        "deadlock: no progress for "
                        f"{stall_limit} cycles at cycle {self.cycles}"
                    )
            if not blocks:
                continue
            dq_now = 0
            for c_ in counters:
                dq_now += c_.dequeues
            deq = dq_now != dq_prev
            dq_prev = dq_now
            # The quiescent-sibling rule.  Exactly one PE progressed this
            # cycle, it is compiled and last in step order, nothing moved
            # (no channel commit, request dequeue or store), and every
            # other live PE is quiescent (empty pipe, none-triggered this
            # cycle) with no read response in flight: the PE's block run
            # can stand in for the fabric on its own.  Its enqueues and
            # dequeues are the only events that can change what the
            # quiescent PEs observe, and the block stops at the end of
            # any cycle where either happens — because the PE steps last,
            # siblings would only see the change the following cycle
            # under interleaving too.  A dequeue in the gating cycle
            # frees channel space a sibling that already evaluated only
            # sees next cycle, so the sibling is not quiescent yet.
            # Quiescent PEs are credited their cycle and none-triggered
            # counts for every cycle the block ran.
            if (moved or deq or multi or lsqs or not live
                    or cand is not live[-1] or cand._jit is None):
                continue
            quiescent = True
            for pe in live:
                if pe is not cand and any(pe._pipe):
                    quiescent = False
                    break
            for port in rports:
                if port._in_flight:
                    quiescent = False
                    break
            if not quiescent:
                continue
            before = cand.counters.cycles
            try:
                idle_streak = run_block(
                    cand, remaining, idle_streak, stall_limit, len(live) > 1)
            except SimulationError as exc:
                ran = max(0, cand.counters.cycles - before - 1)
                self.cycles += ran
                for pe in live:
                    if pe is not cand:
                        pc = pe.counters
                        pc.cycles += ran
                        pc.none_triggered_cycles += ran
                raise attribute_error(exc, cand.name, self.cycles) from exc
            ran = cand.counters.cycles - before
            self.cycles += ran
            remaining -= ran
            for pe in live:
                if pe is not cand:
                    pc = pe.counters
                    pc.cycles += ran
                    pc.none_triggered_cycles += ran
            if idle_streak >= stall_limit:
                raise self._deadlock_error(
                    "deadlock: no progress for "
                    f"{stall_limit} cycles at cycle {self.cycles}"
                )
            if cand.halted:
                live = [pe for pe in live if not pe.halted]
        if live:    # the budget ran out before every PE halted
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
