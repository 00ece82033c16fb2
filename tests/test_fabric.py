"""Memory, memory ports, channel wiring, and the system run loop."""

import pytest

from repro.arch import FunctionalPE
from repro.arch.queue import TaggedQueue
from repro.asm import assemble
from repro.errors import (
    ConfigError,
    DeadlockError,
    SimMemoryError,
    SimulationError,
)
from repro.fabric import Memory, MemoryReadPort, MemoryWritePort, System
from repro.obs.events import Telemetry
from repro.pipeline import PipelinedPE, config_by_name
from repro.resilience.faults import FaultClass, inject, plan_faults
from repro.resilience.invariants import InvariantChecker
from repro.workloads.base import WorkloadRun
from repro.workloads.suite import WORKLOADS, get_workload, run_workload


def step_loop(system, max_cycles=2_000_000, stall_limit=20_000,
              flush_limit=1_000):
    """``System.run`` as one ``System.step`` per cycle: the oracle for
    ``run``'s hoisted loop.  Same stall, timeout and flush rules, same
    :class:`DeadlockError` messages, same counter audit; it never
    skips a port or enters a block run."""
    if not system.pes:
        raise ConfigError("system has no PEs")
    idle_streak = 0
    for _ in range(max_cycles):
        if system.all_halted:
            break
        idle_streak = 0 if system.step() else idle_streak + 1
        if idle_streak >= stall_limit:
            raise system._deadlock_error(
                f"deadlock: no progress for {stall_limit} cycles "
                f"at cycle {system.cycles}")
    else:
        raise system._deadlock_error(f"timeout after {max_cycles} cycles")
    for _ in range(flush_limit):
        if system.ports_idle:
            system._finish_run()
            return system.cycles
        system.step()
    raise system._deadlock_error(
        f"memory ports still busy {flush_limit} cycles after halt")


def step_workload(name, scale, make_pe=None):
    """``run_workload`` with the run driven by :func:`step_loop`."""
    workload = get_workload(name)
    system = workload.build(make_pe or workload.default_pe_factory(), scale, 0)
    cycles = step_loop(system, max_cycles=4_000_000)
    workload.check(system, scale, 0)
    worker = system.pe(workload.worker_name)
    return WorkloadRun(workload.name, cycles, worker.name, worker.counters,
                       system)


def fabric_fingerprint(system):
    """Cycles, every PE's counters, registers and predicates, and the
    memory words and store count."""
    return (
        system.cycles,
        [(pe.name, pe.halted, pe.counters, tuple(pe.regs.snapshot()),
          pe.preds.state) for pe in system.pes],
        dict(system.memory._words),
        system.memory.stores,
    )


class TestMemory:
    def test_load_store(self):
        mem = Memory(64)
        mem.store(5, 42)
        assert mem.load(5) == 42
        assert mem.loads == 1 and mem.stores == 1

    def test_bounds(self):
        mem = Memory(8)
        with pytest.raises(SimMemoryError):
            mem.load(8)
        with pytest.raises(SimMemoryError):
            mem.store(-1, 0)

    def test_preload_and_dump(self):
        mem = Memory(16)
        mem.preload([1, 2, 3], base=4)
        assert mem.dump(4, 3) == [1, 2, 3]

    def test_store_truncates_to_word(self):
        mem = Memory(4)
        mem.store(0, 1 << 33)
        assert mem.load(0) == 0

    def test_unwritten_words_read_zero(self):
        mem = Memory(1 << 16)
        assert len(mem) == 1 << 16
        assert mem.load(0) == 0 and mem.load((1 << 16) - 1) == 0
        assert mem.loads == 2 and mem.stores == 0

    def test_store_overwrites_and_masks(self):
        mem = Memory(8, word_mask=0xFF)
        mem.store(3, 0x1234)
        mem.store(3, 0x1FF)
        assert mem.load(3) == 0xFF
        assert mem.stores == 2 and mem.loads == 1

    def test_preload_masks_and_counts_no_access(self):
        mem = Memory(16, word_mask=0xFF)
        mem.preload([0x101, 2, 0x3FF], base=13)
        assert mem.dump(12, 4) == [0, 1, 2, 0xFF]
        assert mem.loads == 0 and mem.stores == 0

    def test_dump_is_a_list_of_every_word(self):
        mem = Memory(16)
        mem.store(5, 7)
        words = mem.dump(4, 3)
        assert type(words) is list and words == [0, 7, 0]
        assert mem.dump(16 - 1, 1) == [0]
        assert mem.dump(0, 0) == []
        words[1] = 99
        assert mem.load(5) == 7

    def test_out_of_range_errors(self):
        mem = Memory(16)
        for address in (-1, 16):
            with pytest.raises(SimMemoryError, match="out of range 0..15"):
                mem.load(address)
            with pytest.raises(SimMemoryError, match="out of range"):
                mem.store(address, 0)
            with pytest.raises(SimMemoryError, match="out of range"):
                mem.dump(address, 0)
        with pytest.raises(SimMemoryError, match="exceeds memory size"):
            mem.preload([1, 2], base=15)
        with pytest.raises(SimMemoryError, match="exceeds memory size"):
            mem.preload([1], base=-1)
        with pytest.raises(SimMemoryError, match="exceeds memory size"):
            mem.dump(10, 7)
        with pytest.raises(SimMemoryError, match="exceeds memory size"):
            mem.dump(0, -1)
        with pytest.raises(SimMemoryError, match="must be positive"):
            Memory(0)
        assert mem.loads == 0 and mem.stores == 0
        assert mem.dump(0, 16) == [0] * 16


class TestReadPort:
    def _wire(self, latency=4):
        mem = Memory(16)
        mem.preload(list(range(16)))
        port = MemoryReadPort(mem, latency=latency)
        port.request = TaggedQueue(4, "req")
        port.response = TaggedQueue(4, "rsp")
        return mem, port

    def test_latency_is_observed(self):
        __, port = self._wire(latency=4)
        port.request.enqueue(7, tag=0)
        port.request.commit()
        for cycle in range(1, 6):
            port.step()
            port.response.commit()
            if cycle < 5:
                assert port.response.is_empty, f"response too early at {cycle}"
        assert port.response.dequeue().value == 7

    def test_tag_propagates_to_response(self):
        __, port = self._wire()
        port.request.enqueue(3, tag=1)
        port.request.commit()
        for _ in range(8):
            port.step()
            port.response.commit()
        assert port.response.dequeue().tag == 1

    def test_pipelined_requests(self):
        """Initiation interval one: N loads finish in latency + N cycles."""
        __, port = self._wire(latency=4)
        values = []
        for cycle in range(12):
            if cycle < 3 and not port.request.is_full:
                port.request.enqueue(cycle, tag=0)
            port.request.commit()
            port.step()
            port.response.commit()
            while not port.response.is_empty:
                values.append(port.response.dequeue().value)
        assert values == [0, 1, 2]

    def test_rejects_zero_latency(self):
        with pytest.raises(SimMemoryError):
            MemoryReadPort(Memory(4), latency=0)

    def test_idle_flag(self):
        __, port = self._wire()
        assert port.idle
        port.request.enqueue(0, 0)
        port.request.commit()
        assert not port.idle


class TestWritePort:
    def test_pairs_address_and_data(self):
        mem = Memory(16)
        port = MemoryWritePort(mem)
        port.address = TaggedQueue(4, "addr")
        port.data = TaggedQueue(4, "data")
        port.address.enqueue(3, 0)
        port.address.commit()
        port.step()                      # data missing: nothing happens
        assert mem.stores == 0
        port.data.enqueue(99, 0)
        port.data.commit()
        port.step()
        assert mem.load(3) == 99
        assert port.stores_accepted == 1


def _producer_consumer_system():
    system = System(memory_words=64)
    producer = FunctionalPE(name="producer")
    consumer = FunctionalPE(name="consumer")
    assemble("""
    when %p == XXXXXXX0:
        mov %o0.1, $42; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1:
        halt;
    """).configure(producer)
    assemble("""
    when %p == XXXXXXX0 with %i0.1:
        mov %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
    when %p == XXXXXXX1:
        halt;
    """).configure(consumer)
    system.add_pe(producer)
    system.add_pe(consumer)
    system.connect(producer, 0, consumer, 0)
    return system, producer, consumer


class TestSystem:
    def test_producer_consumer(self):
        system, __, consumer = _producer_consumer_system()
        system.run()
        assert consumer.regs.read(0) == 42

    def test_channel_is_shared_object(self):
        system, producer, consumer = _producer_consumer_system()
        assert producer.outputs[0] is consumer.inputs[0]

    def test_duplicate_pe_name_rejected(self):
        system = System()
        system.add_pe(FunctionalPE(name="x"))
        with pytest.raises(ConfigError, match="duplicate"):
            system.add_pe(FunctionalPE(name="x"))

    def test_pe_lookup(self):
        system, producer, __ = _producer_consumer_system()
        assert system.pe("producer") is producer
        with pytest.raises(ConfigError):
            system.pe("nobody")

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigError, match="no PEs"):
            System().run()

    def test_deadlock_detected_with_dump(self):
        system = System()
        pe = FunctionalPE(name="stuck")
        # Waits forever for input that never comes.
        assemble("""
        when %p == XXXXXXXX with %i0.0:
            halt;
        """).configure(pe)
        system.add_pe(pe)
        with pytest.raises(SimulationError, match="deadlock"):
            system.run(stall_limit=100)

    @pytest.mark.parametrize("config, lone", [
        pytest.param("T|D|X1|X2 +P+Q", False, id="T|D|X1|X2 +P+Q"),
        pytest.param("TD|X", False, id="TD|X"),
        pytest.param("T|D|X1|X2 +P+Q", True, id="lone T|D|X1|X2 +P+Q"),
    ])
    def test_pipelined_deadlock_matches_reference(
            self, config, lone):
        """A pipelined fabric that streams for hundreds of cycles and
        then waits forever: ``System.run`` (every fast-path PE compiled)
        must raise at the same cycle, with the same forensic report, as
        the reference walk stepped by :func:`step_loop`.  The lone
        producer deadlocks inside its compiled block run."""
        def build(fast_path):
            system = System()
            producer = PipelinedPE(config_by_name(config), name="producer",
                                   fast_path=fast_path)
            # 300 tokens out (300 loop turns with no output when lone),
            # then wait on an input nobody sends.
            send = "add %r2, %r2, %r0" if lone else "mov %o0.0, %r0"
            assemble(f"""
            when %p == XXXXX000:
                ult %p1, %r0, $300; set %p = ZZZZZZZ1;
            when %p == XXXXX011:
                {send}; set %p = ZZZZZ100;
            when %p == XXXXX100:
                add %r0, %r0, $1; set %p = ZZZZZ000;
            when %p == XXXXX001 with %i0.0:
                halt;
            """).configure(producer)
            system.add_pe(producer)
            if lone:
                return system
            consumer = PipelinedPE(config_by_name(config), name="consumer",
                                   fast_path=fast_path)
            # Sums every token, and waits for more once they stop.
            assemble("""
            when %p == XXXXXXXX with %i0.0:
                add %r1, %r1, %i0; deq %i0;
            """).configure(consumer)
            system.add_pe(consumer)
            system.connect(producer, 0, consumer, 0)
            return system

        errors = {}
        for fast_path, drive in ((True, System.run), (False, step_loop)):
            system = build(fast_path)
            with pytest.raises(DeadlockError) as info:
                drive(system, stall_limit=200)
            errors[fast_path] = info.value
            assert all((pe._jit is not None) is fast_path
                       for pe in system.pes)
        ran, reference = errors[True], errors[False]
        assert str(ran) == str(reference)
        assert ran.report == reference.report
        assert ran.report["cycle"] > 512

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: FunctionalPE(name="consumer"), id="functional"),
        pytest.param(lambda: PipelinedPE(config_by_name("T|D|X1|X2 +P+Q"),
                                         name="consumer"), id="fast-path"),
        pytest.param(lambda: PipelinedPE(config_by_name("T|D|X1|X2 +P+Q"),
                                         name="consumer", fast_path=False),
                     id="reference"),
    ])
    def test_a_pe_rewired_after_it_stepped_fires_on_the_new_channel(
            self, make):
        """A PE that has already stepped against an empty input, then
        wired to a producer, commits the new channel and fires on its
        token the next cycle."""
        consumer = make()
        assemble("""
        when %p == XXXXXXX0 with %i0.1:
            mov %r0, %i0; deq %i0; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """).configure(consumer)
        for _ in range(3):
            assert not consumer.step()
            consumer.commit_queues()
        producer = FunctionalPE(name="producer")
        assemble("""
        when %p == XXXXXXX0:
            mov %o0.1, $42; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """).configure(producer)
        system = System()
        system.add_pe(producer)
        system.add_pe(consumer)
        channel = system.connect(producer, 0, consumer, 0)
        producer.step()
        consumer.commit_queues()
        assert channel.occupancy == 1
        assert consumer.step()
        assert consumer.recent_fires[-1] == (4, 0)
        while not consumer.halted:
            consumer.step()
            consumer.commit_queues()
        assert consumer.regs.read(0) == 42
        assert channel.occupancy == 0

    def test_final_stores_are_flushed(self):
        """A store issued on the halting instruction's cycle must land."""
        system = System(memory_words=16)
        pe = FunctionalPE(name="w")
        assemble("""
        when %p == XXXXXX00:
            mov %o0.0, $5; set %p = ZZZZZZ01;
        when %p == XXXXXX01:
            mov %o1.0, $77; set %p = ZZZZZZ11;
        when %p == XXXXXX11:
            halt;
        """).configure(pe)
        system.add_pe(pe)
        system.add_write_port(pe, 0, pe, 1)
        system.run()
        assert system.memory.load(5) == 77

    def test_memory_round_trip_through_ports(self):
        system = System(memory_words=32, memory_latency=4)
        pe = FunctionalPE(name="copier")
        # Load memory[2], store the value doubled at memory[3].
        assemble("""
        when %p == XXXXX000:
            mov %o0.0, $2; set %p = ZZZZZ001;
        when %p == XXXXX001 with %i0.0:
            add %r0, %i0, %i0; deq %i0; set %p = ZZZZZ011;
        when %p == XXXXX011:
            mov %o1.0, $3; set %p = ZZZZZ010;
        when %p == XXXXX010:
            mov %o2.0, %r0; set %p = ZZZZZ110;
        when %p == XXXXX110:
            halt;
        """).configure(pe)
        system.add_pe(pe)
        system.add_read_port(pe, request_out=0, response_in=0)
        system.add_write_port(pe, 1, pe, 2)
        system.memory.preload([0, 0, 21])
        system.run()
        assert system.memory.load(3) == 42

    def test_cycle_count_includes_memory_latency(self):
        system = System(memory_words=32, memory_latency=4)
        fast = System(memory_words=32, memory_latency=1)
        for s in (system, fast):
            pe = FunctionalPE(name="loader")
            assemble("""
            when %p == XXXXXX00:
                mov %o0.0, $0; set %p = ZZZZZZ01;
            when %p == XXXXXX01 with %i0.0:
                mov %r0, %i0; deq %i0; set %p = ZZZZZZ11;
            when %p == XXXXXX11:
                halt;
            """).configure(pe)
            s.add_pe(pe)
            s.add_read_port(pe, request_out=0, response_in=0)
            s.run()
        assert system.cycles > fast.cycles


def _udiv():
    """udiv at scale 8 on T|D|X1|X2 +P+Q, built and not yet run; its
    clean run takes 2,800 cycles."""
    config = config_by_name("T|D|X1|X2 +P+Q")
    return get_workload("udiv").build(
        lambda n: PipelinedPE(config, name=n), 8, 0)


def _udiv_under(instrument, drive):
    """udiv driven by ``drive`` under one instrument: the fabric
    fingerprint and what the instrument saw."""
    system = _udiv()
    if instrument == "telemetry":
        sink = Telemetry()
        sink.attach_system(system)
        drive(system)
        seen = (sink.pe_rows, sink.queue_timelines, sink.port_busy_cycles,
                sink.stage_intervals,
                [(e.kind, e.cycle, e.source, e.data) for e in sink.events])
    else:
        checker = InvariantChecker()
        system.attach_invariant_checker(checker)
        drive(system)
        seen = checker.checks
    get_workload("udiv").check(system, 8, 0)
    return fabric_fingerprint(system), seen


class TestOneLoop:
    """``System.run`` drives every fabric through one loop, and
    :func:`step_loop` holds it to one ``System.step`` per cycle."""

    @pytest.mark.parametrize("name", WORKLOADS())
    def test_golden_model_matches_step_loop(self, name):
        ran = run_workload(name, scale=8)
        assert all(isinstance(pe, FunctionalPE) for pe in ran.system.pes)
        stepped = step_workload(name, scale=8)
        assert (fabric_fingerprint(ran.system)
                == fabric_fingerprint(stepped.system))

    @pytest.mark.parametrize("instrument", ["telemetry", "invariants"])
    def test_instrumented_udiv_matches_step_loop(self, instrument):
        ran = _udiv_under(instrument, System.run)
        assert ran == _udiv_under(instrument, step_loop)
        assert ran[1]

    @pytest.mark.parametrize("fault, trial, ending", [
        pytest.param(FaultClass.QUEUE_DROP, 0, "deadlock: no progress",
                     id="queue-drop-deadlock"),
        pytest.param(FaultClass.QUEUE_DROP, 1, "memory ports still busy",
                     id="queue-drop-flush"),
        pytest.param(FaultClass.REG_BIT_FLIP, 2, "completed",
                     id="reg-bit-flip-completes"),
    ])
    def test_faulted_udiv_matches_step_loop(self, fault, trial, ending):
        """A fault plan on udiv's worker ends the run the same way under
        both: the same error text and forensic report, or the same
        final fabric."""
        outcomes = []
        for drive in (System.run, step_loop):
            system = _udiv()
            injector = inject(system.pe("worker"), plan_faults(
                fault, 0, key=f"udiv/t{trial}", count=2, window=(1, 2800)))
            try:
                drive(system, max_cycles=20_000, stall_limit=500)
            except DeadlockError as exc:
                outcomes.append((str(exc), exc.report, injector.log))
            else:
                outcomes.append(
                    ("completed", fabric_fingerprint(system), injector.log))
        ran, stepped = outcomes
        assert ran == stepped
        assert ran[0].startswith(ending)

    @pytest.mark.parametrize("instrument", [
        "telemetry", "invariants", "fault_hook", "golden"])
    def test_run_steps_the_system_only_in_the_flush(
            self, instrument, monkeypatch):
        """``System.run`` drives every cycle until the PEs halt, with any
        instrument attached; ``System.step`` runs only in the post-halt
        flush, here while a load issued just before the halt lands."""
        calls = []
        step = System.step

        def counted(system):
            calls.append(system.all_halted)
            return step(system)

        monkeypatch.setattr(System, "step", counted)
        system = System(memory_words=16)
        if instrument == "golden":
            pe = FunctionalPE(name="loader")
        else:
            pe = PipelinedPE(config_by_name("T|D|X1|X2 +P+Q"), name="loader")
        assemble("""
        when %p == XXXXXXX0:
            mov %o0.0, $3; set %p = ZZZZZZZ1;
        when %p == XXXXXXX1:
            halt;
        """).configure(pe)
        system.add_pe(pe)
        system.add_read_port(pe, request_out=0, response_in=0)
        if instrument == "telemetry":
            Telemetry().attach_system(system)
        elif instrument == "invariants":
            system.attach_invariant_checker(InvariantChecker())
        elif instrument == "fault_hook":
            pe.fault_hook = lambda pe: None
        system.run()
        assert calls and all(calls)
