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
from repro.pipeline import PipelinedPE, config_by_name


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
    def test_pipelined_deadlock_past_promotion_matches_reference(
            self, config, lone):
        """A pipelined fabric that streams past the promotion mark and
        then waits forever: the fused loop (with its busy PE compiled)
        must raise at the same cycle, with the same forensic report, as
        the reference walk.  The lone producer deadlocks inside its
        compiled block run."""
        from repro.jit.cache import STATS

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
        for fast_path in (True, False):
            promoted = STATS.promotions
            with pytest.raises(DeadlockError) as info:
                build(fast_path).run(stall_limit=200)
            errors[fast_path] = info.value
            assert (STATS.promotions > promoted) is fast_path
        fused, reference = errors[True], errors[False]
        assert str(fused) == str(reference)
        assert fused.report == reference.report
        assert fused.report["cycle"] > 512

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
