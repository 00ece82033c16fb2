"""``udiv`` — Table 3: an unsigned integer division assembly macro in a
single PE (the worker), fed numerators and denominators by another PE
streaming them from memory, with the quotients stored back to memory.

The divider is the paper's example of software support for operations
deliberately omitted from the RISC-style ISA.  The worker implements a
32-iteration restoring shift-subtract division in exactly 16
instructions — the full capacity of a PE — by recirculating the
numerator register: each ``rol`` consumes one numerator bit at the top
and the freed bottom bit stores the next quotient bit.

The feeder streams (numerator, denominator) pairs and weaves one store
address per pair into its request loop, so the write port always has an
address ready when the worker emits a quotient (emitting all addresses
after all requests would deadlock on queue backpressure)."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program


def _inputs(scale: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed ^ 0x75646976)
    pairs = []
    for _ in range(max(1, scale)):
        numerator = rng.randrange(0, 1 << 32)
        denominator = rng.randrange(1, 1 << 16)
        pairs.append((numerator, denominator))
    return pairs


@cached_program
def divider_program(params, word_width: int = 32):
    """Restoring division; quotient accumulates in the numerator register."""
    b = ProgramBuilder(params, start_state="geta")
    b.add(state="geta", checks=["%i0.0"], op="mov %r0, %i0", deq=["%i0"],
          next="getb", comment="numerator (quotient builds here too)")
    b.add(state="geta", checks=["%i0.1"], op="halt", comment="EOS sentinel")
    b.add(state="getb", checks=["%i0.0"], op="mov %r1, %i0", deq=["%i0"],
          next="i1", comment="denominator")
    b.add(state="i1", op="mov %r4, $0", next="i2", comment="remainder = 0")
    b.add(state="i2", op=f"mov %r3, ${word_width}", next="loop",
          comment="bit counter")
    b.add(state="loop", op="eqz %p1, %r3", next="lbr")
    b.add(state="lbr", flags={1: True}, op="mov %o2.0, %r0", next="geta",
          comment="done: r0 is the quotient; feeder supplies the address")
    b.add(state="lbr", flags={1: False}, op="rol %r0, %r0, $1", next="b2",
          comment="numerator MSB rotates into bit 0")
    b.add(state="b2", op="and %r6, %r0, $1", next="b3",
          comment="extract the incoming bit")
    b.add(state="b3", op="shl %r4, %r4, $1", next="b4")
    b.add(state="b4", op="or %r4, %r4, %r6", next="b5",
          comment="remainder = remainder << 1 | bit")
    b.add(state="b5", op="sub %r3, %r3, $1", next="b6")
    b.add(state="b6", op="uge %p2, %r4, %r1", next="b7",
          comment="does the denominator fit?")
    b.add(state="b7", flags={2: True}, op="sub %r4, %r4, %r1", next="b8")
    b.add(state="b8", op="or %r0, %r0, $1", next="loop",
          comment="quotient bit 1 (replaces the consumed numerator bit)")
    b.add(state="b7", flags={2: False}, op="and %r0, %r0, $-2", next="loop",
          comment="quotient bit 0")
    return b.program(name="udiv")


@cached_program
def feeder_program(params, pair_count: int, out_base: int):
    """Stream 2*pair_count words (pairs) and one store address per pair.

    Read port on %o0/%i0; data to the worker on %o1; store addresses to
    the write port on %o2.  The last denominator request carries the EOS
    tag; its response is forwarded as data and followed by a sentinel.
    """
    last_pair_base = 2 * (pair_count - 1)
    b = ProgramBuilder(params, start_state="cmp")
    b.add(checks=["%i0.0"], deq=["%i0"], op="mov %o1.0, %i0",
          comment="forward a data word to the divider")
    b.add(checks=["%i0.1"], deq=["%i0"], op="mov %o1.0, %i0",
          set_flags={2: True}, comment="forward the last denominator")
    b.add(flags={2: True}, op="mov %o1.1, $0", set_flags={2: False, 3: True},
          comment="append the EOS sentinel")
    b.add(state="cmp", op=f"ult %p1, %r0, ${last_pair_base}", next="act",
          comment="r0 is the memory address; more pairs after this one?")
    b.add(state="act", flags={1: True}, op="mov %o0.0, %r0", next="inc1",
          comment="request numerator")
    b.add(state="inc1", op="add %r0, %r0, $1", next="act2")
    b.add(state="act2", op="mov %o0.0, %r0", next="inc2",
          comment="request denominator")
    b.add(state="inc2", op="add %r0, %r0, $1", next="aemit")
    b.add(state="aemit", op=f"add %o2.0, %r2, ${out_base}", next="ainc",
          comment="store address for this pair's quotient")
    b.add(state="ainc", op="add %r2, %r2, $1", next="cmp")
    b.add(state="act", flags={1: False}, op="mov %o0.0, %r0", next="linc",
          comment="last pair: request numerator")
    b.add(state="linc", op="add %r0, %r0, $1", next="lact2")
    b.add(state="lact2", op="mov %o0.1, %r0", next="aemitl",
          comment="last denominator request, tagged EOS")
    b.add(state="aemitl", op=f"add %o2.0, %r2, ${out_base}", next="adone")
    b.add(state="adone", flags={3: True}, op="halt",
          comment="sentinel forwarded and all addresses emitted")
    return b.program(name="udiv_feeder")


class UdivWorkload(Workload):
    name = "udiv"
    description = (
        "A feeder PE streams numerator/denominator pairs from memory to a "
        "software shift-subtract divider PE; quotients go back to memory."
    )
    pe_count = 2
    worker_name = "worker"
    default_scale = 24   # pairs; each costs ~300 worker cycles

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        pairs = _inputs(scale, seed)
        n = len(pairs)
        out_base = 2 * n
        flat = [value for pair in pairs for value in pair]

        system = System()
        feeder = make_pe("feeder")
        worker = make_pe(self.worker_name)
        feeder_program(self.params, n, out_base).configure(feeder)
        divider_program(self.params, self.params.word_width).configure(worker)
        system.add_pe(feeder)
        system.add_pe(worker)
        system.add_read_port(feeder, request_out=0, response_in=0)
        system.connect(feeder, 1, worker, 0)
        system.add_write_port(feeder, 2, worker, 2)
        system.memory.preload(flat, base=0)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        pairs = _inputs(scale, seed)
        expected = [n // d for n, d in pairs]
        got = system.memory.dump(2 * len(pairs), len(pairs))
        if got != expected:
            bad = next(i for i in range(len(pairs)) if got[i] != expected[i])
            raise SimulationError(
                f"udiv: {pairs[bad][0]} / {pairs[bad][1]} stored {got[bad]}, "
                f"expected {expected[bad]}"
            )
