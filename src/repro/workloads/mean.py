"""``mean`` — Table 3: a single PE reads an array of numbers from memory
and accumulates them before calculating their average and storing it
back to memory.

The ISA deliberately has no divide, so the array length is a power of
two and the average is an arithmetic shift — the idiom the paper's
benchmarks use for omitted operations."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program

_ARRAY_BASE = 0


def _pow2_count(scale: int) -> int:
    count = 1
    while count * 2 <= max(2, scale):
        count *= 2
    return count


def _inputs(scale: int, seed: int) -> list[int]:
    rng = random.Random(seed ^ 0x6D65616E)
    return [rng.randrange(0, 1 << 16) for _ in range(_pow2_count(scale))]


@cached_program
def mean_program(params, count: int):
    """Serial load-accumulate loop, then a shift for the average."""
    log2 = count.bit_length() - 1
    result_addr = _ARRAY_BASE + count
    b = ProgramBuilder(params, start_state="cmp")
    b.add(state="cmp", op=f"ult %p1, %r0, ${_ARRAY_BASE + count}", next="act",
          comment="more elements?  r0 is the address")
    b.add(state="act", flags={1: True}, op="mov %o0.0, %r0", next="recv",
          comment="request element")
    b.add(state="recv", op="add %r1, %r1, %i0", deq=["%i0"], next="inc",
          comment="accumulate")
    b.add(state="inc", op="add %r0, %r0, $1", next="cmp")
    b.add(state="act", flags={1: False}, op=f"shr %r1, %r1, ${log2}",
          next="store_addr", comment="average = sum >> log2(n)")
    b.add(state="store_addr", op=f"mov %o1.0, ${result_addr}", next="store_data")
    b.add(state="store_data", op="mov %o2.0, %r1", next="done")
    b.add(state="done", op="halt")
    return b.program(name="mean")


class MeanWorkload(Workload):
    name = "mean"
    description = (
        "Single PE reads an array from memory, accumulates it, and stores "
        "the average back to memory."
    )
    pe_count = 1
    worker_name = "worker"
    default_scale = 256

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        values = _inputs(scale, seed)
        system = System()
        worker = make_pe(self.worker_name)
        mean_program(self.params, len(values)).configure(worker)
        system.add_pe(worker)
        system.add_read_port(worker, request_out=0, response_in=0)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(values, base=_ARRAY_BASE)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        values = _inputs(scale, seed)
        expected = sum(values) // len(values)
        got = system.memory.load(_ARRAY_BASE + len(values))
        if got != expected:
            raise SimulationError(
                f"mean of {len(values)} values: expected {expected}, stored {got}"
            )
