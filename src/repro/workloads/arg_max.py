"""``arg_max`` — Table 3: one PE streams an array of integers from
memory to another which determines the index of the highest value; the
second PE (the worker) stores the result back to data memory."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program
from repro.workloads.common import memory_streamer

_ARRAY_BASE = 0


def _inputs(scale: int, seed: int) -> list[int]:
    rng = random.Random(seed ^ 0x6172676D)
    return [rng.randrange(1, 1 << 30) for _ in range(max(2, scale))]


@cached_program
def arg_max_program(params, result_addr: int):
    """Track the running maximum and its index; store the index at EOS.

    The incoming stream uses the "last" EOS style, so the final element
    still participates in the comparison.  Ties keep the earliest index.
    """
    b = ProgramBuilder(params, start_state="scan")
    b.add(state="scan", checks=["%i0.0"], op="ugt %p1, %i0, %r1", next="upd",
          comment="new element beats the best so far?")
    b.add(state="scan", checks=["%i0.1"], op="ugt %p1, %i0, %r1", next="upd",
          set_flags={2: True}, comment="last element: same test, arm finish")
    b.add(state="upd", flags={1: True}, op="mov %r1, %i0", next="upd2",
          comment="new best value")
    b.add(state="upd2", op="mov %r2, %r0", next="adv", comment="new best index")
    b.add(state="upd", flags={1: False}, op="nop", next="adv")
    b.add(state="adv", flags={2: False}, op="add %r0, %r0, $1", deq=["%i0"],
          next="scan", comment="consume the element, bump the index")
    b.add(state="adv", flags={2: True}, op="add %r0, %r0, $1", deq=["%i0"],
          next="fin")
    b.add(state="fin", op=f"mov %o1.0, ${result_addr}", next="fin2")
    b.add(state="fin2", op="mov %o2.0, %r2", next="done")
    b.add(state="done", op="halt")
    return b.program(name="arg_max")


class ArgMaxWorkload(Workload):
    name = "arg_max"
    description = (
        "One PE streams integers from memory to a worker PE that finds "
        "the index of the maximum and stores it."
    )
    pe_count = 2
    worker_name = "worker"
    default_scale = 256

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        values = _inputs(scale, seed)
        result_addr = _ARRAY_BASE + len(values)

        system = System()
        streamer = make_pe("streamer")
        worker = make_pe(self.worker_name)
        memory_streamer(_ARRAY_BASE, len(values), self.params,
                        eos="last").configure(streamer)
        arg_max_program(self.params, result_addr).configure(worker)
        system.add_pe(streamer)
        system.add_pe(worker)
        system.add_read_port(streamer, request_out=0, response_in=0)
        system.connect(streamer, 1, worker, 0)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(values, base=_ARRAY_BASE)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        values = _inputs(scale, seed)
        expected = max(range(len(values)), key=lambda i: values[i])
        got = system.memory.load(_ARRAY_BASE + len(values))
        if got != expected:
            raise SimulationError(f"arg_max: expected index {expected}, stored {got}")
