"""``dot_product`` — Table 3: two PEs stream two integer arrays to a
third PE (the worker) which calculates the dot product.  Upon receiving
end-of-program tags from both streams, the multiply-accumulate PE saves
its accumulator to memory before halting.

The worker PE does not rely on predicates for control flow, only the
semantic information encoded in operand tags — the paper singles it out
for exactly this in Figure 4."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program
from repro.workloads.common import memory_streamer

_WORD = 0xFFFFFFFF


def _inputs(scale: int, seed: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed ^ 0x646F74)
    n = max(2, scale)
    return (
        [rng.randrange(0, 1 << 15) for _ in range(n)],
        [rng.randrange(0, 1 << 15) for _ in range(n)],
    )


@cached_program
def mac_program(params, result_addr: int):
    """Multiply-accumulate pairs; finish when both heads carry EOS tags.

    The streams are equal length and consumed in lockstep, so the EOS
    tags arrive on the same pair.
    """
    b = ProgramBuilder(params, start_state="mac")
    b.add(state="mac", checks=["%i0.0", "%i1.0"], op="mul %r1, %i0, %i1",
          next="acc", comment="product of the pair (reads both heads)")
    b.add(state="mac", checks=["%i0.1", "%i1.1"], op="mul %r1, %i0, %i1",
          next="acc", set_flags={3: True}, comment="final pair")
    b.add(state="acc", flags={3: False}, op="add %r0, %r0, %r1",
          deq=["%i0", "%i1"], next="mac", comment="accumulate, consume pair")
    b.add(state="acc", flags={3: True}, op="add %r0, %r0, %r1",
          deq=["%i0", "%i1"], next="fin")
    b.add(state="fin", op=f"mov %o1.0, ${result_addr}", next="fin2")
    b.add(state="fin2", op="mov %o2.0, %r0", next="done",
          comment="save the accumulator")
    b.add(state="done", op="halt")
    return b.program(name="dot_product")


class DotProductWorkload(Workload):
    name = "dot_product"
    description = (
        "Two PEs stream two integer arrays to a multiply-accumulate "
        "worker PE that stores the dot product."
    )
    pe_count = 3
    worker_name = "worker"
    default_scale = 256

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        xs, ys = _inputs(scale, seed)
        n = len(xs)
        result_addr = 2 * n

        system = System()
        stream_x = make_pe("stream_x")
        stream_y = make_pe("stream_y")
        worker = make_pe(self.worker_name)
        memory_streamer(0, n, self.params, eos="last").configure(stream_x)
        memory_streamer(n, n, self.params, eos="last").configure(stream_y)
        mac_program(self.params, result_addr).configure(worker)
        for pe in (stream_x, stream_y, worker):
            system.add_pe(pe)
        system.add_read_port(stream_x, request_out=0, response_in=0)
        system.add_read_port(stream_y, request_out=0, response_in=0)
        system.connect(stream_x, 1, worker, 0)
        system.connect(stream_y, 1, worker, 1)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(xs, base=0)
        system.memory.preload(ys, base=n)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        xs, ys = _inputs(scale, seed)
        expected = sum(x * y for x, y in zip(xs, ys)) & _WORD
        got = system.memory.load(2 * len(xs))
        if got != expected:
            raise SimulationError(f"dot_product: expected {expected}, stored {got}")
