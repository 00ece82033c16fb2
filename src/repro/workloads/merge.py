"""``merge`` — Table 3: simulates the conditions for a PE in a
high-radix spatial merge sort using a 2x2 array.  Two PEs stream sorted
lists to a merge PE (the worker), which must produce a sorted list
combining them.

Like ``filter``, the comparison outcome depends on high-entropy data, so
the worker's predicate writes are nearly unpredictable (Figure 4).  The
incoming streams use sentinel EOS words so the worker can drain the
surviving stream after the other ends."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program
from repro.workloads.common import memory_streamer


def _inputs(scale: int, seed: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed ^ 0x6D657267)
    n = max(2, scale)
    return (
        sorted(rng.randrange(0, 1 << 30) for _ in range(n)),
        sorted(rng.randrange(0, 1 << 30) for _ in range(n)),
    )


@cached_program
def merge_program(params, out_base: int):
    """Classic two-way merge over %i0 and %i3 (the paper's own queues).

    Each accepted element costs three instructions: compare, store
    address, store data.  When one stream's sentinel is at the head the
    other is drained unconditionally; both sentinels mean done.
    """
    b = ProgramBuilder(params, start_state="cmp")
    b.add(state="cmp", checks=["%i0.0", "%i3.0"], op="ule %p1, %i0, %i3",
          next="br", comment="which head is smaller?")
    b.add(state="br", flags={1: True}, op=f"add %o1.0, %r2, ${out_base}",
          next="da", comment="take from stream A")
    b.add(state="da", op="mov %o2.0, %i0", deq=["%i0"], next="bump")
    b.add(state="br", flags={1: False}, op=f"add %o1.0, %r2, ${out_base}",
          next="db", comment="take from stream B")
    b.add(state="db", op="mov %o2.0, %i3", deq=["%i3"], next="bump")
    b.add(state="bump", op="add %r2, %r2, $1", next="cmp")
    b.add(state="cmp", checks=["%i0.1", "%i3.0"],
          op=f"add %o1.0, %r2, ${out_base}", next="db",
          comment="A exhausted: drain B")
    b.add(state="cmp", checks=["%i0.0", "%i3.1"],
          op=f"add %o1.0, %r2, ${out_base}", next="da",
          comment="B exhausted: drain A")
    b.add(state="cmp", checks=["%i0.1", "%i3.1"], op="halt",
          comment="both sentinels seen: done")
    return b.program(name="merge")


class MergeWorkload(Workload):
    name = "merge"
    description = (
        "Two PEs stream sorted lists to a merge worker PE that stores "
        "the combined sorted list."
    )
    pe_count = 3
    worker_name = "worker"
    default_scale = 192

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        xs, ys = _inputs(scale, seed)
        n = len(xs)
        out_base = 2 * n

        system = System()
        stream_a = make_pe("stream_a")
        stream_b = make_pe("stream_b")
        worker = make_pe(self.worker_name)
        memory_streamer(0, n, self.params, eos="sentinel").configure(stream_a)
        memory_streamer(n, n, self.params, eos="sentinel").configure(stream_b)
        merge_program(self.params, out_base).configure(worker)
        for pe in (stream_a, stream_b, worker):
            system.add_pe(pe)
        system.add_read_port(stream_a, request_out=0, response_in=0)
        system.add_read_port(stream_b, request_out=0, response_in=0)
        system.connect(stream_a, 1, worker, 0)
        system.connect(stream_b, 1, worker, 3)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(xs, base=0)
        system.memory.preload(ys, base=n)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        xs, ys = _inputs(scale, seed)
        expected = sorted(xs + ys)
        got = system.memory.dump(2 * len(xs), len(expected))
        if got != expected:
            bad = next(i for i in range(len(expected)) if got[i] != expected[i])
            raise SimulationError(
                f"merge: output[{bad}] = {got[bad]}, expected {expected[bad]}"
            )
