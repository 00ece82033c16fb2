"""``filter`` — Table 3: one PE streams a list of integers to a second
which determines whether they are above a threshold and in turn emits a
zero or one accordingly to a third PE.  This third PE (the worker) uses
the Boolean input stream to determine whether to save the corresponding
value from a second stream of integers to memory.

The control stream is generated from high-entropy data, making the
worker's predicate writes unpredictable — the paper's worst case for the
predicate predictor (~50% accuracy, Figure 4)."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program
from repro.workloads.common import memory_streamer

_THRESHOLD = 1 << 29   # about half of a 30-bit uniform range


def _inputs(scale: int, seed: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed ^ 0x66696C74)
    n = max(2, scale)
    control = [rng.randrange(0, 1 << 30) for _ in range(n)]
    payload = [rng.randrange(0, 1 << 30) for _ in range(n)]
    return control, payload


@cached_program
def threshold_program(params, threshold: int):
    """Map each incoming word to 1 (above threshold) or 0, preserve EOS."""
    b = ProgramBuilder(params, start_state=None)
    b.add(checks=["%i0.0"], deq=["%i0"], op=f"ugt %o1.0, %i0, ${threshold}",
          comment="boolean out, same tag")
    b.add(checks=["%i0.1"], deq=["%i0"], op=f"ugt %o1.1, %i0, ${threshold}",
          set_flags={0: True}, comment="last boolean, then halt")
    b.add(flags={0: True}, op="halt")
    return b.program(name="filter_threshold")


@cached_program
def filter_worker_program(params, out_base: int, count_addr: int):
    """Save payload words whose control boolean is 1; store the count last."""
    b = ProgramBuilder(params, start_state="sel")
    b.add(state="sel", checks=["%i0.0", "%i1.0"], op="nez %p1, %i0",
          next="br", comment="control says keep?")
    b.add(state="sel", checks=["%i0.1", "%i1.1"], op="nez %p1, %i0",
          next="br", set_flags={3: True}, comment="final pair")
    b.add(state="br", flags={1: True}, op=f"add %o1.0, %r2, ${out_base}",
          next="store_d", comment="keep: store address = base + kept count")
    b.add(state="store_d", op="mov %o2.0, %i1", next="bump",
          comment="store the payload word")
    b.add(state="bump", flags={3: False}, op="add %r2, %r2, $1",
          deq=["%i0", "%i1"], next="sel")
    b.add(state="bump", flags={3: True}, op="add %r2, %r2, $1",
          deq=["%i0", "%i1"], next="fin")
    b.add(state="br", flags={1: False, 3: False}, op="nop",
          deq=["%i0", "%i1"], next="sel", comment="drop the pair")
    b.add(state="br", flags={1: False, 3: True}, op="nop",
          deq=["%i0", "%i1"], next="fin")
    b.add(state="fin", op=f"mov %o1.0, ${count_addr}", next="fin2")
    b.add(state="fin2", op="mov %o2.0, %r2", next="done",
          comment="record how many words were kept")
    b.add(state="done", op="halt")
    return b.program(name="filter_worker")


class FilterWorkload(Workload):
    name = "filter"
    description = (
        "A threshold PE turns one stream into Booleans; the worker PE "
        "saves words of a second stream wherever the Boolean is one."
    )
    pe_count = 4
    worker_name = "worker"
    default_scale = 256

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        control, payload = _inputs(scale, seed)
        n = len(control)
        out_base = 2 * n
        count_addr = 3 * n

        system = System()
        stream_c = make_pe("stream_c")
        thresh = make_pe("threshold")
        stream_p = make_pe("stream_p")
        worker = make_pe(self.worker_name)
        memory_streamer(0, n, self.params, eos="last").configure(stream_c)
        threshold_program(self.params, _THRESHOLD).configure(thresh)
        memory_streamer(n, n, self.params, eos="last").configure(stream_p)
        filter_worker_program(self.params, out_base, count_addr).configure(worker)
        for pe in (stream_c, thresh, stream_p, worker):
            system.add_pe(pe)
        system.add_read_port(stream_c, request_out=0, response_in=0)
        system.add_read_port(stream_p, request_out=0, response_in=0)
        system.connect(stream_c, 1, thresh, 0)
        system.connect(thresh, 1, worker, 0)
        system.connect(stream_p, 1, worker, 1)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(control, base=0)
        system.memory.preload(payload, base=n)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        control, payload = _inputs(scale, seed)
        n = len(control)
        expected = [p for c, p in zip(control, payload) if c > _THRESHOLD]
        count = system.memory.load(3 * n)
        if count != len(expected):
            raise SimulationError(
                f"filter: kept {count} words, expected {len(expected)}"
            )
        got = system.memory.dump(2 * n, len(expected)) if expected else []
        if got != expected:
            raise SimulationError("filter: saved payload mismatch")
