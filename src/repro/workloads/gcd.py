"""``gcd`` — Table 3: a single PE reads two numbers (chosen intentionally
for long runtime) and performs a register-register workload computing
their GCD by subtraction before storing it back to memory."""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program

_A_ADDR = 0
_B_ADDR = 1
_RESULT_ADDR = 2


def _inputs(scale: int, seed: int) -> tuple[int, int]:
    """Operands whose subtractive GCD takes on the order of ``scale`` steps."""
    # (k + 1, k) degenerates to gcd(1, k): about k subtraction steps.
    base = max(2, scale)
    return base + 1 + seed % 7, base + seed % 7


@cached_program
def gcd_program(params):
    """The worker program: load a and b, subtract until equal, store."""
    b = ProgramBuilder(params, start_state="req_a")
    b.add(state="req_a", op=f"mov %o0.0, ${_A_ADDR}", next="req_b",
          comment="request operand a")
    b.add(state="req_b", op=f"mov %o0.0, ${_B_ADDR}", next="recv_a",
          comment="request operand b")
    b.add(state="recv_a", op="mov %r0, %i0", deq=["%i0"], next="recv_b")
    b.add(state="recv_b", op="mov %r1, %i0", deq=["%i0"], next="test")
    b.add(state="test", op="eq %p1, %r0, %r1", next="br",
          comment="loop until a == b")
    b.add(state="br", flags={1: True}, op=f"mov %o1.0, ${_RESULT_ADDR}",
          next="store", comment="converged: store address")
    b.add(state="store", op="mov %o2.0, %r0", next="done",
          comment="store gcd value")
    b.add(state="done", op="halt")
    b.add(state="br", flags={1: False}, op="ult %p2, %r0, %r1", next="sub")
    b.add(state="sub", flags={2: True}, op="sub %r1, %r1, %r0", next="test")
    b.add(state="sub", flags={2: False}, op="sub %r0, %r0, %r1", next="test")
    return b.program(name="gcd")


class GcdWorkload(Workload):
    name = "gcd"
    description = (
        "Single PE reads two numbers, computes their GCD with "
        "register-register subtraction, stores it back to memory."
    )
    pe_count = 1
    worker_name = "worker"
    default_scale = 512

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        a, b = _inputs(scale, seed)
        system = System()
        worker = make_pe(self.worker_name)
        gcd_program(self.params).configure(worker)
        system.add_pe(worker)
        system.add_read_port(worker, request_out=0, response_in=0)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload([a, b], base=_A_ADDR)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        a, b = _inputs(scale, seed)
        expected = math.gcd(a, b)
        got = system.memory.load(_RESULT_ADDR)
        if got != expected:
            raise SimulationError(f"gcd({a}, {b}) = {expected}, PE stored {got}")
