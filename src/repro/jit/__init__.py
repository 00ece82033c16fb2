"""Per-config compiled step for the pipelined PE.

``repro.jit`` turns the interpreter's per-cycle generality about the
pipe into straight-line Python generated for one pipeline config:

* :mod:`repro.jit.codegen` — emits the module source: one cycle
  function (stage walk unrolled, capture and compute at the config's
  stages, the pending-predicate mask, trigger resolution through the
  PE's candidate table and queue-status view, issue) behind a per-cycle
  ``step`` and a block-mode ``run`` that the fused ``System`` loop
  alone enters, for stretches in which only the compiled PE works.  The
  datapath is the interpreter's: generated code calls the PE's own
  capture, compute, prediction-offer and retire methods.
* :mod:`repro.jit.cache` — compiles each config's module once per
  process, and keeps the JIT's process counters.

Every fast-path ``PipelinedPE`` binds its config's module when its
program loads and runs compiled from cycle 0.  ``backend="interp"``
keeps a PE on the interpreter, the differential oracle, and the
reference walk (``fast_path=False``) always runs there.  Instrumented
paths — fault hooks, telemetry sinks — transparently fall back to the
interpreter, cycle for cycle, and never enter a block run.
"""

from repro.jit.cache import (
    JitProgram,
    acquire,
    block_exit_counts,
    jit_metrics,
    reset_metrics,
)
from repro.jit.codegen import CODEGEN_VERSION, generate_source

__all__ = [
    "CODEGEN_VERSION",
    "JitProgram",
    "acquire",
    "block_exit_counts",
    "generate_source",
    "jit_metrics",
    "reset_metrics",
]
