"""Per-config specialization backend for the pipelined PE.

``repro.jit`` turns the interpreter's per-cycle generality into
straight-line Python generated for one (program, partition, ±P,
queue-policy, params) tuple:

* :mod:`repro.jit.codegen` — emits the specialized module source: one
  cycle function (stage walk unrolled, trigger resolution inlined per
  descriptor, issue bookkeeping at each fire site) behind a per-cycle
  ``step`` and a block-mode ``run`` that the fused ``System`` loop
  alone enters, for stretches in which only the compiled PE works.  The
  datapath is the interpreter's: generated code calls the PE's own
  capture, compute, prediction-offer and retire methods.
* :mod:`repro.jit.cache` — compiles a module, shares it among the live
  PEs that hold it, releases it with the last one, and keeps the JIT's
  process counters.

A PE runs compiled in two ways.  ``PipelinedPE(..., backend="jit")``
compiles it from cycle 0.  Otherwise :meth:`repro.fabric.system.System.run`
promotes the PEs that are still issuing once a run passes a fixed cycle
mark, for the rest of that run.  Instrumented paths — fault hooks,
telemetry sinks — transparently fall back to the interpreter, cycle for
cycle, and never enter a block run.
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
