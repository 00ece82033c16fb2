"""Per-config compiled cycle for the pipelined PE.

``repro.jit`` turns the interpreter's per-cycle generality about the
pipe into straight-line Python generated for one pipeline config:

* :mod:`repro.jit.codegen` — emits the module source: one function,
  ``cycle(pe)`` (stage walk unrolled, capture and compute at the
  config's stages, the pending-predicate mask, trigger resolution
  through the PE's candidate table and queue-status view, issue).  The
  datapath is the interpreter's: generated code calls the PE's own
  issue, capture, compute and retire methods.
* :mod:`repro.jit.cache` — compiles each body once per process (the
  configs that differ only in queue-status policy share one), keeps the JIT's process counters, and holds
  :func:`~repro.jit.cache.run_block`, the block loop that
  :meth:`System.run <repro.fabric.system.System.run>` alone enters,
  for stretches in which only the compiled PE works.

Every fast-path ``PipelinedPE`` binds its config's cycle when its
program loads, and :meth:`PipelinedPE.step
<repro.pipeline.core.PipelinedPE.step>` runs it from cycle 0, after
the prologue every pipelined PE shares (halt test, cycle count, fault
hook, telemetry clock).  Instrumented PEs — fault hooks, telemetry
sinks — therefore run compiled too, in the same ``System.run`` loop,
but their fabrics enter no block run, whose cycles skip those hooks.
``backend="interp"`` keeps a PE on the interpreter, the differential
oracle, and the reference walk (``fast_path=False``) always runs
there.
"""

from repro.jit.cache import (
    acquire,
    block_exit_counts,
    jit_metrics,
    reset_metrics,
)
from repro.jit.codegen import CODEGEN_VERSION, body_name, generate_source

__all__ = [
    "CODEGEN_VERSION",
    "acquire",
    "block_exit_counts",
    "body_name",
    "generate_source",
    "jit_metrics",
    "reset_metrics",
]
