"""Per-config specialization backend for the pipelined PE.

``repro.jit`` turns the interpreter's per-cycle generality into
straight-line Python generated once per (program, partition, ±P,
queue-policy, params) content fingerprint:

* :mod:`repro.jit.codegen` — emits the specialized ``step``/``run``
  source (stage walk unrolled, trigger resolution inlined per
  descriptor, ALU semantics baked in).
* :mod:`repro.jit.cache` — sha256 content fingerprinting and the
  compile-once module cache.

Select it per PE with ``PipelinedPE(..., backend="jit")``.
Instrumented paths — fault hooks, telemetry sinks — transparently fall
back to the interpreter, cycle for cycle.
"""

from repro.jit.cache import (
    JitProgram,
    block_exit_counts,
    cache_stats,
    clear_cache,
    fingerprint,
    get_compiled,
    jit_metrics,
)
from repro.jit.codegen import CODEGEN_VERSION, generate_source

__all__ = [
    "CODEGEN_VERSION",
    "JitProgram",
    "block_exit_counts",
    "cache_stats",
    "clear_cache",
    "fingerprint",
    "generate_source",
    "get_compiled",
    "jit_metrics",
]
