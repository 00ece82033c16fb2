"""Compiled PE modules: build one, share it while it is held, release it.

:func:`acquire` returns the generated module (:mod:`repro.jit.codegen`)
for a PE's loaded program under its pipeline configuration.  PEs alive
at the same time with equal (program, config, params) share one module,
because the generated functions take the PE as their first argument and
hold no per-PE state.  A module lives only while some PE holds it:

* a ``PipelinedPE(backend="jit")`` holds its module from program load,
  so it runs compiled from cycle 0;
* a PE that :class:`~repro.fabric.system.System` promotes mid-run holds
  its module until that run ends.

When the last holder lets go, the module's namespace is cleared.  That
breaks the reference cycle between the namespace and the functions
defined in it, so the memory returns at once instead of at the next
full garbage collection.

:func:`jit_metrics` reports the process-wide counters: modules compiled
(``misses``) and shared (``hits``), compile seconds, live modules
(``entries``), PEs promoted, PE cycles run compiled, and why block runs
returned control.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.jit.codegen import _Codegen
from repro.pipeline.core import PipelinedPE, _InFlight


class JitProgram:
    """One compiled module's entry points."""

    __slots__ = ("step", "run", "__weakref__")

    def __init__(self, step: Callable[..., bool],
                 run: Callable[..., int]) -> None:
        self.step = step
        self.run = run


@dataclass
class JitStats:
    #: Binds served by a module another live PE already held.
    hits: int = 0
    #: Modules compiled.
    misses: int = 0
    compile_seconds: float = 0.0
    #: PEs a System run compiled mid-run.
    promotions: int = 0
    #: PE cycles run on a compiled binding, added when each run ends.
    compiled_cycles: int = 0


STATS = JitStats()

#: (program, config, params) -> the module live PEs hold for it.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

#: Why generated block runs returned control: reason -> count.  Filled
#: by the :func:`_counted_run` wrapper around every compiled ``run``;
#: surfaced via :func:`block_exit_counts`, the
#: :class:`~repro.obs.metrics.MetricsRegistry` snapshot, and the serve
#: tier's ``GET /metrics``.
BLOCK_EXITS: dict[str, int] = {}


def _counted_run(raw_run: Callable[..., int]) -> Callable[..., int]:
    """Wrap a generated block entry point with exit-reason accounting.

    The generated ``run`` has no hook to report *why* it stopped, so the
    reason is inferred from the PE's state and counters around the call,
    one dict update per block entry (amortized over the cycles the block
    ran).  The wrapper keeps the positional signature the fused system
    loop uses and stays a plain function so ``__get__`` binding in
    ``PipelinedPE`` works unchanged.
    """

    def run(pe, budget, idle_streak, stall_limit, stop_on_dequeue):
        counters = pe.counters
        cycles, dequeues = counters.cycles, counters.dequeues
        try:
            streak = raw_run(pe, budget, idle_streak, stall_limit,
                             stop_on_dequeue)
        except Exception:
            BLOCK_EXITS["error"] = BLOCK_EXITS.get("error", 0) + 1
            raise
        if pe.halted:
            reason = "halt"
        elif streak >= stall_limit:
            reason = "stall"
        elif counters.cycles - cycles >= budget:
            reason = "budget"
        elif stop_on_dequeue and counters.dequeues != dequeues:
            # The block stops at the end of the first cycle that staged
            # an enqueue or, with ``stop_on_dequeue``, consumed input; a
            # cycle that did both counts as a dequeue.
            reason = "dequeue"
        else:
            reason = "enqueue"
        BLOCK_EXITS[reason] = BLOCK_EXITS.get(reason, 0) + 1
        return streak

    return run


def _issue(pe, c, s_):
    """Issue slot ``s_``: the new pipeline entry, and the in-flight queue
    bookings the status views read.  The fire site applies the slot's
    predicate update and offers its prediction itself."""
    m_ = pe._dp_meta[s_]
    e = pe._pipe[0] = _InFlight(pe.instructions[s_], m_, s_, pe._next_seq, 0)
    pe._next_seq += 1
    c.issued += 1
    pe.recent_fires.append((c.cycles, s_))
    if m_.deq or m_.out_queue >= 0:
        qs = pe._queue_state
        for q_ in m_.deq:
            qs.pending_deqs[q_] += 1
            qs.sched_deqs[q_] += 1
        if m_.out_queue >= 0:
            qs.pending_enqs[m_.out_queue] += 1
    return e


def _namespace() -> dict[str, Any]:
    """Globals injected into every generated module."""
    return {
        "_issue": _issue,
        # The *class* function — calling it with a PE positionally runs
        # one pure-interpreter cycle regardless of any instance binding.
        "_INTERP_STEP": PipelinedPE.step,
    }


def acquire(pe) -> JitProgram:
    """The compiled module for ``pe``'s loaded program and config.

    Returns the module a live PE already holds for the same content, or
    compiles one.  The caller holds the returned object for as long as
    the PE runs compiled; dropping the last reference releases it.
    """
    key = (tuple(pe.instructions), pe.config, pe.params)
    program = _LIVE.get(key)
    if program is not None:
        STATS.hits += 1
        return program
    STATS.misses += 1
    started = time.perf_counter()
    source = _Codegen(pe._lowering, pe.config).generate()
    namespace = _namespace()
    exec(compile(source, f"<jit:{pe.config.name}>", "exec"), namespace)
    program = JitProgram(namespace["step"], _counted_run(namespace["run"]))
    weakref.finalize(program, namespace.clear)
    _LIVE[key] = program
    STATS.compile_seconds += time.perf_counter() - started
    return program


def reset_metrics() -> None:
    """Zero the counters and block-exit tallies (live modules stay)."""
    vars(STATS).update(vars(JitStats()))
    BLOCK_EXITS.clear()


def block_exit_counts() -> dict[str, int]:
    """Block-run exit reasons recorded since the last reset."""
    return dict(sorted(BLOCK_EXITS.items()))


def jit_metrics() -> dict[str, Any]:
    """One JSON-ready dict: counters, live modules, block-exit reasons."""
    return {**asdict(STATS), "entries": len(_LIVE),
            "block_exits": block_exit_counts()}
