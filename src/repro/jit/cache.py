"""Compiled PE modules: one per pipeline config, kept for the process.

:func:`acquire` returns the generated module (:mod:`repro.jit.codegen`)
for a pipeline config, compiling it on first use.  The generated
functions take the PE as their first argument, hold no per-PE state and
read the program only through the PE, so every PE of a config — whatever
its program and parameters — shares the one module.  There are 48
configs, so the process keeps at most that many modules; it never
releases them.

:func:`jit_metrics` reports the process-wide counters: modules compiled
(``misses``) and shared (``hits``), compile seconds, modules held
(``entries``), and why block runs returned control.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.arch.scheduler import NONE_TRIGGERED, TriggerKind
from repro.jit.codegen import generate_source
from repro.pipeline.config import PipelineConfig
from repro.pipeline.core import PipelinedPE, _InFlight


class JitProgram:
    """One compiled module's entry points."""

    __slots__ = ("step", "run")

    def __init__(self, step: Callable[..., bool],
                 run: Callable[..., int]) -> None:
        self.step = step
        self.run = run


@dataclass
class JitStats:
    #: Binds served by a module compiled earlier in the process.
    hits: int = 0
    #: Modules compiled.
    misses: int = 0
    compile_seconds: float = 0.0


STATS = JitStats()

#: Pipeline config -> its compiled module, for the life of the process.
_MODULES: dict[PipelineConfig, JitProgram] = {}

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
            # The block stops at the end of the first cycle that
            # enqueued or, with ``stop_on_dequeue``, consumed input; a
            # cycle that did both counts as a dequeue.
            reason = "dequeue"
        else:
            reason = "enqueue"
        BLOCK_EXITS[reason] = BLOCK_EXITS.get(reason, 0) + 1
        return streak

    return run


def _issue(pe, c, s_):
    """Issue slot ``s_``: the new pipeline entry, the slot's issue-time
    predicate update, the in-flight queue bookings the status views
    read, and a pending halt.  The fire site offers the prediction."""
    m_ = pe._dp_meta[s_]
    e = pe._pipe[0] = _InFlight(pe.instructions[s_], m_, s_, pe._next_seq, 0)
    pe._next_seq += 1
    c.issued += 1
    pe.recent_fires.append((c.cycles, s_))
    u_ = m_.pred_update
    if u_.set_mask or u_.clear_mask:   # PredicateFile.apply_update
        p_ = pe.preds
        p_.state = (p_.state | u_.set_mask) & ~u_.clear_mask & p_._mask_all
    if m_.deq or m_.out_queue >= 0:
        qs = pe._queue_state
        for q_ in m_.deq:
            qs.pending_deqs[q_] += 1
            qs.sched_deqs[q_] += 1
        if m_.out_queue >= 0:
            qs.pending_enqs[m_.out_queue] += 1
    if m_.is_halt:
        pe._halt_pending = True
    return e


def acquire(config: PipelineConfig) -> JitProgram:
    """The compiled module for ``config``, compiled on first use."""
    program = _MODULES.get(config)
    if program is not None:
        STATS.hits += 1
        return program
    STATS.misses += 1
    started = time.perf_counter()
    namespace: dict[str, Any] = {
        "_issue": _issue,
        # Deferral for instrumented PEs; looked up per call, so a
        # wrapper installed on the class later is honoured.
        "_PE": PipelinedPE,
        "_NONE_TRIGGERED": NONE_TRIGGERED,
        "_FIRED": TriggerKind.FIRED,
        "_HAZARD": TriggerKind.PREDICATE_HAZARD,
    }
    exec(compile(generate_source(config), f"<jit:{config.name}>", "exec"),
         namespace)
    program = _MODULES[config] = JitProgram(
        namespace["step"], _counted_run(namespace["run"]))
    STATS.compile_seconds += time.perf_counter() - started
    return program


def reset_metrics() -> None:
    """Zero the counters and block-exit tallies (modules stay)."""
    vars(STATS).update(vars(JitStats()))
    BLOCK_EXITS.clear()


def block_exit_counts() -> dict[str, int]:
    """Block-run exit reasons recorded since the last reset."""
    return dict(sorted(BLOCK_EXITS.items()))


def jit_metrics() -> dict[str, Any]:
    """One JSON-ready dict: counters, modules held, block-exit reasons."""
    return {**asdict(STATS), "entries": len(_MODULES),
            "block_exits": block_exit_counts()}
