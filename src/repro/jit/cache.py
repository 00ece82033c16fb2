"""Compiled PE cycles: one per generated body, kept for the process.

:func:`acquire` returns the generated cycle function
(:mod:`repro.jit.codegen`) for a pipeline config, compiling its module
on first use.  The function takes the PE as its argument, holds no
per-PE state and reads the program only through the PE, so every PE of
a config — whatever its program and parameters — shares the one
function, and so does every config with the same body
(:func:`~repro.jit.codegen.body_name`: the queue-status policy never
reaches the generated walk).  The 48 configs have 16 bodies, so the
process keeps at most that many modules; it never releases them.

:func:`run_block` is the block loop of the quiescent-sibling rule of
:meth:`System.run <repro.fabric.system.System.run>`: it runs a compiled
PE's cycles back to back and records why it stopped.

:func:`jit_metrics` reports the process-wide counters: modules compiled
(``misses``, one per body) and shared (``hits``, every other bind),
compile seconds, modules held (``entries``), and why block runs
returned control.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.arch.scheduler import NONE_TRIGGERED, TriggerKind
from repro.jit.codegen import body_name, generate_source
from repro.pipeline.config import PipelineConfig


@dataclass
class JitStats:
    #: Binds served by a module compiled earlier in the process.
    hits: int = 0
    #: Modules compiled.
    misses: int = 0
    compile_seconds: float = 0.0


STATS = JitStats()

#: Body name -> its compiled cycle, for the life of the process.
_MODULES: dict[str, Callable[..., bool]] = {}

#: Why block runs returned control: reason -> count.  Filled by
#: :func:`run_block`; surfaced via :func:`block_exit_counts`, the
#: :class:`~repro.obs.metrics.MetricsRegistry` snapshot, and the serve
#: tier's ``GET /metrics``.
BLOCK_EXITS: dict[str, int] = {}


def acquire(config: PipelineConfig) -> Callable[..., bool]:
    """The compiled cycle for ``config``'s body, compiled on first use."""
    name = body_name(config)
    cycle = _MODULES.get(name)
    if cycle is not None:
        STATS.hits += 1
        return cycle
    STATS.misses += 1
    started = time.perf_counter()
    namespace: dict[str, Any] = {
        "_NONE_TRIGGERED": NONE_TRIGGERED,
        "_FIRED": TriggerKind.FIRED,
        "_HAZARD": TriggerKind.PREDICATE_HAZARD,
    }
    exec(compile(generate_source(config), f"<jit:{name}>", "exec"),
         namespace)
    cycle = _MODULES[name] = namespace["cycle"]
    STATS.compile_seconds += time.perf_counter() - started
    return cycle


def run_block(pe, budget: int, idle_streak: int, stall_limit: int,
              stop_on_dequeue: bool) -> int:
    """Run up to ``budget`` cycles of compiled ``pe`` back to back and
    return the updated idle streak.

    It stops early on halt, at the end of any cycle that enqueued (after
    committing it), on any dequeue when ``stop_on_dequeue`` is set (so a
    sibling blocked on a full channel is re-evaluated the cycle after
    space appears, exactly as under interleaved stepping), or when the
    streak reaches ``stall_limit``.  Its one caller,
    :meth:`System.run <repro.fabric.system.System.run>`, enters it only
    for fabrics with no fault hook, telemetry sink or invariant
    checker, so each cycle is :meth:`PipelinedPE.step
    <repro.pipeline.core.PipelinedPE.step>` without its hook tests and
    needs no cycle-boundary call; it enters after its channel-commit
    pass, so no queue holds a staged entry at entry and only this PE's
    enqueues can stage one.

    Each run adds one exit reason to :data:`BLOCK_EXITS`, the first that
    holds of halt, stall, budget, dequeue and enqueue (a cycle that both
    enqueued and dequeued counts as a dequeue), or ``error`` when a
    cycle raised.
    """
    cycle = pe._jit
    c = pe.counters
    cycles, enqueues, dequeues = c.cycles, c.enqueues, c.dequeues
    try:
        for _ in range(budget):
            if pe.halted:
                break
            c.cycles += 1
            if cycle(pe):
                idle_streak = 0
                if c.enqueues != enqueues:
                    pe.commit_queues()
                    break
            else:
                idle_streak += 1
                if idle_streak >= stall_limit:
                    break
            if stop_on_dequeue and c.dequeues != dequeues:
                break
    except Exception:
        BLOCK_EXITS["error"] = BLOCK_EXITS.get("error", 0) + 1
        raise
    if pe.halted:
        reason = "halt"
    elif idle_streak >= stall_limit:
        reason = "stall"
    elif c.cycles - cycles >= budget:
        reason = "budget"
    elif stop_on_dequeue and c.dequeues != dequeues:
        reason = "dequeue"
    else:
        reason = "enqueue"
    BLOCK_EXITS[reason] = BLOCK_EXITS.get(reason, 0) + 1
    return idle_streak


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
