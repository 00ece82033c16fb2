"""Exception hierarchy for the repro package.

Every error raised by the toolchain, the simulators, and the VLSI model
derives from :class:`ReproError`, so callers can catch one base class.

Simulation errors carry *attribution*: the fabric annotates any error
escaping a PE's ``step`` with the PE name and the system cycle number
(:func:`attribute_error`), so a failure deep inside a multi-PE campaign
points at the offending PE without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ReproError):
    """An architectural parameter is out of its legal range."""


class EncodingError(ReproError):
    """An instruction cannot be encoded or decoded."""


class AssemblerError(ReproError):
    """A triggered-assembly source program is malformed.

    Carries optional source coordinates so messages point at the offending
    line of assembly.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f":{column}"
            message = f"{where}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """The simulated machine reached an illegal state.

    ``pe_name`` and ``cycle`` are filled in by :func:`attribute_error`
    when the error crosses a fabric or PE boundary that knows them.
    """

    pe_name: str | None = None
    cycle: int | None = None


class QueueError(SimulationError):
    """Illegal queue operation (dequeue from empty, enqueue to full).

    ``queue_name`` identifies the offending channel (queue names embed
    the owning PE and port, e.g. ``"worker.i0"`` or
    ``"a.o1->b.i0"``).
    """

    def __init__(self, message: str, queue_name: str | None = None):
        self.queue_name = queue_name
        super().__init__(message)


class SimMemoryError(SimulationError):
    """Out-of-bounds or otherwise illegal memory access."""


#: Deprecated alias — the historical name shadow-punned Python's builtin
#: ``MemoryError``.  Use :class:`SimMemoryError`.
MemoryError_ = SimMemoryError


class InvariantViolation(SimulationError):
    """A runtime architectural invariant failed (resilience checker).

    Raised by :class:`repro.resilience.invariants.InvariantChecker` when
    per-cycle checking is enabled; indicates state corruption that the
    normal error paths did not catch.
    """


class DeadlockError(SimulationError):
    """The system made no architectural progress (or timed out).

    Carries a structured forensic ``report`` (per-PE predicate state,
    queue occupancies with head/neck tags, in-flight pipeline registers,
    last-triggered instructions) in addition to the formatted message.
    """

    def __init__(self, message: str, report: dict | None = None):
        self.report = report if report is not None else {}
        super().__init__(message)


class ConfigError(ReproError):
    """An illegal microarchitecture or system configuration."""


class SynthesisError(ReproError):
    """A VLSI design point is infeasible (e.g. target frequency > f_max)."""


class CampaignError(ReproError):
    """A campaign task failed permanently.

    ``worker_traceback`` preserves the original traceback text from the
    worker process, which would otherwise reduce to a bare exception
    repr at the process boundary.
    """

    def __init__(self, message: str, worker_traceback: str | None = None):
        self.worker_traceback = worker_traceback
        if worker_traceback:
            message = f"{message}\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)


class WorkerTraceback(Exception):
    """Carrier for a worker process's original traceback text.

    Set as the ``__cause__`` of the :class:`CampaignError` a failed
    campaign task raises, so the worker-side traceback survives the
    pickle boundary *in the exception chain* (the same trick
    ``concurrent.futures`` uses with ``_RemoteTraceback``) — ``raise``
    displays the original frames under "direct cause" instead of
    flattening them into message text only.
    """

    def __init__(self, tb: str) -> None:
        self.tb = tb
        super().__init__(tb)

    def __str__(self) -> str:
        return f"\n{self.tb}"


def attribute_error(
    exc: SimulationError, pe_name: str | None = None, cycle: int | None = None
) -> SimulationError:
    """Attach PE/cycle attribution to an in-flight simulation error.

    Idempotent: the first attribution wins (the innermost frame knows the
    precise coordinates) and the message is only extended once.
    """
    if exc.pe_name is None and pe_name is not None:
        exc.pe_name = pe_name
    if exc.cycle is None and cycle is not None:
        exc.cycle = cycle
    if not getattr(exc, "_attributed", False) and exc.args:
        tags = []
        if exc.pe_name is not None:
            tags.append(f"pe={exc.pe_name}")
        if exc.cycle is not None:
            tags.append(f"cycle={exc.cycle}")
        if tags:
            exc.args = (f"{exc.args[0]} [{', '.join(tags)}]",) + exc.args[1:]
            exc._attributed = True
    return exc
