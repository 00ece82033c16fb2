"""A macro layer for writing triggered-instruction state machines.

Hand-writing predicate guard patterns (``when %p == XXXX0011``) is
error-prone once a program has a dozen states.  This builder lets a
workload be written as named states with flag conditions; it assigns
state encodings to a chosen group of predicate bits and emits ordinary
assembly text, which then goes through the real assembler — so the
output is always legal machine code, inspectable as ``.s`` source.

Example::

    b = ProgramBuilder()
    b.add(state="cmp", op="ult %p1, %r0, %r1", next="act")
    b.add(state="act", flags={1: True}, op="mov %o0.0, %r0", next="inc")
    b.add(state="act", flags={1: False}, op="halt")
    b.add(state="inc", op="add %r0, %r0, $1", next="cmp")
    source = b.source()

Instruction priority is insertion order, exactly as in raw assembly.
Stateless instructions (``state=None``) match any state and are the
idiom for tag-directed forwarding that may fire in every state.

A workload's PE programs depend only on the builder's arguments (the
kernel's scale and the :class:`~repro.params.ArchParams`), never on the
pipeline config or the data seed, so every workload program builder is
wrapped in :func:`cached_program` and each distinct program is built
once per process.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass

from repro.errors import AssemblerError
from repro.params import ArchParams, DEFAULT_PARAMS

_PRED_DST = __import__("re").compile(r"%p(\d+)\b")

#: Most built programs the process keeps; the least recently used goes
#: first.  A scale-24 report uses 18 distinct programs.
PROGRAM_CACHE_SIZE = 128


def cached_program(build):
    """Wrap a program builder so each distinct call builds only once.

    ``build`` returns a :class:`~repro.asm.program.Program` and takes
    the :class:`~repro.params.ArchParams` as its ``params`` argument.
    Calls are keyed on the builder and the arguments as passed.  The
    first call of a key emits, assembles and lowers the program for
    ``params``; every call returns a
    :meth:`~repro.asm.program.Program.copy` of that build, so callers
    share its instructions, source and lowering but may replace
    instructions of their own.  One cache of :data:`PROGRAM_CACHE_SIZE`
    programs serves every builder in the process.
    """

    @functools.wraps(build)
    def cached(*args, **kwargs):
        return _built(build, *args, **kwargs).copy()

    return cached


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE, typed=True)
def _built(build, *args, **kwargs):
    program = build(*args, **kwargs)
    call = inspect.signature(build).bind(*args, **kwargs)
    call.apply_defaults()
    program.lowered(call.arguments["params"])
    return program


def clear_program_cache() -> None:
    """Forget every built program."""
    _built.cache_clear()


@dataclass
class _Entry:
    state: str | None
    flags: dict[int, bool]
    checks: list[str]
    op: str
    deq: list[str]
    next_state: str | None
    set_flags: dict[int, bool]
    comment: str


class ProgramBuilder:
    """Builds triggered assembly from named states and flag conditions."""

    def __init__(
        self,
        params: ArchParams = DEFAULT_PARAMS,
        state_bits: tuple[int, ...] = (7, 6, 5, 4),
        start_state: str | None = None,
    ) -> None:
        self.params = params
        self.state_bits = state_bits
        self._states: dict[str, int] = {}
        self._entries: list[_Entry] = []
        self._start_state = start_state

    # ------------------------------------------------------------------

    def add(
        self,
        op: str,
        state: str | None = None,
        flags: dict[int, bool] | None = None,
        checks: list[str] | None = None,
        deq: list[str] | None = None,
        next: str | None = None,
        set_flags: dict[int, bool] | None = None,
        comment: str = "",
    ) -> None:
        """Append one instruction.

        ``state`` — named state guarding this instruction (None = any).
        ``flags`` — predicate-bit conditions, e.g. ``{1: True}``.
        ``checks`` — trigger tag checks in assembly form (``"%i0.1"``).
        ``deq`` — queues to dequeue (``"%i0"``).
        ``next`` — state to transition to (None = stay).
        ``set_flags`` — extra predicate bits to force at issue.
        """
        for name in (state, next):
            if name is not None and name not in self._states:
                self._states[name] = len(self._states)
        for bit in list((flags or {})) + list((set_flags or {})):
            if bit in self.state_bits:
                raise AssemblerError(
                    f"flag predicate %p{bit} collides with a state bit"
                )
        self._entries.append(
            _Entry(
                state=state,
                flags=dict(flags or {}),
                checks=list(checks or []),
                op=op,
                deq=list(deq or []),
                next_state=next,
                set_flags=dict(set_flags or {}),
                comment=comment,
            )
        )

    # ------------------------------------------------------------------

    def _encoding(self, name: str) -> int:
        code = self._states[name]
        if code >= (1 << len(self.state_bits)):
            raise AssemblerError(
                f"{len(self._states)} states exceed the "
                f"{len(self.state_bits)} state bits"
            )
        return code

    def _guard_pattern(self, entry: _Entry) -> str:
        chars = ["X"] * self.params.num_preds
        if entry.state is not None:
            code = self._encoding(entry.state)
            for position, bit in enumerate(self.state_bits):
                chars[bit] = "1" if (code >> position) & 1 else "0"
        for bit, value in entry.flags.items():
            chars[bit] = "1" if value else "0"
        return "".join(reversed(chars))

    def _set_pattern(self, entry: _Entry) -> str | None:
        chars = ["Z"] * self.params.num_preds
        changed = False
        if entry.next_state is not None:
            code = self._encoding(entry.next_state)
            for position, bit in enumerate(self.state_bits):
                chars[bit] = "1" if (code >> position) & 1 else "0"
            changed = True
        for bit, value in entry.set_flags.items():
            chars[bit] = "1" if value else "0"
            changed = True
        if not changed:
            return None
        # Never force a bit the datapath writes (chars is indexed LSB-first).
        if m := _PRED_DST.match(entry.op.split(None, 1)[-1]):
            bit = int(m.group(1))
            if chars[bit] != "Z":
                raise AssemblerError(
                    f"instruction {entry.op!r} writes %p{bit} but the "
                    f"transition also forces it"
                )
        return "".join(reversed(chars))

    def source(self) -> str:
        """Emit the program as assembly text."""
        lines = []
        if self._start_state is not None:
            code = self._encoding(self._start_state)
            chars = ["0"] * self.params.num_preds
            for position, bit in enumerate(self.state_bits):
                chars[bit] = "1" if (code >> position) & 1 else "0"
            lines.append(".start %p = " + "".join(reversed(chars)))
            lines.append("")
        for entry in self._entries:
            guard = f"when %p == {self._guard_pattern(entry)}"
            if entry.checks:
                guard += " with " + ", ".join(entry.checks)
            guard += ":"
            if entry.comment or entry.state is not None:
                where = entry.state or "*"
                flag_text = "".join(
                    f" p{bit}={int(value)}" for bit, value in entry.flags.items()
                )
                lines.append(f"# [{where}{flag_text}] {entry.comment}")
            lines.append(guard)
            actions = [entry.op]
            set_pattern = self._set_pattern(entry)
            if set_pattern is not None:
                actions.append(f"set %p = {set_pattern}")
            if entry.deq:
                actions.append("deq " + ", ".join(entry.deq))
            lines.append("    " + "; ".join(actions) + ";")
            lines.append("")
        return "\n".join(lines)

    def program(self, name: str = ""):
        """Assemble directly to a :class:`~repro.asm.program.Program`."""
        from repro.asm.assembler import assemble

        return assemble(self.source(), self.params, name=name)
