"""Assembled program container."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import is_

from repro.arch.trigger_cache import Lowering, lower_program
from repro.isa.encoding import encode_program
from repro.isa.instruction import Instruction
from repro.params import ArchParams


@dataclass
class Program:
    """One PE's assembled instruction list plus configuration metadata.

    ``initial_predicates`` comes from the optional ``.start %p = ...``
    directive and is applied to the predicate file before execution —
    programs use it to enter their start state.

    ``source`` and ``path`` are diagnostic metadata: the assembler
    records the original source text (and file path, when assembled from
    disk) so tooling — assembler errors, the static analyzer's findings
    — can cite and quote the offending source line.  Both are optional
    and excluded from nothing: hand-built programs simply leave them
    unset.

    The program is lowered (:func:`~repro.arch.trigger_cache.lower_program`)
    once per :class:`~repro.params.ArchParams` it is configured under,
    not once per PE; replacing ``instructions`` or any element of it
    makes the next :meth:`configure` lower again.

    Each workload program builder
    (:func:`~repro.workloads.builder.cached_program`) builds its program
    once per process and hands every caller a :meth:`copy`: the same
    instruction objects, source and lowerings under an instruction list
    of the caller's own.
    """

    instructions: list[Instruction] = field(default_factory=list)
    initial_predicates: int = 0
    name: str = ""
    source: str | None = None
    path: str | None = None
    _lowerings: dict[ArchParams, Lowering] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def source_line(self, line: int) -> str | None:
        """The 1-indexed source line, when source text is attached."""
        if self.source is None or line < 1:
            return None
        lines = self.source.splitlines()
        if line > len(lines):
            return None
        return lines[line - 1]

    def __len__(self) -> int:
        return len(self.instructions)

    def binary(self, params: ArchParams) -> bytes:
        """Encode to the padded binary format (``program.bin``)."""
        return encode_program(self.instructions, params)

    def copy(self) -> Program:
        """This program with an instruction list of its own.

        The copy shares the instruction objects, source text and
        lowerings, so configuring it lowers nothing; replacing one of
        its instructions leaves this program alone.
        """
        twin = replace(self, instructions=list(self.instructions))
        twin._lowerings.update(self._lowerings)
        return twin

    def __getstate__(self) -> dict:
        # Lowerings hold the ALU's semantics callables, which do not
        # pickle; a copy lowers afresh.
        return {**self.__dict__, "_lowerings": {}}

    def lowered(self, params: ArchParams) -> Lowering:
        """This program validated and lowered for ``params``."""
        lowering = self._lowerings.get(params)
        if lowering is not None and not (
            len(lowering.instructions) == len(self.instructions)
            and all(map(is_, lowering.instructions, self.instructions))
        ):
            self._lowerings.clear()
            lowering = None
        if lowering is None:
            lowering = lower_program(self.instructions, params)
            self._lowerings[params] = lowering
        return lowering

    def configure(self, pe) -> None:
        """Load this program onto a PE (functional or pipelined)."""
        pe.load_program(self.lowered(pe.params))
        pe.preds.reset(self.initial_predicates)
        pe._initial_predicates = self.initial_predicates
        # Tooling breadcrumb: the static analyzer recovers the original
        # Program (with its source text) from a programmed PE.
        pe.loaded_program = self
