"""Predicate register file.

``NPreds`` single-bit registers whose state, together with queue status,
drives all control flow.  Two update paths exist:

* the issue-time :class:`~repro.isa.instruction.PredUpdate` force-set /
  force-clear masks (the triggered analogue of ``PC = PC + 4``), which
  the PEs apply to :attr:`PredicateFile.state` from their program's
  lowering (:class:`~repro.arch.trigger_cache.CompiledDatapath`), and
* datapath writes — a comparison or logic result landing in one predicate
  bit at writeback, the triggered analogue of a branch.

Both land in :attr:`PredicateFile.state` directly: the PEs' datapaths
write the bit at an index
:func:`~repro.arch.trigger_cache.lower_program` has validated.
:meth:`PredicateFile.write_bit` and :meth:`~PredicateFile.read_bit`
range-check for fault injection, host code and tests.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.params import ArchParams


class PredicateFile:
    """Bit-addressable predicate state held as one integer mask."""

    def __init__(self, params: ArchParams, initial: int = 0) -> None:
        self._params = params
        self._mask_all = (1 << params.num_preds) - 1
        if initial & ~self._mask_all:
            raise SimulationError(f"initial predicate state {initial:#x} out of range")
        self.state = initial

    def read_bit(self, index: int) -> int:
        self._check(index)
        return (self.state >> index) & 1

    def write_bit(self, index: int, value: int) -> None:
        """Datapath predicate write: any non-zero result sets the bit."""
        self._check(index)
        if value:
            self.state |= 1 << index
        else:
            self.state &= ~(1 << index)

    def reset(self, initial: int = 0) -> None:
        self.state = initial & self._mask_all

    def _check(self, index: int) -> None:
        if not 0 <= index < self._params.num_preds:
            raise SimulationError(f"predicate %p{index} out of range")

    def __repr__(self) -> str:
        return f"PredicateFile({self.state:0{self._params.num_preds}b})"
