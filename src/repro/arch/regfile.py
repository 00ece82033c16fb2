"""General-purpose data register file."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.params import ArchParams


class RegisterFile:
    """``NRegs`` word-wide registers, initialized to zero."""

    def __init__(self, params: ArchParams) -> None:
        self._regs = [0] * params.num_regs
        # A property on ArchParams; flattened once for the write path.
        self._word_mask = params.word_mask

    def read(self, index: int) -> int:
        if not 0 <= index < len(self._regs):
            raise SimulationError(f"read of register %r{index} out of range")
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < len(self._regs):
            raise SimulationError(f"write of register %r{index} out of range")
        self._regs[index] = value & self._word_mask

    def reset(self) -> None:
        for i in range(len(self._regs)):
            self._regs[i] = 0

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self._regs)

    def restore(self, values: tuple[int, ...]) -> None:
        """Restore a :meth:`snapshot`."""
        self._regs[:] = values

    def __len__(self) -> int:
        return len(self._regs)
