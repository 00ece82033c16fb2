"""General-purpose data register file."""

from __future__ import annotations

from repro.errors import SimulationError
from repro.params import ArchParams


class RegisterFile:
    """``NRegs`` word-wide registers, initialized to zero.

    ``words`` is the storage.  The PEs' datapaths read and write it
    directly, at indices :func:`~repro.arch.trigger_cache.lower_program`
    has validated, with words the ALU has already masked; :meth:`read`
    and :meth:`write` range-check for fault injection, host code and
    tests.  The list object lives as long as the file.
    """

    def __init__(self, params: ArchParams) -> None:
        self.words = [0] * params.num_regs
        # A property on ArchParams; flattened once for the write path.
        self._word_mask = params.word_mask

    def read(self, index: int) -> int:
        if not 0 <= index < len(self.words):
            raise SimulationError(f"read of register %r{index} out of range")
        return self.words[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < len(self.words):
            raise SimulationError(f"write of register %r{index} out of range")
        self.words[index] = value & self._word_mask

    def reset(self) -> None:
        for i in range(len(self.words)):
            self.words[i] = 0

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.words)

    def restore(self, values: tuple[int, ...]) -> None:
        """Restore a :meth:`snapshot`."""
        self.words[:] = values

    def __len__(self) -> int:
        return len(self.words)
