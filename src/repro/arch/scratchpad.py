"""PE-local scratchpad memory (word addressed)."""

from __future__ import annotations

from repro.errors import SimMemoryError
from repro.params import ArchParams


class Scratchpad:
    """A small word-addressed local store for ``lsw`` / ``ssw``."""

    def __init__(self, params: ArchParams) -> None:
        self._params = params
        self._words = [0] * params.scratchpad_words
        # nonzero() until the next write; None when stale.
        self._nonzero: tuple | None = ()

    def load(self, address: int) -> int:
        self._check(address)
        return self._words[address]

    def store(self, address: int, value: int) -> None:
        self._check(address)
        self._words[address] = value & self._params.word_mask
        self._nonzero = None

    def preload(self, values: list[int], base: int = 0) -> None:
        """Host-side bulk initialization (the userspace library's role)."""
        if base < 0 or base + len(values) > len(self._words):
            raise SimMemoryError(
                f"preload of {len(values)} words at {base} exceeds scratchpad "
                f"size {len(self._words)}"
            )
        for offset, value in enumerate(values):
            self._words[base + offset] = value & self._params.word_mask
        self._nonzero = None

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """``(address, word)`` for every non-zero word, by address.

        The checker's scratchpad encoding; restore with :meth:`restore`.
        Memoized until the next write.
        """
        if self._nonzero is None:
            self._nonzero = tuple(
                (address, word)
                for address, word in enumerate(self._words)
                if word
            )
        return self._nonzero

    def restore(self, nonzero: tuple, held: tuple | None = None) -> None:
        """Make a :meth:`nonzero` snapshot the whole contents.

        ``held`` is the :meth:`nonzero` value the scratchpad holds now;
        given it, only the words it names are cleared, not all of them.
        """
        words = self._words
        if held is None:
            words[:] = [0] * len(words)
        else:
            for address, _word in held:
                words[address] = 0
        for address, word in nonzero:
            words[address] = word
        self._nonzero = nonzero

    def dump(self, base: int = 0, count: int | None = None) -> list[int]:
        if count is None:
            count = len(self._words) - base
        self._check(base)
        self._check(base + count - 1)
        return self._words[base:base + count]

    def reset(self) -> None:
        for i in range(len(self._words)):
            self._words[i] = 0
        self._nonzero = ()

    def _check(self, address: int) -> None:
        if not 0 <= address < len(self._words):
            raise SimMemoryError(
                f"scratchpad address {address} out of range "
                f"0..{len(self._words) - 1}"
            )

    def __len__(self) -> int:
        return len(self._words)
