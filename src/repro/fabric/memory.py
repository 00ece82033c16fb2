"""System memory and its queue-endpoint ports.

Main-memory operations in this architecture travel over the ordinary
communication queues, with read and write ports acting as channel
endpoints (Section 2.2, after prior work on distributed memory
operations).  The paper's testbed serves all data from on-chip memory
with a fixed four-cycle load latency, which these ports reproduce:

* :class:`MemoryReadPort` — dequeues an address from its request queue
  each cycle and, ``latency`` cycles later, enqueues the loaded word on
  its response queue.  Requests are pipelined (initiation interval 1).
* :class:`MemoryWritePort` — dequeues an (address, data) pair from its
  two request queues when both are available and commits the store.

Tags on the request are propagated to the response, so programs can
thread semantic information (e.g. end-of-stream) through memory replies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.arch.queue import TaggedQueue
from repro.errors import SimMemoryError


class Memory:
    """Word-addressed system memory of ``size_words`` words.

    Words are stored sparsely, so a fabric pays only for the words its
    workload touches; a word never written reads 0.
    """

    def __init__(self, size_words: int, word_mask: int = 0xFFFFFFFF) -> None:
        if size_words <= 0:
            raise SimMemoryError(f"memory size must be positive, got {size_words}")
        self._size = size_words
        self._words: dict[int, int] = {}
        self._word_mask = word_mask
        self.loads = 0
        self.stores = 0

    def load(self, address: int) -> int:
        self._check(address)
        self.loads += 1
        return self._words.get(address, 0)

    def store(self, address: int, value: int) -> None:
        self._check(address)
        self.stores += 1
        self._words[address] = value & self._word_mask

    def preload(self, values: list[int], base: int = 0) -> None:
        """Host-side bulk initialization (data buffers for a benchmark)."""
        if base < 0 or base + len(values) > self._size:
            raise SimMemoryError(
                f"preload of {len(values)} words at {base} exceeds memory size"
            )
        mask = self._word_mask
        self._words.update(
            (base + offset, value & mask) for offset, value in enumerate(values))

    def dump(self, base: int, count: int) -> list[int]:
        self._check(base)
        if count < 0 or base + count > self._size:
            raise SimMemoryError(f"dump of {count} words at {base} exceeds memory size")
        word = self._words.get
        return [word(address, 0) for address in range(base, base + count)]

    def _check(self, address: int) -> None:
        if not 0 <= address < self._size:
            raise SimMemoryError(
                f"memory address {address} out of range 0..{self._size - 1}"
            )

    def __len__(self) -> int:
        return self._size


@dataclass
class _InFlightLoad:
    ready_at: int
    value: int
    tag: int


class MemoryReadPort:
    """A pipelined load endpoint: address queue in, data queue out."""

    #: Observability seam (``port_grant`` events); ``None`` when off.
    telemetry = None

    def __init__(self, memory: Memory, latency: int = 4, name: str = "rdport") -> None:
        if latency < 1:
            raise SimMemoryError("read latency must be at least one cycle")
        self.memory = memory
        self.latency = latency
        self.name = name
        self.request: TaggedQueue | None = None   # wired by the System
        self.response: TaggedQueue | None = None
        self._in_flight: deque[_InFlightLoad] = deque()
        self._now = 0

    def step(self) -> None:
        """One cycle: retire due responses, accept one new request."""
        self._now += 1
        # Retire the oldest response if due and there is space downstream.
        if (
            self._in_flight
            and self._in_flight[0].ready_at <= self._now
            and self.response is not None
            and not self.response.is_full
        ):
            load = self._in_flight.popleft()
            self.response.enqueue(load.value, load.tag)
        # Accept a new request.  Loads are performed at acceptance (the
        # memory is static during flight), the response waits out latency.
        # Avoid unbounded buildup: only accept when the in-flight window
        # still has room for this load's eventual response.
        if (self.request is not None and not self.request.is_empty
                and len(self._in_flight) < self.latency):
            entry = self.request.dequeue()
            self._in_flight.append(
                _InFlightLoad(
                    ready_at=self._now + self.latency,
                    value=self.memory.load(entry.value),
                    tag=entry.tag,
                )
            )
            if self.telemetry is not None:
                self.telemetry.emit(
                    "port_grant", self.name, op="load",
                    address=entry.value, tag=entry.tag,
                )

    @property
    def idle(self) -> bool:
        return not self._in_flight and (self.request is None or self.request.is_empty)


class MemoryWritePort:
    """A store endpoint: address queue and data queue in.

    ``stream``-style workloads drive the two queues from different PEs;
    single-PE workloads interleave address and data words themselves.
    """

    #: Observability seam (``port_grant`` events); ``None`` when off.
    telemetry = None

    def __init__(self, memory: Memory, name: str = "wrport") -> None:
        self.memory = memory
        self.name = name
        self.address: TaggedQueue | None = None   # wired by the System
        self.data: TaggedQueue | None = None
        self.stores_accepted = 0

    def step(self) -> None:
        """Commit one store per cycle when both operands are available."""
        if (
            self.address is not None
            and self.data is not None
            and not self.address.is_empty
            and not self.data.is_empty
        ):
            address = self.address.dequeue()
            data = self.data.dequeue()
            self.memory.store(address.value, data.value)
            self.stores_accepted += 1
            if self.telemetry is not None:
                self.telemetry.emit(
                    "port_grant", self.name, op="store",
                    address=address.value, value=data.value,
                )

    @property
    def idle(self) -> bool:
        return (
            (self.address is None or self.address.is_empty)
            and (self.data is None or self.data.is_empty)
        )
