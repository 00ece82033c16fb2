"""Tagged register queues — the operand channels between PEs.

Each queue entry carries a data word plus a small tag encoding semantic
information (datatype, end-of-stream, control messages...).  Queues are
the paper's communication substrate: a producer PE's output queue is the
consumer PE's input queue.

To keep multi-PE simulation deterministic regardless of the order PEs are
stepped in, enqueues are *staged*: :meth:`enqueue` buffers the entry and
:meth:`commit` (called by the system at the end of each cycle) makes it
visible to the consumer.  This models the one-cycle channel traversal of
a physical register queue.  Dequeues act immediately — the consumer owns
the head of the queue.

Capacity accounting counts staged entries, so a producer can never
oversubscribe a queue within a cycle.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import NamedTuple

from repro.errors import QueueError


class QueueEntry(NamedTuple):
    """One word travelling through a channel.

    A named tuple, cheap to build once per token; it equals the plain
    ``(value, tag)`` pair :meth:`TaggedQueue.arch_state` holds.
    """

    value: int
    tag: int = 0


class TaggedQueue:
    """A bounded FIFO of tagged words with staged enqueue."""

    #: Observability seam: a :class:`repro.obs.events.Telemetry` sink, or
    #: ``None``.  A class attribute so uninstrumented queues carry no
    #: per-instance storage; attaching telemetry shadows it per instance.
    telemetry = None

    def __init__(self, capacity: int, name: str = "") -> None:
        if capacity <= 0:
            raise QueueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._live: deque[QueueEntry] = deque()
        self._staged: list[QueueEntry] = []
        #: Monotonic change counter, bumped by every mutation of the
        #: contents.  It keys the :meth:`arch_state` memo and nothing
        #: else.
        self.version = 0
        # arch_state() as of version _arch_version.
        self._arch: tuple = ((), ())
        self._arch_version = 0

    # -- producer side --------------------------------------------------

    @property
    def free_slots(self) -> int:
        """Slots available for new enqueues (staged entries already count)."""
        return self.capacity - len(self._live) - len(self._staged)

    @property
    def is_full(self) -> bool:
        return self.free_slots == 0

    def enqueue(self, value: int, tag: int = 0) -> None:
        """Stage an entry; it becomes visible after the next commit."""
        if len(self._live) + len(self._staged) >= self.capacity:
            raise QueueError(
                f"enqueue to full queue {self.name!r} "
                f"(capacity {self.capacity}, live {len(self._live)}, "
                f"staged {len(self._staged)})",
                queue_name=self.name,
            )
        self._staged.append(QueueEntry(value, tag))
        self.version += 1
        if self.telemetry is not None:
            self.telemetry.emit("enqueue", self.name, value=value, tag=tag)

    # -- consumer side --------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Entries currently visible to the consumer."""
        return len(self._live)

    @property
    def is_empty(self) -> bool:
        return not self._live

    def peek(self, depth: int = 0) -> QueueEntry:
        """Inspect the entry ``depth`` positions behind the head.

        ``depth = 0`` is the head, ``depth = 1`` the "neck" that the
        effective-queue-status scheduler inspects when a dequeue is in
        flight (Section 5.3).
        """
        if depth >= len(self._live):
            raise QueueError(
                f"peek depth {depth} on queue {self.name!r} with "
                f"occupancy {len(self._live)}",
                queue_name=self.name,
            )
        return self._live[depth]

    def dequeue(self) -> QueueEntry:
        """Remove and return the head entry (takes effect immediately)."""
        if not self._live:
            raise QueueError(
                f"dequeue from empty queue {self.name!r} "
                f"(capacity {self.capacity}, staged {len(self._staged)})",
                queue_name=self.name,
            )
        self.version += 1
        entry = self._live.popleft()
        if self.telemetry is not None:
            self.telemetry.emit(
                "dequeue", self.name, value=entry.value, tag=entry.tag
            )
        return entry

    # -- simulation control ----------------------------------------------

    def commit(self) -> None:
        """Make staged enqueues visible.  Called once per cycle."""
        if self._staged:
            self._live.extend(self._staged)
            self._staged.clear()
            self.version += 1

    def reset(self) -> None:
        self._live.clear()
        self._staged.clear()
        self.version += 1

    # -- fault injection --------------------------------------------------
    #
    # Direct mutations of live entries, used by the resilience layer to
    # model upsets in the physical queue storage.  Every mutator bumps
    # ``version``, so the memoized :meth:`arch_state` never reports the
    # contents from before the upset.

    def inject_tag_flip(self, position: int, bit: int) -> bool:
        """Flip one bit of the tag ``position`` entries behind the head."""
        if position >= len(self._live):
            return False
        entry = self._live[position]
        self._live[position] = QueueEntry(entry.value, entry.tag ^ (1 << bit))
        self.version += 1
        return True

    def inject_value_flip(self, position: int, bit: int) -> bool:
        """Flip one bit of the data word ``position`` entries behind the head."""
        if position >= len(self._live):
            return False
        entry = self._live[position]
        self._live[position] = QueueEntry(entry.value ^ (1 << bit), entry.tag)
        self.version += 1
        return True

    def inject_drop(self, position: int = 0) -> bool:
        """Silently lose one live entry (a dropped token)."""
        if position >= len(self._live):
            return False
        del self._live[position]
        self.version += 1
        return True

    def inject_duplicate(self, position: int = 0) -> bool:
        """Duplicate one live entry in place (a replayed token).

        Refuses when the queue has no physical slot free — queue storage
        cannot hold more words than it has flops.
        """
        if position >= len(self._live) or self.free_slots <= 0:
            return False
        self._live.insert(position, self._live[position])
        self.version += 1
        return True

    def drain(self) -> list[QueueEntry]:
        """Remove and return every visible entry (host-side helper)."""
        items = list(self._live)
        if items:
            self._live.clear()
            self.version += 1
        return items

    def arch_state(self) -> tuple:
        """Canonical hashable contents: ``(live, staged)`` value/tag pairs.

        The bounded model checker's state encoding; restore with
        :meth:`restore_arch`.  Capacity and name are configuration, not
        state, so they are not included.  Memoized on ``version``, which
        every mutator bumps.
        """
        if self._arch_version != self.version:
            self._arch = (
                tuple((entry.value, entry.tag) for entry in self._live),
                tuple((entry.value, entry.tag) for entry in self._staged),
            )
            self._arch_version = self.version
        return self._arch

    def restore_arch(self, state: tuple) -> None:
        """Restore an :meth:`arch_state` snapshot (bumps ``version``, as
        every mutation does)."""
        live, staged = state
        self._live.clear()
        self._live.extend(QueueEntry(value, tag) for value, tag in live)
        self._staged[:] = [QueueEntry(value, tag) for value, tag in staged]
        self.version += 1
        self._arch = state
        self._arch_version = self.version

    def entries(self) -> tuple[QueueEntry, ...]:
        """Non-destructive view of every pending entry, live then staged.

        Tooling helper (static analyzer, forensics): what would flow
        through this channel if nothing else were enqueued.
        """
        return tuple(self._live) + tuple(self._staged)

    def snapshot(self) -> dict:
        """Forensic view of the queue: occupancy plus head and neck entries.

        The "neck" (second entry) is what the effective-queue-status
        scheduler inspects when a dequeue is in flight, so a forensic
        dump needs both.
        """
        def entry(depth: int) -> tuple[int, int] | None:
            if depth >= len(self._live):
                return None
            e = self._live[depth]
            return (e.value, e.tag)

        return {
            "name": self.name,
            "occupancy": len(self._live),
            "staged": len(self._staged),
            "capacity": self.capacity,
            "head": entry(0),
            "neck": entry(1),
        }

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        return (
            f"TaggedQueue({self.name!r}, occ={len(self._live)}, "
            f"staged={len(self._staged)}, cap={self.capacity})"
        )


def restore_queues(queues: list[TaggedQueue], states: tuple,
                   held: tuple | None = None) -> None:
    """:meth:`TaggedQueue.restore_arch` each queue to its entry of
    ``states``.

    ``held`` is the :meth:`TaggedQueue.arch_state` tuple the queues hold
    now; given it, a queue whose entry is unchanged is left alone.
    """
    for queue, state, now in zip(queues, states, held or repeat(None)):
        if state != now:
            queue.restore_arch(state)
