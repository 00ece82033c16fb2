"""``bst`` — Table 3: a single PE accesses memory to traverse a binary
search tree with nodes generated from random numbers (to increase branch
entropy), storing the Boolean result of each search back to memory.

This is the paper's reference workload for VLSI activity extraction —
among the single-PE workloads it has the most balanced mix of I/O channel
use, computation and memory-access delay (Section 3).

Memory layout (word addressed)::

    [0 .. n)        search keys
    [n .. 2n)       results (1 = found)
    [2n .. ...)     tree nodes, three words each: value, left, right

The null pointer is ``0xFFFFFFFF`` so that address 0 stays usable.  The
worker uses two read ports (keys and nodes) and keeps the current key at
the head of its key queue during the whole traversal — comparisons read
both queue heads directly, exercising ``MaxDeq = 2`` dequeues on a hit.
"""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program

_NULL = -1  # encodes as 0xFFFFFFFF


class _GoldenTree:
    """Array-backed reference BST matching the PE's memory layout."""

    def __init__(self, values: list[int], base: int) -> None:
        self.base = base
        self.words: list[int] = []
        for value in values:
            self._insert(value)

    def _insert(self, value: int) -> None:
        node = len(self.words)
        if not self.words:
            self.words += [value, _NULL & 0xFFFFFFFF, _NULL & 0xFFFFFFFF]
            return
        current = 0
        while True:
            node_value = self.words[current]
            slot = current + 1 if value < node_value else current + 2
            if self.words[slot] == _NULL & 0xFFFFFFFF:
                self.words[slot] = self.base + len(self.words)
                self.words += [value, _NULL & 0xFFFFFFFF, _NULL & 0xFFFFFFFF]
                return
            current = self.words[slot] - self.base

    def contains(self, key: int) -> bool:
        if not self.words:
            return False
        current = 0
        while True:
            value = self.words[current]
            if key == value:
                return True
            slot = current + 1 if key < value else current + 2
            if self.words[slot] == _NULL & 0xFFFFFFFF:
                return False
            current = self.words[slot] - self.base


def _inputs(scale: int, seed: int) -> tuple[list[int], list[int]]:
    """(tree values, search keys): half the keys hit, half miss."""
    rng = random.Random(seed ^ 0x627374)
    n = max(4, scale)
    universe = rng.sample(range(1, 1 << 24), 2 * n)
    values = universe[:n]
    keys = [rng.choice(values) if rng.random() < 0.5 else rng.choice(universe[n:])
            for _ in range(n)]
    return values, keys


@cached_program
def bst_program(params, num_keys: int, root_addr: int):
    """The 16-instruction traversal worker (fills the PE exactly)."""
    b = ProgramBuilder(params, start_state="key_cmp")
    b.add(state="key_cmp", op=f"ult %p1, %r0, ${num_keys}", next="key_act",
          comment="more keys?  r0 is the key address")
    b.add(state="key_act", flags={1: False}, op="halt")
    b.add(state="key_act", flags={1: True}, op="mov %o0.0, %r0", next="root0",
          comment="request the key (port A); it stays queued all traversal")
    b.add(state="root0", op=f"mov %r2, ${root_addr}", next="adv",
          comment="node = root")
    b.add(state="adv", op="add %r0, %r0, $1", next="node_test",
          comment="advance the key cursor early")
    b.add(state="node_test", op=f"eq %p2, %r2, ${_NULL}", next="node_br",
          comment="reached a null pointer?")
    b.add(state="node_br", flags={2: True},
          op=f"add %o1.0, %r0, ${num_keys - 1}", deq=["%i0"], next="store_miss",
          comment="miss: store address (results follow keys); drop the key")
    b.add(state="store_miss", op="mov %o2.0, $0", next="key_cmp")
    b.add(state="node_br", flags={2: False}, op="mov %o3.0, %r2", next="val_wait",
          comment="request node value (port B)")
    b.add(state="val_wait", op="eq %p3, %i0, %i1", next="hit_br",
          comment="key == node value?  (both read in place)")
    b.add(state="hit_br", flags={3: True},
          op=f"add %o1.0, %r0, ${num_keys - 1}", deq=["%i0", "%i1"],
          next="store_hit", comment="hit: store address; drop key and value")
    b.add(state="store_hit", op="mov %o2.0, $1", next="key_cmp")
    b.add(state="hit_br", flags={3: False}, op="ult %p1, %i0, %i1",
          deq=["%i1"], next="child_br", comment="descend left or right?")
    b.add(state="child_br", flags={1: True}, op="add %o3.0, %r2, $1",
          next="child_wait", comment="request left pointer")
    b.add(state="child_br", flags={1: False}, op="add %o3.0, %r2, $2",
          next="child_wait", comment="request right pointer")
    b.add(state="child_wait", op="mov %r2, %i1", deq=["%i1"], next="node_test",
          comment="node = child pointer")
    return b.program(name="bst")


class BstWorkload(Workload):
    name = "bst"
    description = (
        "Single PE traverses a randomized binary search tree in memory and "
        "stores the Boolean result of each search."
    )
    pe_count = 1
    worker_name = "worker"
    default_scale = 128   # number of keys searched (= tree size)

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        values, keys = _inputs(scale, seed)
        n = len(keys)
        node_base = 2 * n
        tree = _GoldenTree(values, node_base)

        system = System()
        worker = make_pe(self.worker_name)
        bst_program(self.params, n, node_base).configure(worker)
        system.add_pe(worker)
        system.add_read_port(worker, request_out=0, response_in=0)   # keys
        system.add_read_port(worker, request_out=3, response_in=1)   # nodes
        system.add_write_port(worker, 1, worker, 2)                  # results
        system.memory.preload(keys, base=0)
        system.memory.preload(tree.words, base=node_base)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        values, keys = _inputs(scale, seed)
        n = len(keys)
        tree = _GoldenTree(values, 2 * n)
        expected = [int(tree.contains(key)) for key in keys]
        got = system.memory.dump(n, n)
        if got != expected:
            bad = next(i for i in range(n) if got[i] != expected[i])
            raise SimulationError(
                f"bst: result[{bad}] for key {keys[bad]} is {got[bad]}, "
                f"expected {expected[bad]}"
            )
