"""``string_search`` — Table 3: one PE reads four-byte words from memory
and forwards them to a second PE, which breaks the words into bytes.
Those bytes go to a third PE (the worker) which interprets each as an
ASCII character and scans the stream for the string ``"MICRO"`` using a
small DFA.  The worker emits zeros in all states except the match state,
in which it emits a one — the output array in memory marks the indices
of the occurrences.

The worker keeps its expected-character table in the PE-local scratchpad
(preloaded by the host, exactly the paper toolchain's capability) and
walks it with ``lsw`` — the DFA state is just an index register."""

from __future__ import annotations

import random

from repro.errors import SimulationError
from repro.fabric.system import System
from repro.workloads.base import PEFactory, Workload
from repro.workloads.builder import ProgramBuilder, cached_program
from repro.workloads.common import memory_streamer

_PATTERN = "MICRO"


def _inputs(scale: int, seed: int) -> bytes:
    """Random uppercase text with planted pattern occurrences."""
    rng = random.Random(seed ^ 0x73747273)
    nwords = max(4, scale)
    text = [chr(rng.randrange(65, 91)) for _ in range(4 * nwords)]
    # Plant the pattern every ~40 characters.
    position = 7
    while position + len(_PATTERN) < len(text):
        text[position:position + len(_PATTERN)] = _PATTERN
        position += 40 + rng.randrange(0, 13)
    return "".join(text).encode("ascii")


def _pack_words(text: bytes) -> list[int]:
    """Little-endian packing: byte 0 of the text is bits 7:0 of word 0."""
    words = []
    for offset in range(0, len(text), 4):
        chunk = text[offset:offset + 4]
        words.append(int.from_bytes(chunk.ljust(4, b"\0"), "little"))
    return words


def _golden(text: bytes) -> list[int]:
    """1 at byte positions where a pattern occurrence *completes*."""
    marks = [0] * len(text)
    state = 0
    for position, byte in enumerate(text):
        char = chr(byte)
        if char == _PATTERN[state]:
            state += 1
            if state == len(_PATTERN):
                marks[position] = 1
                state = 0
        else:
            state = 1 if char == _PATTERN[0] else 0
    return marks


@cached_program
def splitter_program(params):
    """Break each 32-bit word into four bytes, LSB first; forward EOS."""
    b = ProgramBuilder(params, start_state="w0")
    b.add(state="w0", checks=["%i0.0"], op="and %o1.0, %i0, $255", next="w1",
          comment="byte 0")
    b.add(state="w1", op="shr %r0, %i0, $8", next="w1b")
    b.add(state="w1b", op="and %o1.0, %r0, $255", next="w2", comment="byte 1")
    b.add(state="w2", op="shr %r1, %r0, $8", next="w2b")
    b.add(state="w2b", op="and %o1.0, %r1, $255", next="w3", comment="byte 2")
    b.add(state="w3", op="shr %r2, %r1, $8", next="w3b")
    b.add(state="w3b", op="and %o1.0, %r2, $255", deq=["%i0"], next="w0",
          comment="byte 3; word consumed")
    b.add(state="w0", checks=["%i0.1"], op="mov %o1.1, %i0", deq=["%i0"],
          next="done", comment="forward the EOS sentinel")
    b.add(state="done", op="halt")
    return b.program(name="splitter")


@cached_program
def dfa_program(params, out_base: int, pattern_len: int):
    """Scratchpad-driven DFA over the byte stream; one output per byte."""
    m_char = ord(_PATTERN[0])
    b = ProgramBuilder(params, start_state="ld")
    b.add(state="ld", op="lsw %r1, %r0", next="cmp",
          comment="expected char for the current DFA state (r0)")
    b.add(state="cmp", checks=["%i0.0"], op="eq %p1, %i0, %r1", next="br")
    b.add(state="br", flags={1: True}, op="add %r0, %r0, $1", deq=["%i0"],
          next="mt", comment="advance the DFA")
    b.add(state="mt", op=f"eq %p2, %r0, ${pattern_len}", next="ea",
          comment="completed a match?")
    b.add(state="ea", op=f"add %o1.0, %r2, ${out_base}", next="ev",
          comment="output address for this byte position")
    b.add(state="ev", flags={2: True}, op="mov %o2.0, $1", next="rst",
          comment="match state: emit one")
    b.add(state="rst", op="mov %r0, $0", next="adv", comment="restart the DFA")
    b.add(state="ev", flags={2: False}, op="mov %o2.0, $0", next="adv")
    b.add(state="adv", op="add %r2, %r2, $1", next="ld")
    b.add(state="br", flags={1: False}, op=f"eq %p3, %i0, ${m_char}",
          deq=["%i0"], next="fb", comment="mismatch: does it restart at 'M'?")
    b.add(state="fb", flags={3: True}, op="mov %r0, $1", next="mt")
    b.add(state="fb", flags={3: False}, op="mov %r0, $0", next="mt")
    b.add(state="cmp", checks=["%i0.1"], op="halt", comment="EOS sentinel")
    return b.program(name="string_search")


class StringSearchWorkload(Workload):
    name = "string_search"
    description = (
        "A word reader, a byte splitter, and a DFA worker PE scanning "
        "for 'MICRO'; the output array marks the match positions."
    )
    pe_count = 3
    worker_name = "worker"
    default_scale = 64   # number of 4-byte words of text

    def build(self, make_pe: PEFactory, scale: int, seed: int) -> System:
        text = _inputs(scale, seed)
        words = _pack_words(text)
        out_base = len(words)

        system = System()
        reader = make_pe("reader")
        splitter = make_pe("splitter")
        worker = make_pe(self.worker_name)
        memory_streamer(0, len(words), self.params,
                        eos="sentinel").configure(reader)
        splitter_program(self.params).configure(splitter)
        dfa_program(self.params, out_base, len(_PATTERN)).configure(worker)
        worker.scratchpad.preload([ord(c) for c in _PATTERN])
        for pe in (reader, splitter, worker):
            system.add_pe(pe)
        system.add_read_port(reader, request_out=0, response_in=0)
        system.connect(reader, 1, splitter, 0)
        system.connect(splitter, 1, worker, 0)
        system.add_write_port(worker, 1, worker, 2)
        system.memory.preload(words, base=0)
        return system

    def check(self, system: System, scale: int, seed: int) -> None:
        text = _inputs(scale, seed)
        expected = _golden(text)
        out_base = (len(text) + 3) // 4
        got = system.memory.dump(out_base, len(expected))
        if got != expected:
            bad = next(i for i in range(len(expected)) if got[i] != expected[i])
            raise SimulationError(
                f"string_search: mark[{bad}] = {got[bad]}, expected "
                f"{expected[bad]} (char {text[bad:bad + 1]!r})"
            )
        if sum(expected) == 0:
            raise SimulationError("string_search: degenerate input, no matches planted")
