"""Reusable PE programs shared by several workloads.

Streaming data between memory and workers is the fabric's bread and
butter; these helpers emit the standard producer idioms as assembly via
the :class:`~repro.workloads.builder.ProgramBuilder`.

Tag conventions used throughout the suite:

* tag 0 — ordinary data word
* tag 1 — end of stream (EOS)

Three EOS styles cover the consumers' needs:

* ``"last"`` — the final *data* word carries the EOS tag (consumers that
  must still process the last element, e.g. ``arg_max``).
* ``"sentinel"`` — all data words carry tag 0 and one extra word with
  tag 1 follows (consumers that treat EOS as "no more data", e.g. the
  ``merge`` drain logic).
* ``"none"`` — no EOS marker at all (fixed-length consumers such as the
  write port in ``stream``).
"""

from __future__ import annotations

from repro.asm.program import Program
from repro.errors import ConfigError
from repro.params import ArchParams, DEFAULT_PARAMS
from repro.workloads.builder import ProgramBuilder, cached_program

TAG_DATA = 0
TAG_EOS = 1

_EOS_STYLES = ("last", "sentinel", "none")


def _check_style(eos: str) -> None:
    if eos not in _EOS_STYLES:
        raise ConfigError(f"eos style {eos!r} not one of {_EOS_STYLES}")


@cached_program
def memory_streamer(
    base: int,
    count: int,
    params: ArchParams = DEFAULT_PARAMS,
    out_queue: int = 1,
    eos: str = "last",
) -> Program:
    """Stream ``memory[base : base + count]`` to an output channel.

    Uses a read port wired to ``%o0`` (requests) / ``%i0`` (responses).
    Data leaves on ``%o<out_queue>``.  The EOS marker rides on the final
    *address* request and is propagated back by the read port, exercising
    tag-directed forwarding.  Halts once everything is forwarded.
    """
    _check_style(eos)
    if count < 1:
        raise ConfigError("memory_streamer needs at least one element")
    b = ProgramBuilder(params, start_state="init0")
    # Forwarders first: highest priority keeps the response queue moving.
    b.add(
        checks=[f"%i0.{TAG_DATA}"], deq=["%i0"],
        op=f"mov %o{out_queue}.{TAG_DATA}, %i0",
        comment="forward a data word downstream",
    )
    if eos == "last":
        b.add(
            checks=[f"%i0.{TAG_EOS}"], deq=["%i0"],
            op=f"mov %o{out_queue}.{TAG_EOS}, %i0",
            set_flags={3: True},
            comment="forward the last word with EOS and arm halt",
        )
    else:
        # Forward the last word as plain data...
        b.add(
            checks=[f"%i0.{TAG_EOS}"], deq=["%i0"],
            op=f"mov %o{out_queue}.{TAG_DATA}, %i0",
            set_flags={2: True} if eos == "sentinel" else {3: True},
            comment="forward the last word as data",
        )
        if eos == "sentinel":
            # ...then append a sentinel word with the EOS tag.
            b.add(
                flags={2: True},
                op=f"mov %o{out_queue}.{TAG_EOS}, $0",
                set_flags={2: False, 3: True},
                comment="append the EOS sentinel",
            )
    b.add(flags={3: True}, op="halt", comment="all data forwarded")
    # Address generation loop.
    b.add(state="init0", op=f"mov %r0, ${base}", next="init1",
          comment="r0 = first address")
    b.add(state="init1", op=f"mov %r1, ${base + count - 1}", next="cmp",
          comment="r1 = last address")
    b.add(state="cmp", op="ult %p1, %r0, %r1", next="act",
          comment="more addresses after this one?")
    b.add(state="act", flags={1: True}, op="mov %o0.0, %r0", next="inc",
          comment="request next word")
    b.add(state="act", flags={1: False}, op=f"mov %o0.{TAG_EOS}, %r0", next="drain",
          comment="request last word, tagged EOS")
    b.add(state="inc", op="add %r0, %r0, $1", next="cmp")
    # 'drain' has no instructions: the PE idles until the forwarders and
    # the halt instruction finish the job.
    return b.program(name=f"streamer[{base}:{base + count}]")


@cached_program
def counter_producer(
    start: int,
    count: int,
    params: ArchParams = DEFAULT_PARAMS,
    out_queue: int = 0,
    step: int = 1,
    eos: str = "last",
) -> Program:
    """Emit ``start, start + step, ...`` (``count`` values), then halt.

    This is the paper's maximum-throughput sequential loop: compare,
    emit, increment — three instructions per element.
    """
    _check_style(eos)
    if count < 1:
        raise ConfigError("counter_producer needs at least one element")
    last = start + step * (count - 1)
    last_tag = TAG_EOS if eos == "last" else TAG_DATA
    b = ProgramBuilder(params, start_state="init0")
    b.add(state="init0", op=f"mov %r0, ${start}", next="init1")
    b.add(state="init1", op=f"mov %r1, ${last}", next="cmp")
    b.add(state="cmp", op="ult %p1, %r0, %r1", next="act")
    b.add(state="act", flags={1: True}, op=f"mov %o{out_queue}.{TAG_DATA}, %r0",
          next="inc", comment="emit value")
    b.add(state="act", flags={1: False}, op=f"mov %o{out_queue}.{last_tag}, %r0",
          next="sent" if eos == "sentinel" else "done",
          comment="emit last value")
    b.add(state="inc", op=f"add %r0, %r0, ${step}", next="cmp")
    if eos == "sentinel":
        b.add(state="sent", op=f"mov %o{out_queue}.{TAG_EOS}, $0", next="done",
              comment="append the EOS sentinel")
    b.add(state="done", op="halt")
    return b.program(name=f"counter[{start}..{last}]")
