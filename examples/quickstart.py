#!/usr/bin/env python3
"""Quickstart: write a triggered program, run it, read the counters.

Triggered instructions have no program counter: each instruction is a
guarded atomic action, and every cycle the hardware fires the highest
priority instruction whose guard matches the predicate registers and the
tagged input queues.  This example programs one PE to accumulate a
tagged stream and walks through what the guards mean.

Run:  python examples/quickstart.py
"""

from repro import FunctionalPE, PipelinedPE, assemble, config_by_name

# Tag 0 marks ordinary data; tag 1 marks the last word of the stream.
ACCUMULATOR = """
# While data is available, add it into %r1.  The guard asks for predicate
# p0 == 0 (we are still running) and a word with tag 0 at the head of
# input queue 0.  'deq' consumes the word at dispatch.
when %p == XXXXXXX0 with %i0.0:
    add %r1, %r1, %i0; deq %i0;

# The EOS word still carries data: fold it in, emit the total on output
# queue 0 (tagged 1 for the consumer downstream), and set p0 = 1.
when %p == XXXXXXX0 with %i0.1:
    add %r1, %r1, %i0; deq %i0; set %p = ZZZZZZZ1;

when %p == XXXXXXX1:
    mov %o0.1, %r1; set %p = ZZZZZZ1Z;

when %p == XXXXXX1X:
    halt;
"""


def run_on(pe, values):
    """Feed the stream (respecting queue capacity) and run to halt."""
    backlog = [(v, 0) for v in values[:-1]] + [(values[-1], 1)]
    while not pe.halted:
        while backlog and not pe.inputs[0].is_full:
            value, tag = backlog.pop(0)
            pe.inputs[0].enqueue(value, tag)
        pe.step()
        pe.commit_queues()
    return pe.outputs[0].drain()[0].value


def main() -> None:
    values = list(range(1, 11))
    program = assemble(ACCUMULATOR)
    print(f"program: {len(program)} triggered instructions "
          f"({len(program.binary(program_params()))} bytes encoded)")

    # The functional model retires one instruction per cycle whenever any
    # trigger matches — the architectural reference.
    functional = FunctionalPE(name="functional")
    program.configure(functional)
    total = run_on(functional, values)
    assert total == sum(values), total
    print(f"\nfunctional model: sum(1..10) = {total}")
    print(f"  cycles={functional.counters.cycles} "
          f"retired={functional.counters.retired} "
          f"CPI={functional.counters.cpi:.2f}")

    # The same binary runs on any pipelined microarchitecture.  A deep
    # pipeline pays hazard stalls; the paper's +P +Q optimizations win
    # most of them back.
    for name in ("T|D|X1|X2", "T|D|X1|X2 +P+Q"):
        pe = PipelinedPE(config_by_name(name), name=name)
        program.configure(pe)
        total = run_on(pe, values)
        assert total == sum(values), (name, total)
        counters = pe.counters
        print(f"\n{name}: sum = {total}")
        print(f"  cycles={counters.cycles} CPI={counters.cpi:.2f} "
              f"stack={ {k: round(v, 2) for k, v in counters.stack().items()} }")


def program_params():
    from repro import DEFAULT_PARAMS
    return DEFAULT_PARAMS


if __name__ == "__main__":
    main()
