"""Property-based equivalence: pipelining must never change results.

Hypothesis generates random *halting* triggered programs — linear state
chains with data-dependent predicate branches folded in — and every
pipeline microarchitecture (with and without +P/+Q) must produce exactly
the architectural state the functional reference produces.  This is the
strongest single check on the pipeline model: hazard handling,
forwarding, speculation, flush/rollback and queue accounting all have to
be perfect for thousands of random programs to agree.
"""

from hypothesis import given, settings, strategies as st

from repro.arch import FunctionalPE
from repro.isa.instruction import (
    DatapathOp,
    Destination,
    Instruction,
    Operand,
    PredUpdate,
    TagCheck,
    Trigger,
)
from repro.isa.opcodes import op_by_name
from repro.params import DEFAULT_PARAMS as P
from repro.pipeline import PipelinedPE, config_by_name

# A mix of early- and late-result operations with two register sources.
_BINARY_OPS = ["add", "sub", "and", "or", "xor", "mul", "mulh", "shl",
               "shr", "rol", "eq", "ult", "sge", "land"]
_UNARY_OPS = ["not", "clz", "ctz", "popc", "brev", "mov", "sext8"]

# State chains use predicate bits 4..7; bits 0..3 are free for the
# data-dependent branch flags the generator may add.
_STATE_BITS = (4, 5, 6, 7)


def _state_trigger(step: int) -> Trigger:
    on = off = 0
    for position, bit in enumerate(_STATE_BITS):
        if (step >> position) & 1:
            on |= 1 << bit
        else:
            off |= 1 << bit
    return Trigger(pred_on=on, pred_off=off)


def _state_update(next_step: int) -> PredUpdate:
    set_mask = clear_mask = 0
    for position, bit in enumerate(_STATE_BITS):
        if (next_step >> position) & 1:
            set_mask |= 1 << bit
        else:
            clear_mask |= 1 << bit
    return PredUpdate(set_mask=set_mask, clear_mask=clear_mask)


@st.composite
def chain_programs(draw):
    """A random program that always halts: a chain of <= 15 steps.

    Each step is either a pure register operation, a predicate write
    (consumed by nothing — state flow is via PredUpdate — but exercising
    the prediction machinery), an input-queue consume, or an enqueue.
    """
    length = draw(st.integers(min_value=1, max_value=15))
    instructions = []
    pushes = draw(st.lists(
        st.tuples(st.integers(0, 0xFFFFFFFF), st.integers(0, 3)),
        min_size=4, max_size=4))
    queue_reads = 0
    emits = {q: 0 for q in range(P.num_output_queues)}
    for step in range(length):
        kind = draw(st.sampled_from(["binary", "unary", "pred", "consume", "emit"]))
        regs = st.integers(0, P.num_regs - 1)
        if kind == "consume" and queue_reads < len(pushes):
            tag = pushes[queue_reads][1]
            queue_reads += 1
            ins = Instruction(
                trigger=Trigger(
                    pred_on=_state_trigger(step).pred_on,
                    pred_off=_state_trigger(step).pred_off,
                    tag_checks=(TagCheck(queue=0, tag=tag),),
                ),
                dp=DatapathOp(
                    op=op_by_name("add"),
                    srcs=(Operand.reg(draw(regs)), Operand.input_queue(0)),
                    dst=Destination.reg(draw(regs)),
                    deq=(0,),
                    pred_update=_state_update(step + 1),
                ),
            )
        elif kind == "pred":
            op = op_by_name(draw(st.sampled_from(["eq", "ult", "nez", "sge"])))
            srcs = [Operand.reg(draw(regs)) for _ in range(op.num_srcs)]
            ins = Instruction(
                trigger=_state_trigger(step),
                dp=DatapathOp(
                    op=op,
                    srcs=tuple(srcs),
                    dst=Destination.predicate(draw(st.integers(0, 3))),
                    pred_update=_state_update(step + 1),
                ),
            )
        elif kind == "emit" and min(emits.values()) < P.queue_capacity - 1:
            # Nobody drains the outputs during the run, so stay below the
            # physical capacity or every model deadlocks equally.
            queue = draw(st.sampled_from(
                [q for q, count in emits.items()
                 if count < P.queue_capacity - 1]))
            emits[queue] += 1
            ins = Instruction(
                trigger=_state_trigger(step),
                dp=DatapathOp(
                    op=op_by_name("mov"),
                    srcs=(Operand.reg(draw(regs)),),
                    dst=Destination.output_queue(queue, draw(st.integers(0, 3))),
                    pred_update=_state_update(step + 1),
                ),
            )
        else:
            if kind == "binary":
                op = op_by_name(draw(st.sampled_from(_BINARY_OPS)))
            else:
                op = op_by_name(draw(st.sampled_from(_UNARY_OPS)))
            srcs = []
            imm = 0
            for __ in range(op.num_srcs):
                if draw(st.booleans()):
                    srcs.append(Operand.reg(draw(regs)))
                else:
                    srcs.append(Operand.imm())
                    imm = draw(st.integers(0, 0xFFFFFFFF))
            if sum(1 for s in srcs if s.kind.name == "IMM") > 1:
                srcs[1] = Operand.reg(0)
            dst = Destination.reg(draw(regs))
            if op.mnemonic in ("eq", "ult", "sge", "land") and draw(st.booleans()):
                dst = Destination.predicate(draw(st.integers(0, 3)))
            ins = Instruction(
                trigger=_state_trigger(step),
                dp=DatapathOp(
                    op=op, srcs=tuple(srcs), dst=dst, imm=imm,
                    pred_update=_state_update(step + 1),
                ),
            )
        ins.validate(P)
        instructions.append(ins)

    instructions.append(
        Instruction(
            trigger=_state_trigger(length),
            dp=DatapathOp(op=op_by_name("halt")),
        )
    )
    return instructions, pushes


def _run(pe, instructions, pushes, max_cycles=3_000):
    pe.load_program(instructions)
    for value, tag in pushes:
        pe.inputs[0].enqueue(value, tag)
    pe.commit_queues()
    for _ in range(max_cycles):
        if pe.halted:
            break
        pe.step()
        pe.commit_queues()
    assert pe.halted, "generated program failed to halt"
    outputs = [
        [(entry.value, entry.tag) for entry in queue.drain()]
        for queue in pe.outputs
    ]
    return pe.regs.snapshot(), pe.preds.state & 0x0F, outputs


CONFIGS = [
    "TD|X", "T|DX", "TDX1|X2", "TD|X1|X2", "T|DX1|X2", "T|D|X",
    "T|D|X1|X2", "T|D|X1|X2 +P", "T|D|X1|X2 +Q", "T|D|X1|X2 +P+Q",
    "TDX1|X2 +P+Q", "T|DX +P+Q",
]


@settings(max_examples=60, deadline=None)
@given(chain_programs())
def test_every_microarchitecture_matches_the_functional_reference(generated):
    instructions, pushes = generated
    reference = _run(FunctionalPE(P, name="ref"), instructions, pushes)
    for name in CONFIGS:
        pe = PipelinedPE(config_by_name(name), P, name=name)
        result = _run(pe, instructions, pushes)
        assert result == reference, f"{name} diverged from the functional model"


@settings(max_examples=20, deadline=None)
@given(chain_programs())
def test_nested_speculation_preserves_results(generated):
    instructions, pushes = generated
    reference = _run(FunctionalPE(P, name="ref"), instructions, pushes)
    config = config_by_name("T|D|X1|X2 +P").with_options(speculative_depth=3)
    pe = PipelinedPE(config, P, name="nested")
    assert _run(pe, instructions, pushes) == reference


# ---------------------------------------------------------------------------
# Fast-path differential: the compiled, predicate-indexed trigger path
# (the default) against the original per-cycle dataclass walk
# (``fast_path=False``), which is kept as the reference implementation
# and stepped one ``System.step`` per cycle.
# ---------------------------------------------------------------------------

import pytest

from repro.pipeline.config import all_configs
from repro.workloads.suite import WORKLOADS, run_workload
from tests.test_fabric import step_workload

#: Large enough that every kernel runs hundreds of cycles on every config.
_DIFF_SCALE = 10


def _workload_fingerprint(run):
    """Everything a simulation can influence: counters, stack, and final
    architectural state of every PE plus memory."""
    counters = run.worker_counters
    pes = []
    for pe in run.system.pes:
        pes.append((
            pe.name,
            pe.halted,
            tuple(pe.regs.snapshot()),
            pe.preds.state,
        ))
    return {
        "cycles": run.cycles,
        "counters": counters,
        "stack": counters.stack(),
        "pes": tuple(pes),
        "memory": dict(run.system.memory._words),
        "memory_stores": run.system.memory.stores,
    }


@pytest.mark.parametrize("config", all_configs(), ids=lambda c: c.name)
def test_fast_path_is_bit_identical_across_the_workload_suite(config):
    """All 8 partitions x {baseline, +P, +Q, +P+Q}, all ten workloads:
    the fast path through ``System.run``, on PEs that run their config's
    compiled step from cycle 0, must reproduce the reference walk
    stepped one ``System.step`` per cycle (``step_loop``) bit for bit —
    same CPI stacks, same counters, same final architectural state."""
    for name in WORKLOADS():
        fast = run_workload(
            name, scale=_DIFF_SCALE,
            make_pe=lambda n: PipelinedPE(config, P, name=n, fast_path=True),
        )
        assert all(pe._jit is not None for pe in fast.system.pes), (
            f"{config.name} / {name}: a fast-path PE ran interpreted"
        )
        reference = step_workload(
            name, scale=_DIFF_SCALE,
            make_pe=lambda n: PipelinedPE(config, P, name=n, fast_path=False),
        )
        assert _workload_fingerprint(fast) == _workload_fingerprint(reference), (
            f"{config.name} / {name}: fast path diverged from reference"
        )


@settings(max_examples=30, deadline=None)
@given(chain_programs())
def test_fast_path_matches_reference_on_random_programs(generated):
    instructions, pushes = generated
    for name in ("T|D|X1|X2 +P+Q", "TD|X", "T|DX +P+Q"):
        fast = PipelinedPE(config_by_name(name), P, name="fast", fast_path=True)
        ref = PipelinedPE(config_by_name(name), P, name="ref", fast_path=False)
        fast_result = _run(fast, instructions, pushes)
        ref_result = _run(ref, instructions, pushes)
        assert fast_result == ref_result, f"{name}: architectural state diverged"
        assert fast.counters == ref.counters, f"{name}: counters diverged"
