"""Compiled trigger descriptors — the scheduler's fast path.

Trigger resolution is the critical path of a triggered PE (paper
Section 4), and it is also the innermost loop of the simulator: every
cycle the scheduler re-derives each instruction's eligibility from the
:class:`~repro.isa.instruction.Instruction` dataclasses — enum
comparisons, property calls that rebuild frozensets, attribute chases
through ``ins.trigger`` and ``ins.dp``.  None of that varies after
``load_program``.

This module lowers each instruction's trigger once into a flat
:class:`CompiledTrigger` descriptor of plain integers and tuples, and
:class:`CompiledProgram` indexes them by predicate state: for each
(predicate state, pending mask) met, the descriptors whose stable
predicate bits match, in priority order.  Usually one or two of a
dozen or more match, so per-cycle resolution checks queue status for
those alone.  The compiled form is semantically exact: for every
(predicate state, queue status, pending mask) the scheduler's compiled
path returns bit-for-bit the same
:class:`~repro.arch.scheduler.TriggerOutcome` as the reference path
over the original instructions — the differential suite in
``tests/test_pipeline_equivalence.py`` holds both paths to that.

:func:`lower_program` is the one place a program is validated and
lowered.  Nothing it computes reads a pipeline config, so one
:class:`Lowering` serves the golden model, every pipelined config and
the JIT; :meth:`Program.configure <repro.asm.program.Program.configure>`
keeps one per :class:`~repro.params.ArchParams`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.arch.scheduler import NONE_TRIGGERED, TriggerKind, TriggerOutcome
from repro.errors import SimulationError
from repro.isa.alu import _SEMANTICS
from repro.isa.instruction import DestinationType, Instruction, OperandType
from repro.params import ArchParams


class CompiledTrigger:
    """One instruction's trigger, lowered to flat integers and tuples.

    Fields mirror exactly what :meth:`Scheduler._eligibility` inspects:

    * ``index`` — the instruction's priority slot (descriptors for
      invalid slots are dropped at compile time, so the compiled walk
      skips them for free while reporting original indices);
    * ``pred_on`` / ``pred_off`` / ``watched`` — predicate bitmasks
      (``watched = pred_on | pred_off`` precomputed);
    * ``required_queues`` — input queues that must be non-empty (the
      union of trigger-checked, operand-read and dequeued queues);
    * ``tag_checks`` — ``(queue, tag, negate)`` triples against the
      effective head tag;
    * ``out_queue`` — output queue needing a free slot, or ``-1``;
    * ``side_effects`` — whether issue is forbidden during speculation
      (pre-retirement side effects, i.e. dequeues);
    * ``fired`` / ``hazard`` / ``forbidden`` — the outcomes naming this
      slot, built once so the walk allocates nothing per cycle.
    """

    __slots__ = (
        "index",
        "pred_on",
        "pred_off",
        "watched",
        "required_queues",
        "tag_checks",
        "out_queue",
        "side_effects",
        "fired",
        "hazard",
        "forbidden",
    )

    def __init__(self, index: int, ins: Instruction) -> None:
        trigger = ins.trigger
        self.index = index
        self.pred_on = trigger.pred_on
        self.pred_off = trigger.pred_off
        self.watched = trigger.pred_on | trigger.pred_off
        self.required_queues = tuple(sorted(ins.required_input_queues))
        self.tag_checks = tuple(
            (check.queue, check.tag, check.negate)
            for check in trigger.tag_checks
        )
        out = ins.output_queue
        self.out_queue = -1 if out is None else out
        self.side_effects = ins.dp.has_side_effects_before_retire
        self.fired = TriggerOutcome(TriggerKind.FIRED, index)
        self.hazard = TriggerOutcome(TriggerKind.PREDICATE_HAZARD, index)
        self.forbidden = TriggerOutcome(TriggerKind.FORBIDDEN, index)


class CompiledProgram:
    """The compiled descriptors of one PE's instruction store, and its
    trigger candidates by predicate state.

    ``candidates`` maps one int per (predicate state, pending mask),
    ``pending << shift | state`` with ``shift`` = NPreds, to a triple
    ``(conditional, outcome, if_forbidden)``.  Walking the descriptors
    whose stable predicate bits match, in priority order,
    ``conditional`` holds one ``(required_queues, tag_checks,
    out_queue, outcome, if_forbidden)`` tuple per descriptor with a
    queue condition, up to the first descriptor without one; that
    descriptor's outcomes are the triple's own, or ``NONE_TRIGGERED``
    when there is none.  ``outcome`` is the predicate hazard when the
    descriptor watches a pending bit, else the fire; ``if_forbidden``
    is the outcome while speculation forbids side effects.  The map
    fills lazily (:meth:`fill`) and depends on the program alone, so
    every PE, config and checker state sharing the lowering shares it.
    It holds at most one entry per key, 4**NPreds keys (65,536 at the
    default eight predicates).  The key is exact only for states and
    masks of NPreds bits, which is all a PE's predicate file holds.
    """

    __slots__ = ("descriptors", "candidates", "shift")

    def __init__(self, instructions: Sequence[Instruction],
                 num_preds: int) -> None:
        self.descriptors: tuple[CompiledTrigger, ...] = tuple(
            CompiledTrigger(index, ins)
            for index, ins in enumerate(instructions)
            if ins.valid
        )
        self.shift = num_preds
        self.candidates: dict[int, tuple] = {}

    def fill(self, pred_state: int, pending: int) -> tuple:
        """Compute and keep the candidates for one predicate state."""
        found = []
        outcome = if_forbidden = NONE_TRIGGERED
        for d in self.descriptors:
            stable = d.watched & ~pending
            on_stable = d.pred_on & stable
            if (pred_state & on_stable) != on_stable:
                continue
            off_stable = d.pred_off & stable
            if (~pred_state & off_stable) != off_stable:
                continue
            if d.watched & pending:
                fires = forbidden = d.hazard
            else:
                fires = d.fired
                forbidden = d.forbidden if d.side_effects else d.fired
            if not (d.required_queues or d.tag_checks or d.out_queue >= 0):
                outcome, if_forbidden = fires, forbidden
                break
            found.append((d.required_queues, d.tag_checks, d.out_queue,
                          fires, forbidden))
        entry = self.candidates[pending << self.shift | pred_state] = (
            tuple(found), outcome, if_forbidden)
        return entry


def compile_program(instructions: Sequence[Instruction],
                    num_preds: int) -> CompiledProgram:
    """Lower a program's triggers for the scheduler fast path, for a PE
    of ``num_preds`` predicates."""
    return CompiledProgram(instructions, num_preds)


# Operand plan codes (CompiledDatapath.operand_plan): the payload is a
# literal value for LIT (NONE reads zero, IMM is pre-masked), a register
# index for REG, an input-queue index for IN.
LIT = 0
REG = 1
IN = 2

# Destination codes; values deliberately equal DestinationType.*.value.
DST_REG = DestinationType.REG.value
DST_OUT = DestinationType.OUT.value
DST_PRED = DestinationType.PRED.value


class CompiledDatapath:
    """One instruction's datapath half, lowered for the simulators.

    Issue, operand capture, hazard checks and retirement all chase
    ``ins.dp`` enums and properties on every cycle an instruction is in
    flight; this flattens everything they read into plain ints, flags,
    tuples and strings once, when the program is lowered.  The
    issue-time predicate update is two masks: ``(state | pred_set) &
    pred_keep`` is :meth:`PredUpdate.apply
    <repro.isa.instruction.PredUpdate.apply>` masked to NPreds.
    """

    __slots__ = (
        "op",
        "mnemonic",
        "semantics",
        "late_result",
        "is_halt",
        "is_store",
        "operand_plan",
        "reads_reg",
        "deq",
        "dst_kind",
        "dst_index",
        "out_tag",
        "out_queue",
        "books_queues",
        "pred_set",
        "pred_keep",
        "writes_reg",
        "writes_pred",
    )

    def __init__(self, ins: Instruction, params: ArchParams) -> None:
        dp = ins.dp
        self.op = dp.op
        self.mnemonic = dp.op.mnemonic
        # May be None for an op with no defined semantics; executors fall
        # back to alu_execute, which raises the canonical error.
        self.semantics = _SEMANTICS.get(dp.op.mnemonic)
        self.late_result = dp.op.late_result
        # Opcode effects applied at retirement: halting, and the
        # scratchpad store of the captured (address, data) operands.
        self.is_halt = dp.op.effects.halts
        self.is_store = dp.op.effects.stores_scratchpad
        plan = []
        for src in dp.srcs:
            if src.kind is OperandType.REG:
                plan.append((REG, src.index))
            elif src.kind is OperandType.IN:
                plan.append((IN, src.index))
            elif src.kind is OperandType.IMM:
                plan.append((LIT, dp.imm & params.word_mask))
            else:
                plan.append((LIT, 0))
        while len(plan) < 2:
            plan.append((LIT, 0))
        self.operand_plan = tuple(plan)
        self.reads_reg = any(code == REG for code, _ in plan)
        self.deq = dp.deq
        dst = dp.dst
        self.dst_kind = dst.kind.value
        self.dst_index = dst.index
        self.out_tag = dst.out_tag
        self.out_queue = dst.index if dst.kind is DestinationType.OUT else -1
        # Whether issue books in-flight queue activity for the views.
        self.books_queues = bool(self.deq) or self.out_queue >= 0
        update = dp.pred_update
        self.pred_set = update.set_mask
        self.pred_keep = ((1 << params.num_preds) - 1) & ~update.clear_mask
        self.writes_reg = dst.kind is DestinationType.REG
        self.writes_pred = dst.kind is DestinationType.PRED


def compile_datapaths(
    instructions: Sequence[Instruction], params: ArchParams
) -> list[CompiledDatapath]:
    """Lower every slot's datapath (invalid slots included, by position)."""
    return [CompiledDatapath(ins, params) for ins in instructions]


@dataclass(frozen=True, eq=False, slots=True)
class Lowering:
    """One program validated and lowered for one set of parameters.

    ``instructions`` is the program as the PEs hold it, ``compiled`` its
    trigger descriptors and ``datapaths`` its per-slot datapath
    descriptors (by position).  PEs (the compiled step through its PE)
    and the checker read it; none of them writes it.
    """

    instructions: tuple[Instruction, ...]
    params: ArchParams
    compiled: CompiledProgram
    datapaths: tuple[CompiledDatapath, ...]


def lower_program(
    instructions: Sequence[Instruction], params: ArchParams
) -> Lowering:
    """Validate ``instructions`` against ``params`` and lower them.

    Raises :class:`~repro.errors.SimulationError` for a program longer
    than NIns and :class:`~repro.errors.EncodingError` for the first
    invalid instruction.
    """
    if len(instructions) > params.num_instructions:
        raise SimulationError(
            f"program of {len(instructions)} instructions "
            f"exceeds NIns = {params.num_instructions}"
        )
    for ins in instructions:
        if ins.valid:
            ins.validate(params)
    instructions = tuple(instructions)
    return Lowering(
        instructions, params, compile_program(instructions, params.num_preds),
        tuple(compile_datapaths(instructions, params)),
    )
