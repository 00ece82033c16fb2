"""Instruction structure: trigger (guard) + datapath operation.

An instruction in this ISA is a guarded atomic action (Section 2.1).  The
*trigger* half names the predicate on-set/off-set and tagged input-queue
conditions under which the instruction may fire; the *datapath* half names
the operation, its sources and destination, any input-queue dequeues, and
an atomic predicate update mask applied at issue time.

The classes here are the in-memory form produced by the assembler and
consumed by both simulators; :mod:`repro.isa.encoding` gives them the
binary layout of paper Table 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import EncodingError
from repro.isa.opcodes import Op, op_by_name
from repro.params import ArchParams


class OperandType(enum.Enum):
    """Source operand types (2-bit SrcTypes encoding)."""

    NONE = 0
    REG = 1
    IN = 2      # input queue (peek at head; dequeue is separate)
    IMM = 3


class DestinationType(enum.Enum):
    """Destination types (2-bit DstTypes encoding)."""

    NONE = 0
    REG = 1
    OUT = 2     # output queue (enqueue, with OutTag)
    PRED = 3    # single predicate bit


@dataclass(frozen=True)
class Operand:
    """One source operand."""

    kind: OperandType
    index: int = 0  # register / input queue index; ignored for NONE and IMM

    @staticmethod
    def none() -> "Operand":
        return Operand(OperandType.NONE)

    @staticmethod
    def reg(index: int) -> "Operand":
        return Operand(OperandType.REG, index)

    @staticmethod
    def input_queue(index: int) -> "Operand":
        return Operand(OperandType.IN, index)

    @staticmethod
    def imm() -> "Operand":
        """The immediate operand; its value lives in the instruction's Imm field."""
        return Operand(OperandType.IMM)


@dataclass(frozen=True)
class Destination:
    """The (single, NDsts = 1) destination of an instruction."""

    kind: DestinationType
    index: int = 0
    out_tag: int = 0  # tag used when kind is OUT

    @staticmethod
    def none() -> "Destination":
        return Destination(DestinationType.NONE)

    @staticmethod
    def reg(index: int) -> "Destination":
        return Destination(DestinationType.REG, index)

    @staticmethod
    def output_queue(index: int, tag: int) -> "Destination":
        return Destination(DestinationType.OUT, index, out_tag=tag)

    @staticmethod
    def predicate(index: int) -> "Destination":
        return Destination(DestinationType.PRED, index)


@dataclass(frozen=True)
class TagCheck:
    """One input-queue tag condition in a trigger.

    Requires input queue ``queue`` to be non-empty and its head tag to
    equal ``tag`` (or to *differ* from it when ``negate`` is set — the
    NotTags encoding).  Plain data *availability* is not expressed here:
    the scheduler sees the whole instruction combinationally (Section 2.2)
    and derives availability requirements from the instruction's queue
    sources, dequeues, and output destination."""

    queue: int
    tag: int = 0
    negate: bool = False

    def matches(self, head_tag: int) -> bool:
        """Whether a non-empty queue with the given head tag satisfies this check."""
        return (head_tag != self.tag) if self.negate else (head_tag == self.tag)


@dataclass(frozen=True)
class Trigger:
    """The guard of a guarded atomic action.

    ``pred_on`` / ``pred_off`` are bit masks over the predicate registers:
    a predicate listed in ``pred_on`` must read 1, one in ``pred_off``
    must read 0, and unlisted predicates are don't-care (the ``X``
    positions of the assembly's ``%p == XXXX0000`` notation).
    """

    pred_on: int = 0
    pred_off: int = 0
    tag_checks: tuple[TagCheck, ...] = ()

    def predicates_match(self, pred_state: int) -> bool:
        """Whether the given predicate register state satisfies the guard."""
        if (pred_state & self.pred_on) != self.pred_on:
            return False
        return (~pred_state & self.pred_off) == self.pred_off

    @cached_property
    def watched_predicates(self) -> int:
        """Mask of predicate bits this trigger actually inspects."""
        return self.pred_on | self.pred_off


@dataclass(frozen=True)
class PredUpdate:
    """Masks of predicates to force high or low at issue time.

    This is the triggered-control analogue of ``PC = PC + 4``: it must
    update architectural state within a cycle of the trigger (Section 2.2)
    and therefore never participates in predicate hazards.
    """

    set_mask: int = 0
    clear_mask: int = 0

    def apply(self, pred_state: int) -> int:
        return (pred_state | self.set_mask) & ~self.clear_mask

    @cached_property
    def touched(self) -> int:
        return self.set_mask | self.clear_mask


@dataclass(frozen=True)
class DatapathOp:
    """The datapath half of an instruction."""

    op: Op
    srcs: tuple[Operand, ...] = ()
    dst: Destination = field(default_factory=Destination.none)
    imm: int = 0
    deq: tuple[int, ...] = ()           # input queue indices to dequeue
    pred_update: PredUpdate = field(default_factory=PredUpdate)

    @property
    def reads_queues(self) -> tuple[int, ...]:
        """Input queue indices read as operands."""
        return tuple(s.index for s in self.srcs if s.kind is OperandType.IN)

    @property
    def writes_predicate(self) -> bool:
        """True when the datapath result lands in a predicate register.

        This — not the issue-time :class:`PredUpdate` — is what creates
        predicate hazards and what the speculative predicate unit predicts.
        """
        return self.dst.kind is DestinationType.PRED

    @property
    def enqueues(self) -> bool:
        return self.dst.kind is DestinationType.OUT

    @property
    def has_side_effects_before_retire(self) -> bool:
        """Instructions forbidden during speculation (Section 5.2).

        Dequeues take effect early (in decode), before retirement, so a
        speculative dequeue could not be rolled back.  Enqueues, register
        writes and scratchpad stores all commit at retirement and are
        quashed with the instruction, so they stay legal.
        """
        return bool(self.deq)


@dataclass(frozen=True)
class Instruction:
    """A complete triggered instruction: guard plus datapath operation.

    ``line``/``column`` are source coordinates of the ``when`` guard in
    the originating assembly file, when the instruction came from the
    assembler; they are excluded from equality so instructions compare
    by meaning, and they flow into assembler errors and static-analyzer
    findings.
    """

    trigger: Trigger
    dp: DatapathOp
    valid: bool = True
    label: str = ""   # optional human-readable name from the assembler
    line: int | None = field(default=None, compare=False)
    column: int | None = field(default=None, compare=False)

    def validate(self, params: ArchParams) -> None:
        """Check this instruction against the architecture parameters.

        Raises :class:`EncodingError` describing the first violated
        constraint.  The assembler calls this for every assembled
        instruction; hand-constructed instructions should call it too
        before being fed to a simulator.
        """
        p = params
        if len(self.trigger.tag_checks) > p.max_check:
            raise EncodingError(
                f"{self._what()}: trigger checks {len(self.trigger.tag_checks)} "
                f"queues, but MaxCheck is {p.max_check}"
            )
        checked = set()
        for check in self.trigger.tag_checks:
            if not 0 <= check.queue < p.num_input_queues:
                raise EncodingError(
                    f"{self._what()}: trigger checks input queue {check.queue}, "
                    f"but only {p.num_input_queues} exist"
                )
            if check.queue in checked:
                raise EncodingError(
                    f"{self._what()}: input queue {check.queue} checked twice"
                )
            checked.add(check.queue)
            if not 0 <= check.tag < p.num_tags:
                raise EncodingError(
                    f"{self._what()}: tag {check.tag} does not fit in "
                    f"{p.tag_width} tag bits"
                )
        pred_all = (1 << p.num_preds) - 1
        for name, mask in [
            ("pred_on", self.trigger.pred_on),
            ("pred_off", self.trigger.pred_off),
            ("pred set", self.dp.pred_update.set_mask),
            ("pred clear", self.dp.pred_update.clear_mask),
        ]:
            if mask & ~pred_all:
                raise EncodingError(
                    f"{self._what()}: {name} mask {mask:#x} references "
                    f"predicates beyond NPreds = {p.num_preds}"
                )
        if self.trigger.pred_on & self.trigger.pred_off:
            raise EncodingError(
                f"{self._what()}: a predicate is required both on and off"
            )
        if self.dp.pred_update.set_mask & self.dp.pred_update.clear_mask:
            raise EncodingError(
                f"{self._what()}: a predicate is both force-set and force-cleared"
            )
        if len(self.dp.srcs) > p.num_srcs:
            raise EncodingError(
                f"{self._what()}: {len(self.dp.srcs)} sources exceed NSrcs = {p.num_srcs}"
            )
        if len(self.dp.srcs) < self.dp.op.num_srcs:
            raise EncodingError(
                f"{self._what()}: operation {self.dp.op.mnemonic!r} needs "
                f"{self.dp.op.num_srcs} sources, got {len(self.dp.srcs)}"
            )
        for src in self.dp.srcs:
            if src.kind is OperandType.REG and not 0 <= src.index < p.num_regs:
                raise EncodingError(f"{self._what()}: register %r{src.index} out of range")
            if src.kind is OperandType.IN and not 0 <= src.index < p.num_input_queues:
                raise EncodingError(f"{self._what()}: input queue %i{src.index} out of range")
        dst = self.dp.dst
        if dst.kind is DestinationType.REG and not 0 <= dst.index < p.num_regs:
            raise EncodingError(f"{self._what()}: destination register out of range")
        if dst.kind is DestinationType.OUT:
            if not 0 <= dst.index < p.num_output_queues:
                raise EncodingError(f"{self._what()}: output queue out of range")
            if not 0 <= dst.out_tag < p.num_tags:
                raise EncodingError(f"{self._what()}: output tag out of range")
        if dst.kind is DestinationType.PRED and not 0 <= dst.index < p.num_preds:
            raise EncodingError(f"{self._what()}: destination predicate out of range")
        if dst.kind is not DestinationType.NONE and not self.dp.op.has_dst:
            raise EncodingError(
                f"{self._what()}: operation {self.dp.op.mnemonic!r} produces no result"
            )
        if dst.kind is DestinationType.NONE and self.dp.op.has_dst:
            raise EncodingError(
                f"{self._what()}: operation {self.dp.op.mnemonic!r} needs a destination"
            )
        if len(self.dp.deq) > p.max_deq:
            raise EncodingError(
                f"{self._what()}: {len(self.dp.deq)} dequeues exceed MaxDeq = {p.max_deq}"
            )
        if len(set(self.dp.deq)) != len(self.dp.deq):
            raise EncodingError(f"{self._what()}: duplicate dequeue of the same queue")
        for q in self.dp.deq:
            if not 0 <= q < p.num_input_queues:
                raise EncodingError(f"{self._what()}: dequeue of input queue {q} out of range")
        # The assembler guarantees PredUpdate never conflicts with a
        # datapath predicate destination (Section 2.2).
        if self.dp.writes_predicate and (self.dp.pred_update.touched >> dst.index) & 1:
            raise EncodingError(
                f"{self._what()}: predicate %p{dst.index} is both a datapath "
                f"destination and force-updated at issue"
            )
        imm_srcs = sum(1 for s in self.dp.srcs if s.kind is OperandType.IMM)
        if imm_srcs > 1:
            raise EncodingError(
                f"{self._what()}: at most one immediate source per instruction"
            )
        if not -(1 << (p.word_width - 1)) <= self.dp.imm < (1 << p.word_width):
            raise EncodingError(f"{self._what()}: immediate {self.dp.imm} does not fit a word")

    def _what(self) -> str:
        what = f"instruction {self.label!r}" if self.label else "instruction"
        if self.line is not None:
            where = f"line {self.line}"
            if self.column is not None:
                where += f":{self.column}"
            what += f" ({where})"
        return what

    @cached_property
    def required_input_queues(self) -> frozenset[int]:
        """Input queues that must hold data for this instruction to fire.

        The union of trigger-checked queues, queue source operands, and
        dequeued queues — the availability condition the scheduler derives
        from the combinationally exposed instruction fields.  Computed
        once per instruction (instructions are frozen).
        """
        queues = {check.queue for check in self.trigger.tag_checks}
        queues.update(self.dp.reads_queues)
        queues.update(self.dp.deq)
        return frozenset(queues)

    @cached_property
    def output_queue(self) -> int | None:
        """The output queue this instruction enqueues to, if any."""
        if self.dp.dst.kind is DestinationType.OUT:
            return self.dp.dst.index
        return None


def make_nop() -> Instruction:
    """An always-invalid placeholder instruction (empty slot)."""
    return Instruction(
        trigger=Trigger(),
        dp=DatapathOp(op=op_by_name("nop")),
        valid=False,
        label="<empty>",
    )
