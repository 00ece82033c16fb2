"""Architectural and microarchitectural parameters (paper Table 1).

The whole toolchain — assembler, functional simulator, cycle-accurate
pipeline models and the VLSI cost model — is governed by one
:class:`ArchParams` object, mirroring the paper's single ``params.yaml``
file (Figure 1).  Derived binary-encoding field widths (paper Table 2)
and word masks are cached properties: a parameter object is frozen, so
each is computed once per object, on first read.

A note on ``MaxCheck``: the paper's Table 1 prints the value 4, but the
field-width arithmetic of Table 2 (``QueueIndices`` = 6 bits, ``NotTags``
= 2 bits, ``TagVals`` = 4 bits) and the quoted 106-bit instruction length
are only consistent with ``MaxCheck = 2``, which also matches the prose
("a maximum of two input channel tag conditions per trigger").  We default
to 2 so the encoded instruction is exactly 106 bits as published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

from repro.errors import ParameterError


def _clog2(value: int) -> int:
    """Ceiling of log2, as used for index field sizing (``dlog2(x)e``)."""
    if value <= 0:
        raise ParameterError(f"cannot take clog2 of non-positive value {value}")
    return max(1, math.ceil(math.log2(value)))


@dataclass(frozen=True)
class ArchParams:
    """Architectural parameters from paper Table 1.

    All parameters except ``num_ops``, ``num_srcs`` and ``num_dsts`` are
    recognized by the toolchain (the starred entries in Table 1 are fixed
    by the ISA definition itself).
    """

    num_regs: int = 8            # NRegs: general-purpose data registers
    num_input_queues: int = 4    # NIQueues: input channels
    num_output_queues: int = 4   # NOQueues: output channels
    max_check: int = 2           # MaxCheck: queues checked per trigger (see module docstring)
    max_deq: int = 2             # MaxDeq: dequeues allowed per instruction
    num_preds: int = 8           # NPreds: single-bit predicate registers
    word_width: int = 32         # Word: data word width in bits
    tag_width: int = 2           # TagWidth: queue tag width in bits
    num_instructions: int = 16   # NIns: instructions per PE
    num_ops: int = 42            # NOps*: operations in the ISA
    num_srcs: int = 2            # NSrcs*: source operands per instruction
    num_dsts: int = 1            # NDsts*: destinations per instruction
    # Microarchitectural knobs that ride along in the same file, as the
    # paper's parameter file also carries on/off feature settings.
    queue_capacity: int = 4      # entries per hardware operand queue
    scratchpad_words: int = 256  # PE-local scratchpad size in words

    def __post_init__(self) -> None:
        positive = [
            "num_regs", "num_input_queues", "num_output_queues", "max_check",
            "max_deq", "num_preds", "word_width", "tag_width",
            "num_instructions", "num_ops", "num_srcs", "num_dsts",
            "queue_capacity", "scratchpad_words",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_check > self.num_input_queues:
            raise ParameterError(
                f"max_check ({self.max_check}) cannot exceed the number of "
                f"input queues ({self.num_input_queues})"
            )
        if self.max_deq > self.num_input_queues:
            raise ParameterError(
                f"max_deq ({self.max_deq}) cannot exceed the number of "
                f"input queues ({self.num_input_queues})"
            )
        if self.num_srcs < 1 or self.num_dsts < 1:
            raise ParameterError("instructions need at least one source and destination")

    # ------------------------------------------------------------------
    # Word helpers
    # ------------------------------------------------------------------

    @cached_property
    def word_mask(self) -> int:
        """Bit mask covering one data word (e.g. 0xFFFFFFFF for 32-bit)."""
        return (1 << self.word_width) - 1

    @cached_property
    def word_sign_bit(self) -> int:
        """Mask selecting the sign bit of a data word."""
        return 1 << (self.word_width - 1)

    @cached_property
    def num_tags(self) -> int:
        """Number of distinct tag values representable in ``tag_width`` bits."""
        return 1 << self.tag_width

    # ------------------------------------------------------------------
    # Instruction field widths (paper Table 2)
    # ------------------------------------------------------------------

    @cached_property
    def val_width(self) -> int:
        """Valid bit."""
        return 1

    @cached_property
    def pred_mask_width(self) -> int:
        """Required on-set and off-set of predicates for trigger."""
        return 2 * self.num_preds

    @cached_property
    def queue_index_width(self) -> int:
        """Width of one input-queue index (including the 'none' encoding)."""
        return _clog2(self.num_input_queues + 1)

    @cached_property
    def queue_indices_width(self) -> int:
        """Input queues to check: MaxCheck x clog2(NIQueues + 1)."""
        return self.max_check * self.queue_index_width

    @cached_property
    def not_tags_width(self) -> int:
        """Which checked queues match on *absence* of the given tag."""
        return self.max_check

    @cached_property
    def tag_vals_width(self) -> int:
        """Vector of tags to seek on input queues."""
        return self.max_check * self.tag_width

    @cached_property
    def op_width(self) -> int:
        """Opcode field."""
        return _clog2(self.num_ops)

    @cached_property
    def src_types_width(self) -> int:
        """Source types (register, input queue, immediate, or none)."""
        return self.num_srcs * 2

    @cached_property
    def src_id_width(self) -> int:
        """Width of one source index."""
        return _clog2(max(self.num_regs, self.num_input_queues))

    @cached_property
    def src_ids_width(self) -> int:
        """Source indices."""
        return self.num_srcs * self.src_id_width

    @cached_property
    def dst_types_width(self) -> int:
        """Destination types (register, output queue, or predicate)."""
        return self.num_dsts * 2

    @cached_property
    def dst_id_width(self) -> int:
        """Width of one destination index."""
        return _clog2(max(self.num_regs, self.num_output_queues, self.num_preds))

    @cached_property
    def dst_ids_width(self) -> int:
        """Destination indices."""
        return self.num_dsts * self.dst_id_width

    @cached_property
    def out_tag_width(self) -> int:
        """Tag with which to enqueue the result."""
        return self.tag_width

    @cached_property
    def iqueue_deq_width(self) -> int:
        """Input queues to dequeue: MaxDeq x clog2(NIQueues + 1)."""
        return self.max_deq * self.queue_index_width

    @cached_property
    def pred_update_width(self) -> int:
        """Masks of which predicates to force high or low."""
        return 2 * self.num_preds

    @cached_property
    def imm_width(self) -> int:
        """Full word-length immediate (a deliberate ISA choice, Section 2.2)."""
        return self.word_width

    @cached_property
    def instruction_width(self) -> int:
        """Total encoded instruction width (106 bits at default parameters)."""
        return (
            self.val_width
            + self.pred_mask_width
            + self.queue_indices_width
            + self.not_tags_width
            + self.tag_vals_width
            + self.op_width
            + self.src_types_width
            + self.src_ids_width
            + self.dst_types_width
            + self.dst_ids_width
            + self.out_tag_width
            + self.iqueue_deq_width
            + self.pred_update_width
            + self.imm_width
        )

    @cached_property
    def padded_instruction_width(self) -> int:
        """Instruction width padded to a round number of 32-bit words.

        The paper pads the 106-bit instruction to 128 bits for the
        memory-mapped host interface; the padding is never stored in the
        instruction memory.
        """
        return ((self.instruction_width + 31) // 32) * 32

    def field_widths(self) -> dict[str, int]:
        """Table 2 as a name -> width mapping, in encoding order."""
        return {
            "Val": self.val_width,
            "PredMask": self.pred_mask_width,
            "QueueIndices": self.queue_indices_width,
            "NotTags": self.not_tags_width,
            "TagVals": self.tag_vals_width,
            "Op": self.op_width,
            "SrcTypes": self.src_types_width,
            "SrcIDs": self.src_ids_width,
            "DstTypes": self.dst_types_width,
            "DstIDs": self.dst_ids_width,
            "OutTag": self.out_tag_width,
            "IQueueDeq": self.iqueue_deq_width,
            "PredUpdate": self.pred_update_width,
            "Imm": self.imm_width,
        }

    def table1(self) -> list[tuple[str, str, int]]:
        """Rows of paper Table 1: (parameter, description, value)."""
        return [
            ("NRegs", "Number of registers", self.num_regs),
            ("NIQueues", "Number of input queues", self.num_input_queues),
            ("NOQueues", "Number of output queues", self.num_output_queues),
            ("MaxCheck", "Max queues checked per trigger", self.max_check),
            ("MaxDeq", "Max dequeues allowed / ins", self.max_deq),
            ("NPreds", "Number of predicates", self.num_preds),
            ("Word", "Word width", self.word_width),
            ("TagWidth", "Queue tag width", self.tag_width),
            ("NIns", "Number of instructions per PE", self.num_instructions),
            ("NOps*", "Number of operations", self.num_ops),
            ("NSrcs*", "Number of source operands / ins", self.num_srcs),
            ("NDsts*", "Number of destinations / ins", self.num_dsts),
        ]

    @classmethod
    def from_dict(cls, raw: dict) -> "ArchParams":
        """Build parameters from a plain dict (the ``params.yaml`` role).

        Unknown keys raise :class:`ParameterError` so configuration typos
        do not silently fall back to defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ParameterError(f"unknown parameter(s): {sorted(unknown)}")
        return cls(**raw)


DEFAULT_PARAMS = ArchParams()
"""The paper's fixed parameterization (Table 1 'Value' column)."""
