"""Binary instruction encoding per paper Table 2.

Fields are packed least-significant-bit first, in Table 2's row order:
Val, PredMask, QueueIndices, NotTags, TagVals, Op, SrcTypes, SrcIDs,
DstTypes, DstIDs, OutTag, IQueueDeq, PredUpdate, Imm.  At the default
parameters this totals 106 bits; :func:`encode_program` pads each
instruction to the memory-mapped width (128 bits) exactly as the paper's
host interface does — padding the host sees but the instruction memory
never stores.

Index fields that can name "no queue" (QueueIndices, IQueueDeq) reserve
the value ``NIQueues`` as the none encoding, which is why they are sized
with ``clog2(NIQueues + 1)``.
"""

from __future__ import annotations

from repro.errors import EncodingError
from repro.isa.instruction import (
    DatapathOp,
    Destination,
    DestinationType,
    Instruction,
    Operand,
    OperandType,
    PredUpdate,
    TagCheck,
    Trigger,
)
from repro.isa.opcodes import op_by_code
from repro.params import ArchParams


class _BitPacker:
    """Accumulates fields LSB-first into one integer."""

    def __init__(self) -> None:
        self.value = 0
        self.position = 0

    def put(self, value: int, width: int, what: str) -> None:
        if value < 0 or value >= (1 << width):
            raise EncodingError(f"{what} value {value} does not fit in {width} bits")
        self.value |= value << self.position
        self.position += width


class _BitUnpacker:
    """Reads fields LSB-first from one integer."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.position = 0

    def take(self, width: int) -> int:
        field = (self.value >> self.position) & ((1 << width) - 1)
        self.position += width
        return field


def encode_instruction(ins: Instruction, params: ArchParams) -> int:
    """Encode one instruction into its integer bit pattern."""
    ins.validate(params)
    p = params
    none_queue = p.num_input_queues
    packer = _BitPacker()

    packer.put(int(ins.valid), p.val_width, "Val")
    packer.put(ins.trigger.pred_on, p.num_preds, "PredMask on-set")
    packer.put(ins.trigger.pred_off, p.num_preds, "PredMask off-set")

    checks = list(ins.trigger.tag_checks)
    not_tags = 0
    tag_vals = 0
    for slot in range(p.max_check):
        if slot < len(checks):
            check = checks[slot]
            packer.put(check.queue, p.queue_index_width, "QueueIndices")
            if check.negate:
                not_tags |= 1 << slot
            tag_vals |= check.tag << (slot * p.tag_width)
        else:
            packer.put(none_queue, p.queue_index_width, "QueueIndices")
    packer.put(not_tags, p.not_tags_width, "NotTags")
    packer.put(tag_vals, p.tag_vals_width, "TagVals")

    packer.put(ins.dp.op.opcode, p.op_width, "Op")

    src_types = 0
    src_ids = 0
    for slot in range(p.num_srcs):
        if slot < len(ins.dp.srcs):
            src = ins.dp.srcs[slot]
            src_types |= src.kind.value << (slot * 2)
            if src.kind in (OperandType.REG, OperandType.IN):
                src_ids |= src.index << (slot * p.src_id_width)
    packer.put(src_types, p.src_types_width, "SrcTypes")
    packer.put(src_ids, p.src_ids_width, "SrcIDs")

    packer.put(ins.dp.dst.kind.value, p.dst_types_width, "DstTypes")
    dst_id = ins.dp.dst.index if ins.dp.dst.kind is not DestinationType.NONE else 0
    packer.put(dst_id, p.dst_ids_width, "DstIDs")
    out_tag = ins.dp.dst.out_tag if ins.dp.dst.kind is DestinationType.OUT else 0
    packer.put(out_tag, p.out_tag_width, "OutTag")

    for slot in range(p.max_deq):
        if slot < len(ins.dp.deq):
            packer.put(ins.dp.deq[slot], p.queue_index_width, "IQueueDeq")
        else:
            packer.put(none_queue, p.queue_index_width, "IQueueDeq")

    packer.put(ins.dp.pred_update.set_mask, p.num_preds, "PredUpdate set")
    packer.put(ins.dp.pred_update.clear_mask, p.num_preds, "PredUpdate clear")
    packer.put(ins.dp.imm & p.word_mask, p.imm_width, "Imm")

    if packer.position != p.instruction_width:
        raise EncodingError(
            f"internal encoding error: packed {packer.position} bits, "
            f"expected {p.instruction_width}"
        )
    return packer.value


def decode_instruction(word: int, params: ArchParams, label: str = "") -> Instruction:
    """Decode an integer bit pattern back into an :class:`Instruction`."""
    p = params
    if word < 0 or word >= (1 << p.padded_instruction_width):
        raise EncodingError(f"encoded instruction {word:#x} wider than the padded format")
    none_queue = p.num_input_queues
    bits = _BitUnpacker(word)

    valid = bool(bits.take(p.val_width))
    pred_on = bits.take(p.num_preds)
    pred_off = bits.take(p.num_preds)

    queue_indices = [bits.take(p.queue_index_width) for _ in range(p.max_check)]
    not_tags = bits.take(p.not_tags_width)
    tag_vals = bits.take(p.tag_vals_width)
    checks = []
    for slot, queue in enumerate(queue_indices):
        if queue == none_queue:
            continue
        if queue > none_queue:
            raise EncodingError(f"QueueIndices slot {slot} holds illegal queue {queue}")
        checks.append(
            TagCheck(
                queue=queue,
                tag=(tag_vals >> (slot * p.tag_width)) & (p.num_tags - 1),
                negate=bool((not_tags >> slot) & 1),
            )
        )

    opcode = bits.take(p.op_width)
    op = op_by_code(opcode)

    src_types = bits.take(p.src_types_width)
    src_ids = bits.take(p.src_ids_width)
    srcs = []
    for slot in range(p.num_srcs):
        kind = OperandType((src_types >> (slot * 2)) & 0b11)
        if kind is OperandType.NONE:
            continue
        index = (src_ids >> (slot * p.src_id_width)) & ((1 << p.src_id_width) - 1)
        srcs.append(Operand(kind, index if kind is not OperandType.IMM else 0))

    dst_kind = DestinationType(bits.take(p.dst_types_width))
    dst_id = bits.take(p.dst_ids_width)
    out_tag = bits.take(p.out_tag_width)
    if dst_kind is DestinationType.NONE:
        dst = Destination.none()
    elif dst_kind is DestinationType.OUT:
        dst = Destination.output_queue(dst_id, out_tag)
    else:
        dst = Destination(dst_kind, dst_id)

    deq = []
    for _ in range(p.max_deq):
        queue = bits.take(p.queue_index_width)
        if queue == none_queue:
            continue
        if queue > none_queue:
            raise EncodingError(f"IQueueDeq holds illegal queue {queue}")
        deq.append(queue)

    set_mask = bits.take(p.num_preds)
    clear_mask = bits.take(p.num_preds)
    imm = bits.take(p.imm_width)

    ins = Instruction(
        trigger=Trigger(pred_on=pred_on, pred_off=pred_off, tag_checks=tuple(checks)),
        dp=DatapathOp(
            op=op,
            srcs=tuple(srcs),
            dst=dst,
            imm=imm,
            deq=tuple(deq),
            pred_update=PredUpdate(set_mask=set_mask, clear_mask=clear_mask),
        ),
        valid=valid,
        label=label,
    )
    if valid:
        ins.validate(params)
    return ins


def encode_program(instructions: list[Instruction], params: ArchParams) -> bytes:
    """Encode a PE program as padded little-endian instruction words.

    Each instruction occupies ``padded_instruction_width`` bits (128 at
    default parameters) for the host's convenience, exactly as the paper's
    memory-mapped interface pads the 106-bit instruction to 128 bits.
    """
    _check_length(len(instructions), params)   # before any instruction
    return pack_program(
        [encode_instruction(ins, params) for ins in instructions], params)


def pack_program(words: list[int], params: ArchParams) -> bytes:
    """The binary :func:`encode_program` makes, from already encoded
    instruction words (:func:`encode_instruction`)."""
    _check_length(len(words), params)
    stride = params.padded_instruction_width // 8
    return b"".join(word.to_bytes(stride, "little") for word in words)


def _check_length(count: int, params: ArchParams) -> None:
    if count > params.num_instructions:
        raise EncodingError(
            f"program has {count} instructions, PE holds "
            f"{params.num_instructions}"
        )


def decode_program(blob: bytes, params: ArchParams) -> list[Instruction]:
    """Decode a binary produced by :func:`encode_program`."""
    stride = params.padded_instruction_width // 8
    if len(blob) % stride:
        raise EncodingError(
            f"binary length {len(blob)} is not a multiple of the "
            f"{stride}-byte padded instruction"
        )
    instructions = []
    for offset in range(0, len(blob), stride):
        word = int.from_bytes(blob[offset:offset + stride], "little")
        instructions.append(decode_instruction(word, params, label=f"ins{offset // stride}"))
    return instructions
