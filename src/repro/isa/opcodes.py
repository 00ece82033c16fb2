"""The 42 operations of the triggered integer ISA.

The paper fixes ``NOps = 42`` (Table 1) and describes the ISA as a
RISC-style integer set with a full complement of arithmetic and logical
operations, two-word-product multiplication, a wide range of comparisons
aimed at predicate writes, rich bit manipulation (``clz``/``ctz``), and
scratchpad loads/stores — with division and floating point deliberately
omitted (``udiv`` is provided as a software macro benchmark instead).

Each operation carries:

* an :class:`OpClass` used by the VLSI component model for activity
  weighting and by the pipeline model for functional-unit selection, and
* a ``late_result`` flag — operations that produce their value at the end
  of the *second* execute stage in split-ALU (X1|X2) pipelines.  Simple
  single-stage ALU operations resolve at the end of X1 and can be
  forwarded a cycle earlier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OpClass(enum.Enum):
    """Functional categories of operations."""

    MISC = "misc"            # nop, mov, halt
    ARITH = "arith"          # add/sub
    MULTIPLY = "multiply"    # two-word-product multiplication
    LOGIC = "logic"          # bitwise logic
    SHIFT = "shift"          # shifts and rotates
    BITMANIP = "bitmanip"    # clz/ctz/popc/brev/sext
    COMPARE = "compare"      # comparisons producing 0/1
    PREDLOGIC = "predlogic"  # logical and/or on truth values
    MEMORY = "memory"        # scratchpad load/store


@dataclass(frozen=True)
class OpEffects:
    """Declarative per-opcode effect metadata.

    This is the single source of truth for what an operation *does* to
    architectural state beyond writing its destination.  The simulators,
    the fuzz generator, and the static analyzer all read it — ad-hoc
    mnemonic lists and string comparisons are exactly the kind of
    knowledge that silently drifts when the ISA changes.

    Note the split of responsibilities: *dequeues*, *enqueues* and
    *writes_predicate* are properties of a particular instruction (its
    ``deq`` list and destination kind), not of the opcode; the
    capability flags here say whether an opcode's result can legally be
    steered there at all (``has_dst``).  The opcode-intrinsic effects —
    scratchpad traffic and halting — live only here.
    """

    stores_scratchpad: bool = False   # ssw: writes PE-local memory
    loads_scratchpad: bool = False    # lsw: reads PE-local memory
    halts: bool = False               # halt: stops the PE at retirement
    boolean_result: bool = False      # result is a 0/1 truth value

    @property
    def side_effecting(self) -> bool:
        """Architectural effect beyond the named destination write."""
        return self.stores_scratchpad or self.halts

    @property
    def touches_scratchpad(self) -> bool:
        return self.stores_scratchpad or self.loads_scratchpad


_NO_EFFECTS = OpEffects()


@dataclass(frozen=True)
class Op:
    """One ISA operation."""

    mnemonic: str
    opcode: int
    op_class: OpClass
    num_srcs: int
    description: str
    late_result: bool = False   # resolves in X2 on split-ALU pipelines
    has_dst: bool = True        # produces a value to write somewhere
    effects: OpEffects = _NO_EFFECTS


def _build_ops() -> tuple[Op, ...]:
    table = [
        # mnemonic, class, nsrcs, late, has_dst, description
        ("nop", OpClass.MISC, 0, False, False, "No operation"),
        ("mov", OpClass.MISC, 1, False, True, "Copy source to destination"),
        ("add", OpClass.ARITH, 2, False, True, "Integer addition"),
        ("sub", OpClass.ARITH, 2, False, True, "Integer subtraction"),
        ("mul", OpClass.MULTIPLY, 2, True, True, "Multiply, low word of product"),
        ("mulh", OpClass.MULTIPLY, 2, True, True, "Multiply, high word, signed"),
        ("mulhu", OpClass.MULTIPLY, 2, True, True, "Multiply, high word, unsigned"),
        ("and", OpClass.LOGIC, 2, False, True, "Bitwise AND"),
        ("or", OpClass.LOGIC, 2, False, True, "Bitwise OR"),
        ("xor", OpClass.LOGIC, 2, False, True, "Bitwise XOR"),
        ("nor", OpClass.LOGIC, 2, False, True, "Bitwise NOR"),
        ("nand", OpClass.LOGIC, 2, False, True, "Bitwise NAND"),
        ("xnor", OpClass.LOGIC, 2, False, True, "Bitwise XNOR"),
        ("not", OpClass.LOGIC, 1, False, True, "Bitwise complement"),
        ("shl", OpClass.SHIFT, 2, False, True, "Logical shift left"),
        ("shr", OpClass.SHIFT, 2, False, True, "Logical shift right"),
        ("asr", OpClass.SHIFT, 2, False, True, "Arithmetic shift right"),
        ("rol", OpClass.SHIFT, 2, False, True, "Rotate left"),
        ("ror", OpClass.SHIFT, 2, False, True, "Rotate right"),
        ("clz", OpClass.BITMANIP, 1, False, True, "Count leading zeros"),
        ("ctz", OpClass.BITMANIP, 1, False, True, "Count trailing zeros"),
        ("popc", OpClass.BITMANIP, 1, False, True, "Population count"),
        ("brev", OpClass.BITMANIP, 1, False, True, "Bit reversal"),
        ("sext8", OpClass.BITMANIP, 1, False, True, "Sign-extend low byte"),
        ("sext16", OpClass.BITMANIP, 1, False, True, "Sign-extend low halfword"),
        ("eq", OpClass.COMPARE, 2, False, True, "Set 1 if equal"),
        ("ne", OpClass.COMPARE, 2, False, True, "Set 1 if not equal"),
        ("slt", OpClass.COMPARE, 2, False, True, "Set 1 if signed less than"),
        ("sle", OpClass.COMPARE, 2, False, True, "Set 1 if signed less or equal"),
        ("sgt", OpClass.COMPARE, 2, False, True, "Set 1 if signed greater than"),
        ("sge", OpClass.COMPARE, 2, False, True, "Set 1 if signed greater or equal"),
        ("ult", OpClass.COMPARE, 2, False, True, "Set 1 if unsigned less than"),
        ("ule", OpClass.COMPARE, 2, False, True, "Set 1 if unsigned less or equal"),
        ("ugt", OpClass.COMPARE, 2, False, True, "Set 1 if unsigned greater than"),
        ("uge", OpClass.COMPARE, 2, False, True, "Set 1 if unsigned greater or equal"),
        ("eqz", OpClass.COMPARE, 1, False, True, "Set 1 if zero"),
        ("nez", OpClass.COMPARE, 1, False, True, "Set 1 if non-zero"),
        ("land", OpClass.PREDLOGIC, 2, False, True, "Logical AND of truth values"),
        ("lor", OpClass.PREDLOGIC, 2, False, True, "Logical OR of truth values"),
        ("lsw", OpClass.MEMORY, 1, True, True, "Load word from scratchpad"),
        ("ssw", OpClass.MEMORY, 2, False, False, "Store word to scratchpad"),
        ("halt", OpClass.MISC, 0, False, False, "Halt this processing element"),
    ]
    effects = {
        "lsw": OpEffects(loads_scratchpad=True),
        "ssw": OpEffects(stores_scratchpad=True),
        "halt": OpEffects(halts=True),
    }
    boolean = OpEffects(boolean_result=True)
    for m, c, _n, _late, _dst, _d in table:
        if c in (OpClass.COMPARE, OpClass.PREDLOGIC):
            effects[m] = boolean
    ops = tuple(
        Op(mnemonic=m, opcode=i, op_class=c, num_srcs=n, late_result=late,
           has_dst=dst, description=d, effects=effects.get(m, _NO_EFFECTS))
        for i, (m, c, n, late, dst, d) in enumerate(table)
    )
    return ops


OPS: tuple[Op, ...] = _build_ops()
"""All 42 operations, indexed by opcode."""

_BY_NAME = {op.mnemonic: op for op in OPS}

assert len(OPS) == 42, "the ISA must define exactly NOps = 42 operations"
assert len(_BY_NAME) == 42, "operation mnemonics must be unique"


def op_by_name(mnemonic: str) -> Op:
    """Look up an operation by mnemonic.

    Raises :class:`KeyError` with the list of valid mnemonics on a miss.
    """
    try:
        return _BY_NAME[mnemonic]
    except KeyError:
        raise KeyError(
            f"unknown operation {mnemonic!r}; valid operations are "
            f"{sorted(_BY_NAME)}"
        ) from None


def op_by_code(opcode: int) -> Op:
    """Look up an operation by its numeric opcode."""
    if not 0 <= opcode < len(OPS):
        raise KeyError(f"opcode {opcode} out of range 0..{len(OPS) - 1}")
    return OPS[opcode]


# ----------------------------------------------------------------------
# Derived operation groups
#
# Consumers that need "every op of shape X" (the fuzz generator, the
# static analyzer's commutation rules) derive the groups from the table
# above instead of keeping their own mnemonic lists.
# ----------------------------------------------------------------------

ALU_OPS_1SRC: tuple[str, ...] = tuple(
    op.mnemonic for op in OPS
    if op.num_srcs == 1 and op.has_dst and not op.effects.touches_scratchpad
)
"""Pure one-source value-producing operations (no scratchpad traffic)."""

ALU_OPS_2SRC: tuple[str, ...] = tuple(
    op.mnemonic for op in OPS
    if op.num_srcs == 2 and op.has_dst and not op.effects.touches_scratchpad
)
"""Pure two-source value-producing operations (no scratchpad traffic)."""

BOOLEAN_OPS_1SRC: tuple[str, ...] = tuple(
    op.mnemonic for op in OPS
    if op.num_srcs == 1 and op.effects.boolean_result
)
"""One-source operations producing 0/1 (natural predicate writers)."""

BOOLEAN_OPS_2SRC: tuple[str, ...] = tuple(
    op.mnemonic for op in OPS
    if op.num_srcs == 2 and op.effects.boolean_result
)
"""Two-source operations producing 0/1 (natural predicate writers)."""

SIDE_EFFECTING_OPS: tuple[str, ...] = tuple(
    op.mnemonic for op in OPS if op.effects.side_effecting
)
"""Opcodes with architectural effects beyond their destination write."""
