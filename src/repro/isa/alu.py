"""Integer semantics for every ISA operation.

All values are Python ints held in unsigned word representation
(0 .. 2**word_width - 1).  Signed operations reinterpret the bit pattern
in two's complement.  Results are always truncated back to the word.

Each entry of ``_SEMANTICS`` returns the operation's result word.  A
scratchpad load reads the scratchpad object passed by the caller; the
store and ``halt`` act through opcode effects (``Op.effects``) that the
executors apply at retirement, so the same semantics serve the
functional simulator and every pipeline model.  :func:`alu_execute`
bundles the word and those effects into an :class:`AluResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.isa.opcodes import Op
from repro.params import ArchParams


@dataclass(frozen=True, slots=True)
class AluResult:
    """Outcome of executing one operation's datapath."""

    value: int = 0
    halt: bool = False
    store: tuple[int, int] | None = None   # (address, value) for ssw


def to_signed(value: int, params: ArchParams) -> int:
    """Reinterpret an unsigned word as two's-complement signed."""
    value &= params.word_mask
    if value & params.word_sign_bit:
        return value - (1 << params.word_width)
    return value


def to_unsigned(value: int, params: ArchParams) -> int:
    """Truncate any Python int into the unsigned word representation."""
    return value & params.word_mask


def _clz(x: int, width: int) -> int:
    if x == 0:
        return width
    return width - x.bit_length()


def _ctz(x: int, width: int) -> int:
    if x == 0:
        return width
    return (x & -x).bit_length() - 1


def _brev(x: int, width: int) -> int:
    result = 0
    for _ in range(width):
        result = (result << 1) | (x & 1)
        x >>= 1
    return result


def _lsw(a, b, p, mask, w, spad):
    if spad is None:
        raise SimulationError("lsw executed on a PE without a scratchpad")
    return spad.load(a) & mask


def _ssw(a, b, p, mask, w, spad):
    # The store itself (address a, data b) is applied at retirement.
    if spad is None:
        raise SimulationError("ssw executed on a PE without a scratchpad")
    return 0


def _rol(a, b, p, mask, w, spad):
    s = b % w
    return ((a << s) | (a >> (w - s))) & mask if s else a


def _ror(a, b, p, mask, w, spad):
    s = b % w
    return ((a >> s) | (a << (w - s))) & mask if s else a


def _sext8(a, b, p, mask, w, spad):
    v = a & 0xFF
    return (v | (mask ^ 0xFF)) & mask if v & 0x80 else v


def _sext16(a, b, p, mask, w, spad):
    v = a & 0xFFFF
    return (v | (mask ^ 0xFFFF)) & mask if v & 0x8000 else v


# A flag is the word 0 or 1, indexed by the comparison (a bool indexes
# a tuple, so the result is a plain int).
_FLAG = (0, 1)

# Dispatch table: one callable per mnemonic with the uniform signature
# (a, b, params, mask, w, scratchpad) -> result word.  Table lookup
# replaced a linear mnemonic-comparison chain whose worst case walked
# ~40 string compares per executed instruction.
_SEMANTICS = {
    "nop": lambda a, b, p, mask, w, s: 0,
    "halt": lambda a, b, p, mask, w, s: 0,
    "mov": lambda a, b, p, mask, w, s: a,
    "add": lambda a, b, p, mask, w, s: (a + b) & mask,
    "sub": lambda a, b, p, mask, w, s: (a - b) & mask,
    "mul": lambda a, b, p, mask, w, s: (a * b) & mask,
    "mulh": lambda a, b, p, mask, w, s: (
        (to_signed(a, p) * to_signed(b, p)) >> w) & mask,
    "mulhu": lambda a, b, p, mask, w, s: ((a * b) >> w) & mask,
    "and": lambda a, b, p, mask, w, s: a & b,
    "or": lambda a, b, p, mask, w, s: a | b,
    "xor": lambda a, b, p, mask, w, s: a ^ b,
    "nor": lambda a, b, p, mask, w, s: ~(a | b) & mask,
    "nand": lambda a, b, p, mask, w, s: ~(a & b) & mask,
    "xnor": lambda a, b, p, mask, w, s: ~(a ^ b) & mask,
    "not": lambda a, b, p, mask, w, s: ~a & mask,
    "shl": lambda a, b, p, mask, w, s: (a << (b % w)) & mask,
    "shr": lambda a, b, p, mask, w, s: (a >> (b % w)) & mask,
    "asr": lambda a, b, p, mask, w, s: (to_signed(a, p) >> (b % w)) & mask,
    "rol": _rol,
    "ror": _ror,
    "clz": lambda a, b, p, mask, w, s: _clz(a, w),
    "ctz": lambda a, b, p, mask, w, s: _ctz(a, w),
    "popc": lambda a, b, p, mask, w, s: bin(a).count("1"),
    "brev": lambda a, b, p, mask, w, s: _brev(a, w),
    "sext8": _sext8,
    "sext16": _sext16,
    "eq": lambda a, b, p, mask, w, s: _FLAG[a == b],
    "ne": lambda a, b, p, mask, w, s: _FLAG[a != b],
    "slt": lambda a, b, p, mask, w, s: _FLAG[to_signed(a, p) < to_signed(b, p)],
    "sle": lambda a, b, p, mask, w, s: _FLAG[to_signed(a, p) <= to_signed(b, p)],
    "sgt": lambda a, b, p, mask, w, s: _FLAG[to_signed(a, p) > to_signed(b, p)],
    "sge": lambda a, b, p, mask, w, s: _FLAG[to_signed(a, p) >= to_signed(b, p)],
    "ult": lambda a, b, p, mask, w, s: _FLAG[a < b],
    "ule": lambda a, b, p, mask, w, s: _FLAG[a <= b],
    "ugt": lambda a, b, p, mask, w, s: _FLAG[a > b],
    "uge": lambda a, b, p, mask, w, s: _FLAG[a >= b],
    "eqz": lambda a, b, p, mask, w, s: _FLAG[a == 0],
    "nez": lambda a, b, p, mask, w, s: _FLAG[a != 0],
    "land": lambda a, b, p, mask, w, s: _FLAG[bool(a) and bool(b)],
    "lor": lambda a, b, p, mask, w, s: _FLAG[bool(a) or bool(b)],
    "lsw": _lsw,
    "ssw": _ssw,
}


def alu_execute(
    op: Op,
    a: int,
    b: int,
    params: ArchParams,
    scratchpad=None,
) -> AluResult:
    """Execute one operation on unsigned-word operands ``a`` and ``b``.

    ``scratchpad`` must support ``load(addr)`` and is only consulted by
    ``lsw``; a store is reported as ``AluResult.store``, not performed.
    """
    semantics = _SEMANTICS.get(op.mnemonic)
    if semantics is None:
        raise SimulationError(f"operation {op.mnemonic!r} has no defined semantics")
    mask = params.word_mask
    a &= mask
    b &= mask
    return AluResult(
        semantics(a, b, params, mask, params.word_width, scratchpad),
        op.effects.halts,
        (a, b) if op.effects.stores_scratchpad else None,
    )
