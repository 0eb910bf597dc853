"""Integer ALU with SPARC V8 condition-code semantics.

The ALU is used twice in the reproduction: by the main core's
functional executor, and by the SEC (soft-error check) extension,
which re-executes ALU results on the fabric the way Argus does.

Every ALU op3 is resolved once, at import, into one function in
:data:`ALU_OPS`, so :func:`execute_alu` is one table lookup and one
call.  The eleven ops whose value depends only on the two operands
export their value formula in :data:`ALU_VALUE`; the fused engine
closures compute those values inline from the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.isa.opcodes import Cond, Op3

MASK32 = 0xFFFFFFFF


class DivisionByZero(Exception):
    """SPARC raises a divide-by-zero trap; we surface it as an error."""


@dataclass(frozen=True)
class ConditionCodes:
    """The integer condition codes (icc): negative, zero, overflow,
    carry.  Packed as the 4-bit N|Z|V|C field of the trace packet.

    The class is frozen, so the ALU and :meth:`unpack` share one
    interned instance per 4-bit value, and its packed value is computed
    once, into ``cond``, which the fused engine reads per packet."""

    n: bool = False
    z: bool = False
    v: bool = False
    c: bool = False
    #: the packed N|Z|V|C value; derived, so not compared.
    cond: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cond", (self.n << 3) | (self.z << 2)
                           | (self.v << 1) | int(self.c))

    def pack(self) -> int:
        return self.cond

    @classmethod
    def unpack(cls, bits: int) -> "ConditionCodes":
        return _CODES[bits & 15]


#: The 16 possible condition codes, indexed by their packed value.
_CODES = tuple(
    ConditionCodes(n=bool(bits & 8), z=bool(bits & 4),
                   v=bool(bits & 2), c=bool(bits & 1))
    for bits in range(16)
)


class AluResult(NamedTuple):
    """Result of one ALU operation."""

    value: int
    codes: ConditionCodes | None  # None if the op does not set icc
    y: int | None = None  # new value of the Y register, if written


#: Builds an AluResult without the keyword-capable ``__new__``.
_tuple_new = tuple.__new__


def _signed(value: int) -> int:
    return (value & MASK32) - ((value & 0x80000000) << 1)


def _signed_64(value: int) -> int:
    value &= (1 << 64) - 1
    return value - ((value & (1 << 63)) << 1)


def _nz(value: int) -> ConditionCodes:
    """Codes with N and Z from ``value``, V and C clear."""
    return _CODES[((value >> 28) & 8) | ((value == 0) << 2)]


#: op3 -> ``f(a, b)`` for the ops whose 32-bit value depends only on
#: the two operands: no carry in, no Y, no condition codes.
ALU_VALUE = {
    Op3.ADD: lambda a, b: (a + b) & MASK32,
    Op3.SUB: lambda a, b: (a - b) & MASK32,
    Op3.AND: lambda a, b: a & b & MASK32,
    Op3.ANDN: lambda a, b: a & ~b & MASK32,
    Op3.OR: lambda a, b: (a | b) & MASK32,
    Op3.ORN: lambda a, b: (a | ~b) & MASK32,
    Op3.XOR: lambda a, b: (a ^ b) & MASK32,
    Op3.XNOR: lambda a, b: ~(a ^ b) & MASK32,
    Op3.SLL: lambda a, b: (a << (b & 31)) & MASK32,
    Op3.SRL: lambda a, b: (a >> (b & 31)) & MASK32,
    Op3.SRA: lambda a, b: (_signed(a) >> (b & 31)) & MASK32,
}


def _plain(valfn):
    def op(a, b, carry, y):
        return _tuple_new(AluResult, (valfn(a, b), None, None))
    return op


def _logic_cc(valfn):
    def op(a, b, carry, y):
        value = valfn(a, b)
        return _tuple_new(AluResult, (value, _nz(value), None))
    return op


def _add_cc(with_carry):
    def op(a, b, carry, y):
        total = a + b + carry if with_carry else a + b
        value = total & MASK32
        bits = (((value >> 28) & 8) | ((value == 0) << 2)
                | (((~(a ^ b) & (a ^ value)) >> 30) & 2) | (total > MASK32))
        return _tuple_new(AluResult, (value, _CODES[bits], None))
    return op


def _sub_cc(with_carry):
    def op(a, b, carry, y):
        total = a - b - carry if with_carry else a - b
        value = total & MASK32
        # SPARC subcc sets C on borrow.
        bits = (((value >> 28) & 8) | ((value == 0) << 2)
                | ((((a ^ b) & (a ^ value)) >> 30) & 2) | (total < 0))
        return _tuple_new(AluResult, (value, _CODES[bits], None))
    return op


def _addx(a, b, carry, y):
    return _tuple_new(AluResult, ((a + b + carry) & MASK32, None, None))


def _subx(a, b, carry, y):
    return _tuple_new(AluResult, ((a - b - carry) & MASK32, None, None))


def _mul(signed, cc):
    def op(a, b, carry, y):
        product = _signed(a) * _signed(b) if signed else a * b
        value = product & MASK32
        return _tuple_new(AluResult, (
            value, _nz(value) if cc else None, (product >> 32) & MASK32,
        ))
    return op


def _udiv(cc):
    def op(a, b, carry, y):
        if b == 0:
            raise DivisionByZero("udiv by zero")
        quotient = ((y << 32) | a) // b
        overflow = quotient > MASK32
        value = MASK32 if overflow else quotient
        codes = None
        if cc:
            codes = _CODES[((value >> 28) & 8) | ((value == 0) << 2)
                           | (overflow << 1)]
        return _tuple_new(AluResult, (value, codes, None))
    return op


def _sdiv(cc):
    def op(a, b, carry, y):
        if b == 0:
            raise DivisionByZero("sdiv by zero")
        dividend = _signed_64((y << 32) | a)
        divisor = _signed(b)
        # Exact integer division truncating toward zero: true division
        # would round the quotient through a double first.
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        overflow = not -(1 << 31) <= quotient <= (1 << 31) - 1
        if overflow:
            quotient = (1 << 31) - 1 if quotient > 0 else -(1 << 31)
        value = quotient & MASK32
        codes = None
        if cc:
            codes = _CODES[((value >> 28) & 8) | ((value == 0) << 2)
                           | (overflow << 1)]
        return _tuple_new(AluResult, (value, codes, None))
    return op


#: op3 -> ``f(a, b, carry, y) -> AluResult`` for every ALU op, with
#: ``a``/``b`` already masked to 32 bits.
ALU_OPS = {op3: _plain(valfn) for op3, valfn in ALU_VALUE.items()}
ALU_OPS.update({
    Op3.ADDCC: _add_cc(False),
    Op3.ADDXCC: _add_cc(True),
    Op3.SUBCC: _sub_cc(False),
    Op3.SUBXCC: _sub_cc(True),
    Op3.ADDX: _addx,
    Op3.SUBX: _subx,
    Op3.UMUL: _mul(False, False),
    Op3.UMULCC: _mul(False, True),
    Op3.SMUL: _mul(True, False),
    Op3.SMULCC: _mul(True, True),
    Op3.UDIV: _udiv(False),
    Op3.UDIVCC: _udiv(True),
    Op3.SDIV: _sdiv(False),
    Op3.SDIVCC: _sdiv(True),
})
for _cc_op, _base in ((Op3.ANDCC, Op3.AND), (Op3.ANDNCC, Op3.ANDN),
                      (Op3.ORCC, Op3.OR), (Op3.ORNCC, Op3.ORN),
                      (Op3.XORCC, Op3.XOR), (Op3.XNORCC, Op3.XNOR)):
    ALU_OPS[_cc_op] = _logic_cc(ALU_VALUE[_base])


def execute_alu(
    op3: Op3, a: int, b: int, carry: bool = False, y: int = 0
) -> AluResult:
    """Execute one integer ALU operation.

    ``a``/``b`` are the 32-bit source operands, ``carry`` the incoming
    carry flag (for addx/subx) and ``y`` the Y register (for division
    and as the destination of multiplication high bits).
    """
    fn = ALU_OPS.get(op3)
    if fn is None:
        Op3(op3)  # raises the enum's ValueError for a value outside Op3
        raise ValueError(f"not an ALU operation: {op3!r}")
    return fn(a & MASK32, b & MASK32, carry, y)


#: Bicc condition -> ``f(codes) -> taken``.
CONDITIONS = {
    Cond.BA: lambda codes: True,
    Cond.BN: lambda codes: False,
    Cond.BE: lambda codes: codes.z,
    Cond.BNE: lambda codes: not codes.z,
    Cond.BG: lambda codes: not (codes.z or (codes.n != codes.v)),
    Cond.BLE: lambda codes: codes.z or (codes.n != codes.v),
    Cond.BGE: lambda codes: codes.n == codes.v,
    Cond.BL: lambda codes: codes.n != codes.v,
    Cond.BGU: lambda codes: not (codes.c or codes.z),
    Cond.BLEU: lambda codes: codes.c or codes.z,
    Cond.BCC: lambda codes: not codes.c,
    Cond.BCS: lambda codes: codes.c,
    Cond.BPOS: lambda codes: not codes.n,
    Cond.BNEG: lambda codes: codes.n,
    Cond.BVC: lambda codes: not codes.v,
    Cond.BVS: lambda codes: codes.v,
}
