"""ALU semantics: exact SPARC V8 arithmetic, condition codes."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.alu import (
    ALU_OPS,
    AluResult,
    ConditionCodes,
    DivisionByZero,
    execute_alu,
)
from repro.isa.opcodes import Op3

U32 = st.integers(0, 0xFFFFFFFF)
MASK = 0xFFFFFFFF


def signed(x):
    return (x & MASK) - ((x & 0x80000000) << 1)


class TestAdd:
    def test_simple(self):
        assert execute_alu(Op3.ADD, 2, 3).value == 5

    def test_wraps(self):
        assert execute_alu(Op3.ADD, 0xFFFFFFFF, 1).value == 0

    def test_addcc_carry(self):
        result = execute_alu(Op3.ADDCC, 0xFFFFFFFF, 1)
        assert result.codes.c and result.codes.z

    def test_addcc_signed_overflow(self):
        result = execute_alu(Op3.ADDCC, 0x7FFFFFFF, 1)
        assert result.codes.v and result.codes.n

    def test_addx_uses_carry(self):
        assert execute_alu(Op3.ADDX, 1, 1, carry=True).value == 3

    def test_plain_add_sets_no_codes(self):
        assert execute_alu(Op3.ADD, 1, 1).codes is None


class TestSub:
    def test_simple(self):
        assert execute_alu(Op3.SUB, 10, 3).value == 7

    def test_borrow_sets_carry(self):
        result = execute_alu(Op3.SUBCC, 0, 1)
        assert result.codes.c
        assert result.value == 0xFFFFFFFF

    def test_subcc_zero(self):
        result = execute_alu(Op3.SUBCC, 7, 7)
        assert result.codes.z and not result.codes.c

    def test_subx(self):
        assert execute_alu(Op3.SUBX, 10, 3, carry=True).value == 6

    def test_signed_overflow(self):
        result = execute_alu(Op3.SUBCC, 0x80000000, 1)
        assert result.codes.v


class TestLogic:
    @pytest.mark.parametrize("op3,a,b,expected", [
        (Op3.AND, 0b1100, 0b1010, 0b1000),
        (Op3.OR, 0b1100, 0b1010, 0b1110),
        (Op3.XOR, 0b1100, 0b1010, 0b0110),
        (Op3.ANDN, 0b1100, 0b1010, 0b0100),
        (Op3.ORN, 0, 0xFFFFFFFF, 0),
        (Op3.XNOR, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
    ])
    def test_operations(self, op3, a, b, expected):
        assert execute_alu(op3, a, b).value == expected

    def test_logic_cc_clears_v_and_c(self):
        result = execute_alu(Op3.ANDCC, 0xF0000000, 0xF0000000)
        assert result.codes.n
        assert not result.codes.v and not result.codes.c


class TestShifts:
    def test_sll(self):
        assert execute_alu(Op3.SLL, 1, 4).value == 16

    def test_srl_is_logical(self):
        assert execute_alu(Op3.SRL, 0x80000000, 31).value == 1

    def test_sra_is_arithmetic(self):
        assert execute_alu(Op3.SRA, 0x80000000, 31).value == 0xFFFFFFFF

    def test_shift_count_masked_to_5_bits(self):
        assert execute_alu(Op3.SLL, 1, 33).value == 2


class TestMultiply:
    def test_umul_low_and_y(self):
        result = execute_alu(Op3.UMUL, 0xFFFFFFFF, 2)
        assert result.value == 0xFFFFFFFE
        assert result.y == 1

    def test_smul_negative(self):
        result = execute_alu(Op3.SMUL, (-3) & MASK, 4)
        assert signed(result.value) == -12
        assert result.y == 0xFFFFFFFF

    def test_umulcc_codes_from_low_word(self):
        result = execute_alu(Op3.UMULCC, 1 << 31, 2)
        assert result.codes.z  # low word is zero


class TestDivide:
    def test_udiv(self):
        assert execute_alu(Op3.UDIV, 100, 7, y=0).value == 14

    def test_udiv_uses_y_as_high_word(self):
        # (1 << 32 | 0) / 2 = 1 << 31
        assert execute_alu(Op3.UDIV, 0, 2, y=1).value == 0x80000000

    def test_udiv_overflow_clamps(self):
        result = execute_alu(Op3.UDIVCC, 0, 1, y=2)
        assert result.value == 0xFFFFFFFF
        assert result.codes.v

    def test_sdiv_negative(self):
        result = execute_alu(Op3.SDIV, (-100) & MASK, 7,
                             y=0xFFFFFFFF)  # sign-extended dividend
        assert signed(result.value) == -14

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            execute_alu(Op3.UDIV, 1, 0)

    def test_sdiv_truncates_exactly(self):
        # 0x1fffffff_bfffffff / 0x7fffffff = 0x3fffffff.fffffffd...: a
        # double rounds that quotient up to 0x40000000.
        result = execute_alu(Op3.SDIV, 0xBFFFFFFF, 0x7FFFFFFF,
                             y=0x1FFFFFFF)
        assert result.value == 0x3FFFFFFF


class TestConditionCodes:
    def test_pack_unpack(self):
        codes = ConditionCodes(n=True, z=False, v=True, c=False)
        assert ConditionCodes.unpack(codes.pack()) == codes

    def test_pack_bit_order(self):
        assert ConditionCodes(n=True).pack() == 0b1000
        assert ConditionCodes(c=True).pack() == 0b0001


# ---------------------------------------------------------------------------
# Properties against Python big-int arithmetic.


@given(U32, U32)
def test_property_add_matches_bigint(a, b):
    assert execute_alu(Op3.ADD, a, b).value == (a + b) & MASK


@given(U32, U32)
def test_property_sub_matches_bigint(a, b):
    assert execute_alu(Op3.SUB, a, b).value == (a - b) & MASK


@given(U32, U32)
def test_property_umul_full_product(a, b):
    result = execute_alu(Op3.UMUL, a, b)
    assert (result.y << 32) | result.value == a * b


@given(U32, st.integers(1, 0xFFFFFFFF))
def test_property_udiv_matches_bigint(a, b):
    value = execute_alu(Op3.UDIV, a, b, y=0).value
    assert value == min(a // b, MASK)


@given(U32, U32)
def test_property_xor_involution(a, b):
    once = execute_alu(Op3.XOR, a, b).value
    assert execute_alu(Op3.XOR, once, b).value == a


@given(U32, U32)
def test_property_addcc_carry_iff_overflow_33bit(a, b):
    result = execute_alu(Op3.ADDCC, a, b)
    assert result.codes.c == (a + b > MASK)


@given(U32, U32)
def test_property_subcc_flags_match_comparison(a, b):
    """The flags produced by subcc implement unsigned/signed compares."""
    codes = execute_alu(Op3.SUBCC, a, b).codes
    assert codes.c == (a < b)  # unsigned below
    assert codes.z == (a == b)
    assert (codes.n != codes.v) == (signed(a) < signed(b))


# ---------------------------------------------------------------------------
# The table-driven ALU against an independent big-int model of SPARC V8.

#: Format-3 ALU-space op3s that are not integer ALU operations.
NOT_ALU = {Op3.RDY, Op3.WRY, Op3.FLEXOP, Op3.JMPL, Op3.RETT, Op3.TICC,
           Op3.SAVE, Op3.RESTORE}
ALU_OP3S = sorted(op for op in Op3 if op not in NOT_ALU)


def _s64(value):
    return value - ((value & (1 << 63)) << 1)


def oracle(op3, a, b, carry, y):
    """(value, codes, y) of one ALU op, straight from the V8 manual's
    definitions on unbounded integers; raises DivisionByZero."""
    name = Op3(op3).name
    cc = name.endswith("CC")
    base = name[:-2] if cc else name
    cin = int(carry) if base in ("ADDX", "SUBX") else 0
    v = c = False
    new_y = None
    if base in ("ADD", "ADDX"):
        total = a + b + cin
        c = total >= 1 << 32
        v = not -(1 << 31) <= signed(a) + signed(b) + cin < 1 << 31
    elif base in ("SUB", "SUBX"):
        total = a - b - cin
        c = total < 0
        v = not -(1 << 31) <= signed(a) - signed(b) - cin < 1 << 31
    elif base in ("AND", "ANDN", "OR", "ORN", "XOR", "XNOR"):
        other = ~b if base in ("ANDN", "ORN", "XNOR") else b
        total = {"AND": a & other, "ANDN": a & other, "OR": a | other,
                 "ORN": a | other, "XOR": a ^ other,
                 "XNOR": a ^ other}[base]
    elif base == "SLL":
        total = a << (b % 32)
    elif base == "SRL":
        total = a >> (b % 32)
    elif base == "SRA":
        total = signed(a) >> (b % 32)
    elif base in ("UMUL", "SMUL"):
        total = a * b if base == "UMUL" else signed(a) * signed(b)
        new_y = (total >> 32) % (1 << 32)
    else:
        if b == 0:
            raise DivisionByZero
        if base == "UDIV":
            total = ((y << 32) | a) // b
            v = total > MASK
            total = min(total, MASK)
        else:
            total = int(Fraction(_s64((y << 32) | a), signed(b)))
            v = not -(1 << 31) <= total < 1 << 31
            total = max(-(1 << 31), min(total, (1 << 31) - 1))
    value = total % (1 << 32)
    codes = None
    if cc:
        codes = ConditionCodes(n=value >= 1 << 31, z=value == 0,
                               v=v, c=c)
    return value, codes, new_y


@given(st.sampled_from(ALU_OP3S), U32, U32, st.booleans(), U32)
def test_property_every_op_matches_oracle(op3, a, b, carry, y):
    try:
        expected = oracle(op3, a, b, carry, y)
    except DivisionByZero:
        with pytest.raises(DivisionByZero):
            execute_alu(op3, a, b, carry=carry, y=y)
        return
    assert tuple(execute_alu(op3, a, b, carry=carry, y=y)) == expected


@given(st.sampled_from([Op3.SDIV, Op3.SDIVCC]), U32,
       st.integers(1, 0xFFFFFFFF), U32)
def test_property_sdiv_matches_oracle(op3, a, b, y):
    assert tuple(execute_alu(op3, a, b, y=y)) == oracle(op3, a, b, False, y)


def test_table_covers_exactly_the_alu_ops():
    assert sorted(ALU_OPS) == ALU_OP3S


@pytest.mark.parametrize("op3", range(64))
def test_every_op3_value(op3):
    """ALU ops execute; every other op3 raises a plain ValueError with
    the message the executor has always given."""
    if op3 in ALU_OP3S:
        assert execute_alu(op3, 6, 3).value == execute_alu(
            Op3(op3), 6, 3).value
        return
    if op3 in {int(member) for member in Op3}:
        messages = [(op3, f"not an ALU operation: {op3!r}"),
                    (Op3(op3), f"not an ALU operation: {Op3(op3)!r}")]
    else:
        messages = [(op3, f"{op3} is not a valid Op3")]
    for arg, message in messages:
        with pytest.raises(ValueError) as info:
            execute_alu(arg, 1, 2)
        assert type(info.value) is ValueError
        assert str(info.value) == message


def test_alu_result_is_an_immutable_triple():
    result = execute_alu(Op3.UMULCC, 3, 5)
    assert AluResult._fields == ("value", "codes", "y")
    assert result == AluResult(value=15, codes=ConditionCodes(), y=0)
    with pytest.raises(AttributeError):
        result.value = 0


@given(st.sampled_from(ALU_OP3S), U32, st.integers(1, 0xFFFFFFFF),
       st.booleans(), U32)
def test_property_codes_are_canonical(op3, a, b, carry, y):
    codes = execute_alu(op3, a, b, carry=carry, y=y).codes
    if codes is not None:
        assert codes == ConditionCodes.unpack(codes.pack())
        assert all(type(flag) is bool
                   for flag in (codes.n, codes.z, codes.v, codes.c))
