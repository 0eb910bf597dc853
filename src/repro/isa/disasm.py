"""Disassembler for the SPARC V8 subset.

Produces assembler-compatible text: ``assemble(disassemble(word))``
round-trips to the same encoding (modulo label-relative branch and
call targets, which render as absolute hex with the instruction's own
address taken into account).
"""

from __future__ import annotations

from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, FlexOpf, Op, Op2, Op3, Op3Mem
from repro.isa.registers import register_name

_BRANCH_NAMES = {
    Cond.BA: "ba", Cond.BN: "bn", Cond.BE: "be", Cond.BNE: "bne",
    Cond.BG: "bg", Cond.BLE: "ble", Cond.BGE: "bge", Cond.BL: "bl",
    Cond.BGU: "bgu", Cond.BLEU: "bleu", Cond.BCC: "bcc",
    Cond.BCS: "bcs", Cond.BPOS: "bpos", Cond.BNEG: "bneg",
    Cond.BVC: "bvc", Cond.BVS: "bvs",
}

_ALU_NAMES = {
    Op3.ADD: "add", Op3.ADDCC: "addcc", Op3.ADDX: "addx",
    Op3.ADDXCC: "addxcc", Op3.SUB: "sub", Op3.SUBCC: "subcc",
    Op3.SUBX: "subx", Op3.SUBXCC: "subxcc", Op3.AND: "and",
    Op3.ANDCC: "andcc", Op3.ANDN: "andn", Op3.ANDNCC: "andncc",
    Op3.OR: "or", Op3.ORCC: "orcc", Op3.ORN: "orn", Op3.ORNCC: "orncc",
    Op3.XOR: "xor", Op3.XORCC: "xorcc", Op3.XNOR: "xnor",
    Op3.XNORCC: "xnorcc", Op3.SLL: "sll", Op3.SRL: "srl",
    Op3.SRA: "sra", Op3.UMUL: "umul", Op3.UMULCC: "umulcc",
    Op3.SMUL: "smul", Op3.SMULCC: "smulcc", Op3.UDIV: "udiv",
    Op3.UDIVCC: "udivcc", Op3.SDIV: "sdiv", Op3.SDIVCC: "sdivcc",
    Op3.SAVE: "save", Op3.RESTORE: "restore",
}

_MEM_NAMES = {
    Op3Mem.LD: "ld", Op3Mem.LDUB: "ldub", Op3Mem.LDSB: "ldsb",
    Op3Mem.LDUH: "lduh", Op3Mem.LDSH: "ldsh", Op3Mem.LDD: "ldd",
    Op3Mem.ST: "st", Op3Mem.STB: "stb", Op3Mem.STH: "sth",
    Op3Mem.STD: "std",
}

_FLEX_NAMES = {
    int(FlexOpf.NOPF): "fxnop",
    int(FlexOpf.SET_BASE): "fxbase",
    int(FlexOpf.SET_POLICY): "fxpolicy",
    int(FlexOpf.READ_STATUS): "fxstatus",
    int(FlexOpf.SET_TAGVAL): "fxval",
    int(FlexOpf.TAG_SET_REG): "fxtagr",
    int(FlexOpf.TAG_CLR_REG): "fxuntagr",
    int(FlexOpf.TAG_SET_MEM): "fxtagm",
    int(FlexOpf.TAG_CLR_MEM): "fxuntagm",
    int(FlexOpf.COLOR_PTR): "fxcolorp",
    int(FlexOpf.COLOR_MEM): "fxcolorm",
}


def _src2(instr: Instruction) -> str:
    if instr.use_imm:
        return str(instr.imm)
    return register_name(instr.rs2)


def disassemble(word: int, pc: int = 0) -> str:
    """Render one instruction word as assembly text."""
    instr = decode(word)

    if instr.op == Op.CALL:
        return f"call {pc + 4 * instr.disp:#x}"

    if instr.op == Op.FORMAT2:
        if instr.opcode == Op2.SETHI:
            if instr.rd == 0 and instr.imm == 0:
                return "nop"
            return f"sethi {instr.imm:#x}, {register_name(instr.rd)}"
        name = _BRANCH_NAMES[instr.cond] + (",a" if instr.annul else "")
        return f"{name} {pc + 4 * instr.disp:#x}"

    if instr.op == Op.FORMAT3_MEM:
        name = _MEM_NAMES[instr.opcode]
        if instr.use_imm and instr.imm:
            sign = "+" if instr.imm >= 0 else "-"
            address = (f"[{register_name(instr.rs1)} {sign} "
                       f"{abs(instr.imm)}]")
        elif not instr.use_imm and instr.rs2:
            address = (f"[{register_name(instr.rs1)} + "
                       f"{register_name(instr.rs2)}]")
        else:
            address = f"[{register_name(instr.rs1)}]"
        rd = register_name(instr.rd)
        if instr.is_load:
            return f"{name} {address}, {rd}"
        return f"{name} {rd}, {address}"

    op3 = instr.opcode
    if op3 == Op3.FLEXOP:
        name = _FLEX_NAMES.get(instr.opf)
        if name is None:
            return (f"flex {instr.opf:#x}, {register_name(instr.rs1)}, "
                    f"{register_name(instr.rs2)}, "
                    f"{register_name(instr.rd)}")
        operands = {
            "fxnop": "",
            "fxbase": f" {register_name(instr.rs1)}",
            "fxpolicy": f" {register_name(instr.rs1)}",
            "fxval": f" {register_name(instr.rs1)}",
            "fxstatus": f" {register_name(instr.rd)}",
            "fxtagr": f" {register_name(instr.rd)}",
            "fxuntagr": f" {register_name(instr.rd)}",
            "fxcolorp": f" {register_name(instr.rd)}",
            "fxtagm": (f" {register_name(instr.rs1)}, "
                       f"{register_name(instr.rs2)}"),
            "fxuntagm": (f" {register_name(instr.rs1)}, "
                         f"{register_name(instr.rs2)}"),
            "fxcolorm": (f" {register_name(instr.rs1)}, "
                         f"{register_name(instr.rs2)}"),
        }[name]
        return name + operands
    if op3 == Op3.JMPL:
        base = register_name(instr.rs1)
        offset = _src2(instr)
        if instr.rd == 0 and instr.rs1 == 31 and instr.imm == 8:
            return "ret"
        if instr.rd == 0 and instr.rs1 == 15 and instr.imm == 8:
            return "retl"
        return f"jmpl {base} + {offset}, {register_name(instr.rd)}"
    if op3 == Op3.TICC:
        cond = _BRANCH_NAMES[instr.cond][1:] or "a"
        return f"t{cond} {instr.imm}"
    if op3 == Op3.RDY:
        return f"rd %y, {register_name(instr.rd)}"
    if op3 == Op3.WRY:
        if instr.use_imm or instr.rs2:
            return f"wr {register_name(instr.rs1)}, {_src2(instr)}, %y"
        return f"wr {register_name(instr.rs1)}, %y"
    if op3 == Op3.RETT:
        return f"rett {register_name(instr.rs1)} + {_src2(instr)}"

    name = _ALU_NAMES[op3]
    return (f"{name} {register_name(instr.rs1)}, {_src2(instr)}, "
            f"{register_name(instr.rd)}")


def disassemble_program(program, limit: int | None = None) -> str:
    """Disassemble an assembled Program's text section, with
    addresses and raw words."""
    lines = []
    words = program.text if limit is None else program.text[:limit]
    for i, word in enumerate(words):
        pc = program.text_base + 4 * i
        lines.append(f"{pc:08x}:  {word:08x}  {disassemble(word, pc)}")
    return "\n".join(lines)
