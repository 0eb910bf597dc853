"""Two-pass assembler for the SPARC V8 subset.

The workload kernels (`repro.workloads`) are written in this assembly
dialect, assembled to real binary encodings, and executed by the
functional/timing core model.  Supported syntax:

* sections ``.text`` / ``.data``, labels, ``!`` and ``;`` comments
* data directives ``.word .half .byte .space .align .ascii .equ``
* expressions: decimal/hex literals, symbols, ``+``/``-``,
  ``%hi(expr)`` / ``%lo(expr)``
* the full instruction subset plus the usual SPARC pseudo-instructions
  (``set mov cmp tst clr nop ret retl b jmp inc dec neg not``)
* FlexCore co-processor pseudo-instructions (``fxbase fxval fxpolicy
  fxstatus fxtagr fxuntagr fxtagm fxuntagm fxcolorp fxcolorm fxnop``)
* ``ta N`` software trap; ``ta 0`` is the exit convention.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, FlexOpf, Op, Op2, Op3, Op3Mem
from repro.isa.registers import parse_register


class AssemblyError(ValueError):
    """Raised on any syntax or range error, with line context."""


@dataclass
class Program:
    """An assembled program image."""

    text_base: int
    data_base: int
    text: list[int] = field(default_factory=list)  # 32-bit words
    data: bytes = b""
    symbols: dict[str, int] = field(default_factory=dict)
    entry: int = 0

    @property
    def text_size(self) -> int:
        return 4 * len(self.text)

    def symbol(self, name: str) -> int:
        if name not in self.symbols:
            raise KeyError(f"no such symbol: {name}")
        return self.symbols[name]


_BRANCHES = {
    "ba": Cond.BA, "bn": Cond.BN, "be": Cond.BE, "bz": Cond.BE,
    "bne": Cond.BNE, "bnz": Cond.BNE, "bg": Cond.BG, "ble": Cond.BLE,
    "bge": Cond.BGE, "bl": Cond.BL, "bgu": Cond.BGU, "bleu": Cond.BLEU,
    "bcc": Cond.BCC, "bgeu": Cond.BCC, "bcs": Cond.BCS, "blu": Cond.BCS,
    "bpos": Cond.BPOS, "bneg": Cond.BNEG, "bvc": Cond.BVC, "bvs": Cond.BVS,
}

_ALU_OPS = {
    "add": Op3.ADD, "addcc": Op3.ADDCC, "addx": Op3.ADDX,
    "addxcc": Op3.ADDXCC, "sub": Op3.SUB, "subcc": Op3.SUBCC,
    "subx": Op3.SUBX, "subxcc": Op3.SUBXCC, "and": Op3.AND,
    "andcc": Op3.ANDCC, "andn": Op3.ANDN, "andncc": Op3.ANDNCC,
    "or": Op3.OR, "orcc": Op3.ORCC, "orn": Op3.ORN, "orncc": Op3.ORNCC,
    "xor": Op3.XOR, "xorcc": Op3.XORCC, "xnor": Op3.XNOR,
    "xnorcc": Op3.XNORCC, "sll": Op3.SLL, "srl": Op3.SRL, "sra": Op3.SRA,
    "umul": Op3.UMUL, "smul": Op3.SMUL, "umulcc": Op3.UMULCC,
    "smulcc": Op3.SMULCC, "udiv": Op3.UDIV, "sdiv": Op3.SDIV,
    "udivcc": Op3.UDIVCC, "sdivcc": Op3.SDIVCC,
    "save": Op3.SAVE, "restore": Op3.RESTORE,
}

_MEM_OPS = {
    "ld": Op3Mem.LD, "ldub": Op3Mem.LDUB, "ldsb": Op3Mem.LDSB,
    "lduh": Op3Mem.LDUH, "ldsh": Op3Mem.LDSH, "ldd": Op3Mem.LDD,
    "st": Op3Mem.ST, "stb": Op3Mem.STB, "sth": Op3Mem.STH,
    "std": Op3Mem.STD,
}

#: FlexCore pseudo-instruction name -> (opf, operand spec).
#: Operand specs: "rs1", "rd", "rs1 rs2", or "".
_FLEX_OPS = {
    "fxnop": (FlexOpf.NOPF, ""),
    "fxbase": (FlexOpf.SET_BASE, "rs1"),
    "fxpolicy": (FlexOpf.SET_POLICY, "rs1"),
    "fxstatus": (FlexOpf.READ_STATUS, "rd"),
    "fxval": (FlexOpf.SET_TAGVAL, "rs1"),
    "fxtagr": (FlexOpf.TAG_SET_REG, "rd"),
    "fxuntagr": (FlexOpf.TAG_CLR_REG, "rd"),
    "fxtagm": (FlexOpf.TAG_SET_MEM, "rs1 rs2"),
    "fxuntagm": (FlexOpf.TAG_CLR_MEM, "rs1 rs2"),
    "fxcolorp": (FlexOpf.COLOR_PTR, "rd"),
    "fxcolorm": (FlexOpf.COLOR_MEM, "rs1 rs2"),
}

_HI_LO_RE = re.compile(r"%(hi|lo)\(([^)]*)\)")


def _split_operands(text: str) -> list[str]:
    """Split an operand string on commas that are outside brackets."""
    parts, depth, current = [], 0, []
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, text_base: int = 0x1000, data_base: int = 0x10000):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source: str, entry: str | None = None) -> Program:
        """Assemble ``source`` into a program image.

        ``entry`` names the start label; defaults to the text base.
        """
        statements = self._parse(source)
        symbols = self._layout(statements)
        program = self._emit(statements, symbols)
        if entry is not None:
            program.entry = program.symbol(entry)
        else:
            program.entry = self.text_base
        return program

    # ------------------------------------------------------------------
    # Pass 0: parse lines into (section, label|directive|instruction).

    def _parse(self, source: str) -> list[dict]:
        statements = []
        section = "text"
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = re.split(r"[!;]", raw, maxsplit=1)[0].rstrip()
            if not line.strip():
                continue
            # Peel off any leading labels.
            while True:
                match = re.match(r"\s*([A-Za-z_.$][\w.$]*):", line)
                if not match:
                    break
                statements.append(
                    {"kind": "label", "name": match.group(1),
                     "section": section, "line": lineno}
                )
                line = line[match.end():]
            body = line.strip()
            if not body:
                continue
            if body.startswith("."):
                parts = body.split(None, 1)
                name = parts[0][1:].lower()
                args = parts[1] if len(parts) > 1 else ""
                if name in ("text", "data"):
                    section = name
                    continue
                statements.append(
                    {"kind": "directive", "name": name, "args": args,
                     "section": section, "line": lineno}
                )
            else:
                parts = body.split(None, 1)
                mnemonic = parts[0].lower()
                operands = parts[1] if len(parts) > 1 else ""
                statements.append(
                    {"kind": "instr", "mnemonic": mnemonic,
                     "operands": operands, "section": section,
                     "line": lineno}
                )
        return statements

    # ------------------------------------------------------------------
    # Pass 1: compute addresses for every label.

    def _statement_size(self, stmt: dict, pc: int, symbols: dict) -> int:
        if stmt["kind"] == "instr":
            if stmt["mnemonic"] == "set":
                return 8  # sethi + or, always two words for simplicity
            return 4
        name, args = stmt["name"], stmt["args"]
        if name == "word":
            return 4 * len(_split_operands(args))
        if name == "half":
            return 2 * len(_split_operands(args))
        if name == "byte":
            return len(_split_operands(args))
        if name == "space":
            return self._eval(args, symbols, stmt)
        if name == "align":
            align = self._eval(args, symbols, stmt)
            return (-pc) % align
        if name == "ascii":
            return len(self._parse_string(args, stmt))
        if name == "equ":
            return 0
        raise AssemblyError(
            f"line {stmt['line']}: unknown directive .{name}"
        )

    def _layout(self, statements: list[dict]) -> dict[str, int]:
        symbols: dict[str, int] = {}
        # .equ symbols first so sizes that depend on them resolve.
        for stmt in statements:
            if stmt["kind"] == "directive" and stmt["name"] == "equ":
                name, expr = _split_operands(stmt["args"])
                symbols[name] = self._eval(expr, symbols, stmt)
        counters = {"text": self.text_base, "data": self.data_base}
        for stmt in statements:
            section = stmt["section"]
            if stmt["kind"] == "label":
                symbols[stmt["name"]] = counters[section]
                continue
            counters[section] += self._statement_size(
                stmt, counters[section], symbols
            )
        return symbols

    # ------------------------------------------------------------------
    # Pass 2: emit binary.

    def _emit(self, statements: list[dict], symbols: dict) -> Program:
        text: list[int] = []
        data = bytearray()
        counters = {"text": self.text_base, "data": self.data_base}

        def emit_word(word: int, section: str) -> None:
            if section == "text":
                text.append(word & 0xFFFFFFFF)
            else:
                data.extend((word & 0xFFFFFFFF).to_bytes(4, "big"))
            counters[section] += 4

        for stmt in statements:
            section = stmt["section"]
            if stmt["kind"] == "label":
                continue
            if stmt["kind"] == "directive":
                self._emit_directive(stmt, symbols, counters, data, text)
                continue
            pc = counters[section]
            if section != "text":
                raise AssemblyError(
                    f"line {stmt['line']}: instruction outside .text"
                )
            for instr in self._translate(stmt, pc, symbols):
                emit_word(encode(instr), section)

        return Program(
            text_base=self.text_base,
            data_base=self.data_base,
            text=text,
            data=bytes(data),
            symbols=dict(symbols),
        )

    def _emit_directive(
        self,
        stmt: dict,
        symbols: dict,
        counters: dict,
        data: bytearray,
        text: list[int],
    ) -> None:
        section = stmt["section"]
        name, args = stmt["name"], stmt["args"]
        if name == "equ":
            return

        def put(chunk: bytes) -> None:
            if section == "text":
                if len(chunk) % 4:
                    raise AssemblyError(
                        f"line {stmt['line']}: unaligned data in .text"
                    )
                for i in range(0, len(chunk), 4):
                    text.append(int.from_bytes(chunk[i : i + 4], "big"))
            else:
                data.extend(chunk)
            counters[section] += len(chunk)

        if name == "word":
            for expr in _split_operands(args):
                put((self._eval(expr, symbols, stmt) & 0xFFFFFFFF)
                    .to_bytes(4, "big"))
        elif name == "half":
            for expr in _split_operands(args):
                put((self._eval(expr, symbols, stmt) & 0xFFFF)
                    .to_bytes(2, "big"))
        elif name == "byte":
            for expr in _split_operands(args):
                put(bytes([self._eval(expr, symbols, stmt) & 0xFF]))
        elif name == "space":
            put(bytes(self._eval(args, symbols, stmt)))
        elif name == "align":
            align = self._eval(args, symbols, stmt)
            put(bytes((-counters[section]) % align))
        elif name == "ascii":
            put(self._parse_string(args, stmt))
        else:
            raise AssemblyError(
                f"line {stmt['line']}: unknown directive .{name}"
            )

    # ------------------------------------------------------------------
    # Expression evaluation.

    def _parse_string(self, args: str, stmt: dict) -> bytes:
        text = args.strip()
        if len(text) < 2 or text[0] != '"' or text[-1] != '"':
            raise AssemblyError(f"line {stmt['line']}: expected string")
        return text[1:-1].encode().decode("unicode_escape").encode("latin1")

    def _eval(self, expr: str, symbols: dict, stmt: dict) -> int:
        expr = expr.strip()

        def hi_lo(match: re.Match) -> str:
            inner = self._eval(match.group(2), symbols, stmt)
            if match.group(1) == "hi":
                return str((inner >> 10) & 0x3FFFFF)
            return str(inner & 0x3FF)

        expr = _HI_LO_RE.sub(hi_lo, expr)
        tokens = re.findall(r"[+-]|[^+-]+", expr.replace(" ", ""))
        total, sign, expect_term = 0, 1, True
        for token in tokens:
            if token in "+-":
                if expect_term and token == "-":
                    sign = -sign
                    continue
                sign = 1 if token == "+" else -1
                expect_term = True
                continue
            total += sign * self._term(token, symbols, stmt)
            sign, expect_term = 1, False
        return total

    def _term(self, term: str, symbols: dict, stmt: dict) -> int:
        """A product of atoms: ``a*b*c`` (higher precedence than +/-)."""
        product = 1
        for factor in term.split("*"):
            product *= self._atom(factor, symbols, stmt)
        return product

    def _atom(self, token: str, symbols: dict, stmt: dict) -> int:
        try:
            return int(token, 0)
        except ValueError:
            pass
        if token in symbols:
            return symbols[token]
        raise AssemblyError(
            f"line {stmt['line']}: cannot evaluate {token!r}"
        )

    # ------------------------------------------------------------------
    # Instruction translation.

    def _translate(
        self, stmt: dict, pc: int, symbols: dict
    ) -> list[Instruction]:
        mnemonic = stmt["mnemonic"]
        line = stmt["line"]
        annul = False
        if mnemonic.endswith(",a"):
            mnemonic, annul = mnemonic[:-2], True
        operands = _split_operands(stmt["operands"])

        def err(message: str) -> AssemblyError:
            return AssemblyError(f"line {line}: {message}")

        def reg(text: str) -> int:
            try:
                return parse_register(text)
            except ValueError as exc:
                raise err(str(exc)) from exc

        def reg_or_imm(text: str) -> tuple[bool, int]:
            """Return (use_imm, value) for the rs2-or-simm13 slot."""
            if text.lstrip().startswith("%") and not text.lstrip().startswith(
                ("%hi", "%lo")
            ):
                return False, reg(text)
            return True, self._eval(text, symbols, stmt)

        def parse_address(text: str) -> tuple[int, bool, int]:
            """Parse ``[%r1 + %r2]`` / ``[%r1 + imm]`` / ``[%r1]`` /
            ``[imm]`` into (rs1, use_imm, rs2_or_imm)."""
            body = text.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise err(f"expected memory operand, got {text!r}")
            body = body[1:-1].strip()
            match = re.match(r"(%\w+)\s*([+-])\s*(.+)$", body)
            if match:
                rs1 = reg(match.group(1))
                rest = match.group(3).strip()
                if rest.startswith("%") and not rest.startswith(("%hi", "%lo")):
                    if match.group(2) == "-":
                        raise err("cannot subtract a register in address")
                    return rs1, False, reg(rest)
                value = self._eval(rest, symbols, stmt)
                if match.group(2) == "-":
                    value = -value
                return rs1, True, value
            if body.startswith("%"):
                return reg(body), True, 0
            return 0, True, self._eval(body, symbols, stmt)

        def alu(op3: Op3, rs1: int, src2: str, rd: int) -> Instruction:
            use_imm, value = reg_or_imm(src2)
            if use_imm:
                return Instruction(
                    op=Op.FORMAT3_ALU, opcode=op3, rd=rd, rs1=rs1,
                    use_imm=True, imm=value,
                )
            return Instruction(
                op=Op.FORMAT3_ALU, opcode=op3, rd=rd, rs1=rs1, rs2=value
            )

        # --- branches -------------------------------------------------
        if mnemonic in _BRANCHES:
            if len(operands) != 1:
                raise err(f"{mnemonic} takes one target")
            target = self._eval(operands[0], symbols, stmt)
            disp = (target - pc) // 4
            return [Instruction(
                op=Op.FORMAT2, opcode=Op2.BICC,
                cond=_BRANCHES[mnemonic], annul=annul, disp=disp,
            )]
        if mnemonic == "b":
            return self._translate(
                {**stmt, "mnemonic": "ba" + (",a" if annul else "")},
                pc, symbols,
            )

        # --- ALU ------------------------------------------------------
        if mnemonic in _ALU_OPS:
            op3 = _ALU_OPS[mnemonic]
            if mnemonic == "restore" and not operands:
                return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.RESTORE,
                                    rd=0, rs1=0, rs2=0)]
            if len(operands) != 3:
                raise err(f"{mnemonic} needs 3 operands")
            return [alu(op3, reg(operands[0]), operands[1],
                        reg(operands[2]))]

        # --- memory ---------------------------------------------------
        if mnemonic in _MEM_OPS:
            op3 = _MEM_OPS[mnemonic]
            if len(operands) != 2:
                raise err(f"{mnemonic} needs 2 operands")
            if mnemonic.startswith("ld"):
                addr, rd_text = operands
            else:
                rd_text, addr = operands
            rs1, use_imm, value = parse_address(addr)
            common = dict(op=Op.FORMAT3_MEM, opcode=op3,
                          rd=reg(rd_text), rs1=rs1)
            if use_imm:
                return [Instruction(use_imm=True, imm=value, **common)]
            return [Instruction(rs2=value, **common)]

        # --- control --------------------------------------------------
        if mnemonic == "call":
            target = self._eval(operands[0], symbols, stmt)
            return [Instruction(op=Op.CALL, rd=15,
                                disp=(target - pc) // 4)]
        if mnemonic == "jmpl":
            if len(operands) != 2:
                raise err("jmpl needs address and link register")
            rs1, use_imm, value = self._parse_jmpl_address(
                operands[0], symbols, stmt
            )
            common = dict(op=Op.FORMAT3_ALU, opcode=Op3.JMPL,
                          rd=reg(operands[1]), rs1=rs1)
            if use_imm:
                return [Instruction(use_imm=True, imm=value, **common)]
            return [Instruction(rs2=value, **common)]
        if mnemonic == "jmp":
            rs1, use_imm, value = self._parse_jmpl_address(
                operands[0], symbols, stmt
            )
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.JMPL,
                                rd=0, rs1=rs1, use_imm=use_imm,
                                imm=value if use_imm else 0,
                                rs2=0 if use_imm else value)]
        if mnemonic == "ret":
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.JMPL,
                                rd=0, rs1=31, use_imm=True, imm=8)]
        if mnemonic == "retl":
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.JMPL,
                                rd=0, rs1=15, use_imm=True, imm=8)]
        if mnemonic == "ta":
            value = self._eval(operands[0], symbols, stmt)
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.TICC,
                                cond=Cond.BA, use_imm=True, imm=value)]

        # --- sethi / pseudo-ops ----------------------------------------
        if mnemonic == "sethi":
            value = self._eval(operands[0], symbols, stmt)
            return [Instruction(op=Op.FORMAT2, opcode=Op2.SETHI,
                                rd=reg(operands[1]), imm=value & 0x3FFFFF)]
        if mnemonic == "set":
            value = self._eval(operands[0], symbols, stmt) & 0xFFFFFFFF
            rd = reg(operands[1])
            return [
                Instruction(op=Op.FORMAT2, opcode=Op2.SETHI, rd=rd,
                            imm=(value >> 10) & 0x3FFFFF),
                Instruction(op=Op.FORMAT3_ALU, opcode=Op3.OR, rd=rd,
                            rs1=rd, use_imm=True, imm=value & 0x3FF),
            ]
        if mnemonic == "rd":
            if operands[0].strip() != "%y":
                raise err("only 'rd %y, %rd' is supported")
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.RDY,
                                rd=reg(operands[1]))]
        if mnemonic == "wr":
            if operands[-1].strip() != "%y":
                raise err("only 'wr %rs1[, %rs2 | simm13], %y' is "
                          "supported")
            return [alu(Op3.WRY, reg(operands[0]),
                        operands[1] if len(operands) == 3 else "%g0", 0)]
        if mnemonic == "mov":
            if operands[1].strip() == "%y":
                return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.WRY,
                                    rs1=reg(operands[0]))]
            if operands[0].strip() == "%y":
                return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.RDY,
                                    rd=reg(operands[1]))]
            return [alu(Op3.OR, 0, operands[0], reg(operands[1]))]
        if mnemonic == "cmp":
            return [alu(Op3.SUBCC, reg(operands[0]), operands[1], 0)]
        if mnemonic == "tst":
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.ORCC,
                                rd=0, rs1=0, rs2=reg(operands[0]))]
        if mnemonic == "clr":
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.OR,
                                rd=reg(operands[0]), rs1=0, rs2=0)]
        if mnemonic == "inc":
            rd = reg(operands[-1])
            amount = "1" if len(operands) == 1 else operands[0]
            return [alu(Op3.ADD, rd, amount, rd)]
        if mnemonic == "dec":
            rd = reg(operands[-1])
            amount = "1" if len(operands) == 1 else operands[0]
            return [alu(Op3.SUB, rd, amount, rd)]
        if mnemonic == "neg":
            rd = reg(operands[-1])
            rs = reg(operands[0])
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.SUB,
                                rd=rd, rs1=0, rs2=rs)]
        if mnemonic == "not":
            rd = reg(operands[-1])
            rs = reg(operands[0])
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.XNOR,
                                rd=rd, rs1=rs, rs2=0)]
        if mnemonic == "nop":
            return [Instruction(op=Op.FORMAT2, opcode=Op2.SETHI,
                                rd=0, imm=0)]

        # --- FlexCore co-processor ops ----------------------------------
        if mnemonic in _FLEX_OPS:
            opf, spec = _FLEX_OPS[mnemonic]
            fields = dict(op=Op.FORMAT3_ALU, opcode=Op3.FLEXOP,
                          opf=int(opf))
            wanted = spec.split()
            if len(operands) != len(wanted):
                raise err(f"{mnemonic} needs {len(wanted)} operand(s)")
            for slot, text in zip(wanted, operands):
                fields[slot] = reg(text)
            return [Instruction(**fields)]
        if mnemonic == "flex":
            opf = self._eval(operands[0], symbols, stmt)
            regs = [reg(op_) for op_ in operands[1:]] + [0, 0, 0]
            return [Instruction(op=Op.FORMAT3_ALU, opcode=Op3.FLEXOP,
                                opf=opf, rs1=regs[0], rs2=regs[1],
                                rd=regs[2])]

        raise err(f"unknown mnemonic {mnemonic!r}")

    def _parse_jmpl_address(
        self, text: str, symbols: dict, stmt: dict
    ) -> tuple[int, bool, int]:
        """jmpl addresses use ``%r + imm`` without brackets."""
        body = text.strip()
        match = re.match(r"(%\w+)\s*\+\s*(.+)$", body)
        if match:
            rs1 = parse_register(match.group(1))
            rest = match.group(2).strip()
            if rest.startswith("%") and not rest.startswith(("%hi", "%lo")):
                return rs1, False, parse_register(rest)
            return rs1, True, self._eval(rest, symbols, stmt)
        if body.startswith("%"):
            return parse_register(body), True, 0
        return 0, True, self._eval(body, symbols, stmt)


def assemble(
    source: str,
    entry: str | None = None,
    text_base: int = 0x1000,
    data_base: int = 0x10000,
) -> Program:
    """Convenience wrapper: assemble ``source`` in one call."""
    return Assembler(text_base, data_base).assemble(source, entry=entry)
