"""Functional executor for the SPARC V8 subset.

Executes one instruction per :meth:`CpuState.step` using the classic
PC/nPC model (which gives correct delay-slot and annulling semantics),
and emits a :class:`CommitRecord` per committed instruction.  The
commit record carries everything the FlexCore trace packet needs
(Table II): PC, raw instruction word, effective address, result,
source operand values, condition codes, branch direction, and decoded
physical register numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.alu import CONDITIONS, ConditionCodes, execute_alu
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Cond, FlexOpf, InstrClass, Op, Op2, Op3, Op3Mem
from repro.isa.registers import (
    RegisterFile,
    WindowOverflow,
    WindowUnderflow,
)
from repro.memory.backing import MemoryFault, SparseMemory

MASK32 = 0xFFFFFFFF

# Enum members the step function tests on every instruction, read once
# here: a class-attribute lookup on an enum costs several times a
# module-global one.
_CALL = Op.CALL
_FORMAT2 = Op.FORMAT2
_FORMAT3_MEM = Op.FORMAT3_MEM
_SETHI = Op2.SETHI
_BA = Cond.BA
_FLEXOP = Op3.FLEXOP
_JMPL = Op3.JMPL
_TICC = Op3.TICC
_SAVE = Op3.SAVE
_RESTORE = Op3.RESTORE
_RDY = Op3.RDY
_WRY = Op3.WRY
_RETT = Op3.RETT
_READ_STATUS = FlexOpf.READ_STATUS


class SimulationError(Exception):
    """Fatal error in the simulated program (bad opcode, trap, ...).

    Carries structured context for crash triage: the PC and
    disassembled instruction that faulted, the dynamic instruction
    count (``instret``) and, once the timing model has seen the error,
    the cycle count.  Fields are ``None`` when unknown.
    """

    def __init__(
        self,
        message: str,
        *,
        pc: int | None = None,
        instruction: str | None = None,
        instret: int | None = None,
        cycle: int | None = None,
    ):
        super().__init__(message)
        self.pc = pc
        self.instruction = instruction
        self.instret = instret
        self.cycle = cycle

    def diagnosis(self) -> str:
        """One-line human summary for CLI error paths and reports."""
        parts = [str(self)]
        if self.pc is not None:
            parts.append(f"pc={self.pc:#x}")
        if self.instruction is not None:
            parts.append(f"instr='{self.instruction}'")
        if self.instret is not None:
            parts.append(f"instret={self.instret}")
        if self.cycle is not None:
            parts.append(f"cycle={self.cycle}")
        return " | ".join(parts)

    def __reduce__(self):
        # Preserve the structured context across pickling (the
        # fault-injection campaign ships errors between processes).
        return (
            _rebuild_simulation_error,
            (self.args[0] if self.args else "", self.pc,
             self.instruction, self.instret, self.cycle),
        )


def _rebuild_simulation_error(message, pc, instruction, instret, cycle):
    return SimulationError(
        message, pc=pc, instruction=instruction, instret=instret,
        cycle=cycle,
    )


@dataclass
class CommitRecord:
    """One committed instruction, as seen by the commit stage."""

    pc: int
    word: int  # raw 32-bit instruction (INST field)
    instr: Instruction
    instr_class: InstrClass
    addr: int = 0  # effective address (ADDR field)
    result: int = 0  # instruction result (RES field)
    srcv1: int = 0  # source operand 1 value (SRCV1)
    srcv2: int = 0  # source operand 2 value (SRCV2)
    cond: int = 0  # packed icc after the instruction (COND)
    branch_taken: bool = False  # BRANCH field
    src1_phys: int = 0  # decoded physical register numbers (9 bits)
    src2_phys: int = 0
    dest_phys: int = 0
    carry_before: bool = False  # incoming carry flag (for addx/subx checks)
    y_before: int = 0  # incoming Y register (for division checks)
    annulled: bool = False
    halted: bool = False

    @property
    def is_load(self) -> bool:
        return self.instr.is_load and not self.annulled

    @property
    def is_store(self) -> bool:
        return self.instr.is_store and not self.annulled


def evaluate_condition(cond: Cond, codes: ConditionCodes) -> bool:
    """Evaluate a Bicc condition against the integer condition codes."""
    return CONDITIONS[cond](codes)


class CpuState:
    """Architectural state plus the functional step function."""

    def __init__(
        self,
        memory: SparseMemory,
        entry: int,
        nwindows: int = 8,
        stack_top: int = 0x7FFFF0,
    ):
        self.memory = memory
        self.regs = RegisterFile(nwindows)
        self.pc = entry
        self.npc = entry + 4
        self.codes = ConditionCodes()
        self.y = 0
        self.halted = False
        self.instret = 0
        self._annul_next = False
        # Called for FlexOpf.READ_STATUS; wired up by the system so the
        # "read from co-processor" instruction returns the BFIFO value.
        self.coprocessor_read = lambda: 0
        # %sp and %fp start at the top of the stack region.
        self.regs.write(14, stack_top)
        self.regs.write(30, stack_top)
        self._decode_cache: dict[int, Instruction] = {}

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).  The decode cache is
    # pure memoisation keyed by instruction words and is deliberately
    # not part of the architectural state.

    def snapshot_state(self) -> dict:
        """Architectural state: PC/nPC, icc, Y, windowed registers."""
        return {
            "pc": self.pc,
            "npc": self.npc,
            "cond": self.codes.pack(),
            "y": self.y,
            "halted": self.halted,
            "instret": self.instret,
            "annul": self._annul_next,
            "regs": self.regs.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.pc = state["pc"]
        self.npc = state["npc"]
        self.codes = ConditionCodes.unpack(state["cond"])
        self.y = state["y"]
        self.halted = state["halted"]
        self.instret = state["instret"]
        self._annul_next = state["annul"]
        self.regs.restore_state(state["regs"])

    # ------------------------------------------------------------------

    def step(self) -> CommitRecord:
        """Execute the instruction at PC and return its commit record.

        Any fatal error — a bad opcode, a misaligned access, a window
        overflow — surfaces as a :class:`SimulationError` annotated
        with the faulting PC, its disassembly and the instruction
        count, so callers can triage crashes without a traceback.
        """
        if self.halted:
            raise SimulationError(
                "stepping a halted CPU", pc=self.pc, instret=self.instret
            )
        pc = self.pc
        try:
            word = self.memory.read_word(pc)
            instr = self._decode_cache.get(word)
            if instr is None:
                instr = decode(word)
                self._decode_cache[word] = instr

            if self._annul_next:
                self._annul_next = False
                record = CommitRecord(
                    pc=pc, word=word, instr=instr,
                    instr_class=instr.instr_class, annulled=True,
                    cond=self.codes.pack(),
                )
                self._advance(self.npc + 4)
                self.instret += 1
                return record

            record = self._execute(pc, word, instr)
        except SimulationError as err:
            self._attach_context(err, pc)
            raise
        except (MemoryFault, WindowOverflow, WindowUnderflow) as err:
            wrapped = SimulationError(str(err))
            self._attach_context(wrapped, pc)
            raise wrapped from err
        self.instret += 1
        return record

    def _attach_context(self, err: SimulationError, pc: int) -> None:
        """Fill in crash-triage fields an error site left unset."""
        if err.pc is None:
            err.pc = pc
        if err.instret is None:
            err.instret = self.instret
        if err.instruction is None:
            try:
                from repro.isa.disasm import disassemble
                err.instruction = disassemble(
                    self.memory.read_word(err.pc), err.pc
                )
            except Exception:
                err.instruction = "<undecodable>"

    def _advance(self, new_npc: int) -> None:
        self.pc = self.npc
        self.npc = new_npc & MASK32

    # ------------------------------------------------------------------

    def _operands(self, instr: Instruction) -> tuple[int, int]:
        a = self.regs.read(instr.rs1)
        if instr.use_imm:
            b = instr.imm & MASK32
        else:
            b = self.regs.read(instr.rs2)
        return a, b

    def _phys(self, arch_index: int) -> int:
        return self.regs.physical_index(arch_index)

    def _execute(
        self, pc: int, word: int, instr: Instruction
    ) -> CommitRecord:
        # Positional, in field order (keywords cost ~3x as much).
        codes = self.codes
        record = CommitRecord(
            pc, word, instr, instr.instr_class, 0, 0, 0, 0, 0, False,
            0, 0, 0, codes.c, self.y,
        )

        op = instr.op
        if op == _CALL:
            target = (pc + 4 * instr.disp) & MASK32
            self.regs.write(15, pc)  # %o7 <- address of the call
            record.addr = target
            record.result = pc
            record.dest_phys = self._phys(15)
            record.branch_taken = True
            self._advance(target)
            record.cond = self.codes.pack()
            return record

        if op == _FORMAT2:
            if instr.opcode == _SETHI:
                value = (instr.imm << 10) & MASK32
                self.regs.write(instr.rd, value)
                record.result = value
                record.dest_phys = self._phys(instr.rd)
                self._advance(self.npc + 4)
                record.cond = self.codes.pack()
                return record
            # Bicc
            taken = CONDITIONS[instr.cond](codes)
            target = (pc + 4 * instr.disp) & MASK32
            record.addr = target
            record.branch_taken = taken
            record.cond = self.codes.pack()
            if taken:
                # `ba,a` annuls its delay slot even though taken.
                if instr.annul and instr.cond == _BA:
                    self._annul_next = True
                self._advance(target)
            else:
                if instr.annul:
                    self._annul_next = True
                self._advance(self.npc + 4)
            return record

        if op == _FORMAT3_MEM:
            return self._execute_memory(record, instr)

        return self._execute_alu_format(record, instr)

    def _execute_memory(
        self, record: CommitRecord, instr: Instruction
    ) -> CommitRecord:
        a, b = self._operands(instr)
        addr = (a + b) & MASK32
        record.addr = addr
        record.srcv1 = a
        record.srcv2 = b
        record.src1_phys = self._phys(instr.rs1)
        if not instr.use_imm:
            record.src2_phys = self._phys(instr.rs2)
        mem = self.memory
        op3 = instr.opcode

        if instr.is_load:
            if op3 == Op3Mem.LD:
                value = mem.read_word(addr)
            elif op3 == Op3Mem.LDUB:
                value = mem.read_byte(addr)
            elif op3 == Op3Mem.LDSB:
                raw = mem.read_byte(addr)
                value = (raw - 0x100 if raw & 0x80 else raw) & MASK32
            elif op3 == Op3Mem.LDUH:
                value = mem.read_half(addr)
            elif op3 == Op3Mem.LDSH:
                raw = mem.read_half(addr)
                value = (raw - 0x10000 if raw & 0x8000 else raw) & MASK32
            elif op3 == Op3Mem.LDD:
                if instr.rd & 1:
                    raise SimulationError("ldd needs an even rd")
                value = mem.read_word(addr)
                self.regs.write(instr.rd + 1, mem.read_word(addr + 4))
            else:  # pragma: no cover - decode prevents this
                raise SimulationError(f"bad load {op3!r}")
            self.regs.write(instr.rd, value)
            record.result = value
            record.dest_phys = self._phys(instr.rd)
        else:
            value = self.regs.read(instr.rd)
            record.result = value
            # For stores, the value register is a *source*; expose its
            # physical number so tag engines can read its shadow tag.
            record.dest_phys = self._phys(instr.rd)
            if op3 == Op3Mem.ST:
                mem.write_word(addr, value)
            elif op3 == Op3Mem.STB:
                mem.write_byte(addr, value)
            elif op3 == Op3Mem.STH:
                mem.write_half(addr, value)
            elif op3 == Op3Mem.STD:
                if instr.rd & 1:
                    raise SimulationError("std needs an even rd")
                mem.write_word(addr, value)
                mem.write_word(addr + 4, self.regs.read(instr.rd + 1))
            else:  # pragma: no cover
                raise SimulationError(f"bad store {op3!r}")

        self._advance(self.npc + 4)
        record.cond = self.codes.pack()
        return record

    def _execute_alu_format(
        self, record: CommitRecord, instr: Instruction
    ) -> CommitRecord:
        op3 = instr.opcode

        if op3 == _FLEXOP:
            record.srcv1 = self.regs.read(instr.rs1)
            record.srcv2 = self.regs.read(instr.rs2)
            record.src1_phys = self._phys(instr.rs1)
            record.src2_phys = self._phys(instr.rs2)
            record.dest_phys = self._phys(instr.rd)
            record.addr = (record.srcv1 + record.srcv2) & MASK32
            if instr.opf == _READ_STATUS:
                value = self.coprocessor_read() & MASK32
                self.regs.write(instr.rd, value)
                record.result = value
            self._advance(self.npc + 4)
            record.cond = self.codes.pack()
            return record

        if op3 == _JMPL:
            a, b = self._operands(instr)
            target = (a + b) & MASK32
            if target & 3:
                raise SimulationError(f"jmpl to misaligned {target:#x}")
            self.regs.write(instr.rd, record.pc)
            record.addr = target
            record.result = record.pc
            record.srcv1 = a
            record.srcv2 = b
            record.src1_phys = self._phys(instr.rs1)
            if not instr.use_imm:
                record.src2_phys = self._phys(instr.rs2)
            record.dest_phys = self._phys(instr.rd)
            record.branch_taken = True
            self._advance(target)
            record.cond = self.codes.pack()
            return record

        if op3 == _TICC:
            taken = CONDITIONS[instr.cond](self.codes)
            record.cond = self.codes.pack()
            if taken:
                trap_number = instr.imm & 0x7F
                record.result = trap_number
                if trap_number == 0:
                    self.halted = True
                    record.halted = True
                else:
                    raise SimulationError(
                        f"software trap {trap_number} at {record.pc:#x}"
                    )
            self._advance(self.npc + 4)
            return record

        if op3 == _SAVE or op3 == _RESTORE:
            # Operands are read in the *old* window, the destination is
            # written in the *new* window.
            a, b = self._operands(instr)
            record.srcv1 = a
            record.srcv2 = b
            record.src1_phys = self._phys(instr.rs1)
            if not instr.use_imm:
                record.src2_phys = self._phys(instr.rs2)
            if op3 == _SAVE:
                self.regs.save()
            else:
                self.regs.restore()
            value = (a + b) & MASK32
            self.regs.write(instr.rd, value)
            record.result = value
            record.dest_phys = self._phys(instr.rd)
            self._advance(self.npc + 4)
            record.cond = self.codes.pack()
            return record

        if op3 == _RDY:
            self.regs.write(instr.rd, self.y)
            record.result = self.y
            record.dest_phys = self._phys(instr.rd)
            self._advance(self.npc + 4)
            record.cond = self.codes.pack()
            return record

        if op3 == _WRY:
            a, b = self._operands(instr)
            self.y = (a ^ b) & MASK32  # SPARC wr: xor of operands
            record.srcv1 = a
            record.srcv2 = b
            record.src1_phys = self._phys(instr.rs1)
            if not instr.use_imm:
                record.src2_phys = self._phys(instr.rs2)
            self._advance(self.npc + 4)
            record.cond = self.codes.pack()
            return record

        if op3 == _RETT:
            raise SimulationError("rett is not supported (no trap mode)")

        # Plain ALU operation.
        a, b = self._operands(instr)
        alu = execute_alu(op3, a, b, carry=self.codes.c, y=self.y)
        self.regs.write(instr.rd, alu.value)
        if alu.codes is not None:
            self.codes = alu.codes
        if alu.y is not None:
            self.y = alu.y
        record.srcv1 = a
        record.srcv2 = b
        record.result = alu.value
        record.src1_phys = self._phys(instr.rs1)
        if not instr.use_imm:
            record.src2_phys = self._phys(instr.rs2)
        record.dest_phys = self._phys(instr.rd)
        self._advance(self.npc + 4)
        record.cond = self.codes.pack()
        return record
