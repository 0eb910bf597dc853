"""Core-to-fabric trace packet (the FFIFO entry of Table II).

Every committed instruction the CFGR selects is turned into one packet
carrying "fairly comprehensive information": the program counter, the
undecoded instruction word, effective address, result, source operand
values, condition codes, branch outcome — plus the *pre-decoded*
fields (opcode, register numbers, control signals) that Section III-C
credits with a 30% speedup for DIFT because the fabric no longer has
to implement a SPARC decoder in LUTs.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.executor import CommitRecord
from repro.isa.opcodes import InstrClass

#: Field widths in bits, straight from Table II.  Used by the area
#: model to size the forward FIFO's SRAM.
PACKET_FIELD_BITS = {
    "PC": 32,
    "INST": 32,
    "ADDR": 32,
    "RES": 32,
    "SRCV1": 32,
    "SRCV2": 32,
    "COND": 4,
    "BRANCH": 1,
    "OPCODE": 5,
    "DECODE": 32,
    "EXTRA": 32,
    "SRC1": 9,
    "SRC2": 9,
    "DEST": 9,
}

PACKET_BITS = sum(PACKET_FIELD_BITS.values())


class TracePacket(NamedTuple):
    """One forward-FIFO entry.

    An immutable named tuple: the fields are Table II's wires in
    order, and building one per forwarded instruction is the interface
    path's hottest allocation.
    """

    pc: int
    inst: int  # raw instruction word (INST)
    addr: int  # load/store effective address or branch target (ADDR)
    res: int  # instruction result (RES)
    srcv1: int  # source operand values (SRCV1/SRCV2)
    srcv2: int
    cond: int  # packed condition codes (COND, 4 bits)
    branch: bool  # computed branch direction (BRANCH)
    opcode: InstrClass  # decoded instruction type (OPCODE, 5 bits)
    decode: int  # miscellaneous decoded signals (DECODE)
    extra: int  # extra processor control signals (EXTRA)
    src1: int  # decoded physical source register numbers (9 bits)
    src2: int
    dest: int  # decoded physical destination register number
    #: not a wire — kept so extensions can dispatch without re-decoding
    #: in the *simulator* even when modelling a fabric-side decoder.
    record: CommitRecord | None = None

    @classmethod
    def from_commit(cls, record: CommitRecord) -> "TracePacket":
        """Build the packet the interface module would assemble at the
        commit stage."""
        instr = record.instr
        # DECODE carries miscellaneous pre-decoded control signals; we
        # pack the fields a monitoring engine typically needs.
        decode = 0
        decode |= int(record.is_load) << 0
        decode |= int(record.is_store) << 1
        decode |= int(instr.use_imm) << 2
        decode |= (instr.opf & 0x1FF) << 3
        if record.is_load or record.is_store:
            decode |= (instr.access_size() & 0xF) << 12
        decode |= int(record.carry_before) << 16
        # Positional, in field order: keyword construction of a named
        # tuple costs over twice as much, once per forwarded packet.
        return cls(
            record.pc,
            record.word,  # inst
            record.addr,
            record.result,  # res
            record.srcv1,
            record.srcv2,
            record.cond,
            record.branch_taken,  # branch
            record.instr_class,  # opcode
            decode,
            record.y_before,  # extra
            record.src1_phys,  # src1
            record.src2_phys,  # src2
            record.dest_phys,  # dest
            record,
        )

    @property
    def opf(self) -> int:
        """Flex sub-opcode, recovered from the DECODE field."""
        return (self.decode >> 3) & 0x1FF

    @property
    def is_load(self) -> bool:
        return bool(self.decode & 1)

    @property
    def is_store(self) -> bool:
        return bool(self.decode & 2)

    @property
    def access_size(self) -> int:
        return (self.decode >> 12) & 0xF

    @property
    def carry_in(self) -> bool:
        """Incoming carry flag (pre-instruction), for addx/subx checks."""
        return bool(self.decode & (1 << 16))
