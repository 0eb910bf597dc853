"""Trace-packet field semantics and MonitorExtension base behaviour."""

import pytest

from repro.core.executor import CpuState
from repro.extensions import MonitorTrap, UninitializedMemoryCheck
from repro.extensions.base import MetaAccess, PacketOutcome
from repro.flexcore.packet import PACKET_FIELD_BITS, TracePacket
from repro.isa import FlexOpf, InstrClass, assemble
from repro.memory.backing import SparseMemory


def packets_for(source, entry="start"):
    """Execute a program and yield (record, packet) pairs."""
    program = assemble(source, entry=entry)
    memory = SparseMemory()
    memory.load_program(program)
    cpu = CpuState(memory, program.entry)
    out = []
    while not cpu.halted:
        record = cpu.step()
        if not record.annulled:
            out.append((record, TracePacket.from_commit(record)))
    return out


class TestPacketFields:
    def test_load_packet(self):
        pairs = packets_for("""
        .text
start:  set     data, %g1
        ldub    [%g1 + 1], %o0
        ta      0
        nop
        .data
data:   .word   0x08192a3b
""")
        packet = next(p for r, p in pairs
                      if p.opcode == InstrClass.LOAD_BYTE)
        assert packet.is_load and not packet.is_store
        assert packet.access_size == 1
        assert packet.res == 0x19
        assert packet.addr % 4 == 1

    def test_flex_packet_opf(self):
        pairs = packets_for("""
        .text
start:  fxtagm  %g1, %g2
        ta      0
        nop
""")
        packet = next(p for r, p in pairs
                      if p.opcode == InstrClass.FLEX)
        assert packet.opf == FlexOpf.TAG_SET_MEM

    def test_carry_in_captured(self):
        pairs = packets_for("""
        .text
start:  set     0xffffffff, %o0
        addcc   %o0, 1, %o1         ! sets carry
        addx    %g0, 0, %o2         ! consumes carry
        ta      0
        nop
""")
        addx = [p for r, p in pairs if r.instr.opcode is not None
                and getattr(r.instr.opcode, "name", "") == "ADDX"]
        assert addx[0].carry_in

    def test_y_in_extra(self):
        pairs = packets_for("""
        .text
start:  set     0x10000, %o0
        umul    %o0, %o0, %o1       ! Y <- 1
        add     %o1, 1, %o2
        ta      0
        nop
""")
        add = [p for r, p in pairs
               if p.opcode == InstrClass.ARITH_ADD][-1]
        assert add.extra == 1  # Y value before the add

    def test_branch_direction(self):
        pairs = packets_for("""
        .text
start:  cmp     %g0, %g0
        bne     skip
        nop
skip:   ta      0
        nop
""")
        branch = next(p for r, p in pairs
                      if p.opcode == InstrClass.BRANCH)
        assert not branch.branch


def _packet(**changes):
    fields = dict(pc=0x1000, inst=0x01000000, addr=0x2000, res=7,
                  srcv1=1, srcv2=2, cond=0b0100, branch=False,
                  opcode=InstrClass.LOAD_WORD, decode=0b1, extra=0,
                  src1=8, src2=9, dest=10)
    fields.update(changes)
    return TracePacket(**fields)


class TestPacketContract:
    def test_packet_fields_are_read_only(self):
        packet = _packet()
        with pytest.raises(AttributeError):
            packet.addr = 0
        with pytest.raises(AttributeError):
            packet.record = None

    def test_meta_access_fields_are_read_only(self):
        access = MetaAccess("write", 0x100, 0xF)
        with pytest.raises(AttributeError):
            access.mask = 0

    def test_equal_fields_mean_equal_packets(self):
        assert _packet() == _packet()
        assert hash(_packet()) == hash(_packet())
        assert _packet() != _packet(res=8)
        assert MetaAccess("read", 4) == MetaAccess("read", 4, 0xFFFFFFFF)
        assert hash(MetaAccess("read", 4)) == hash(
            MetaAccess("read", 4, 0xFFFFFFFF))

    def test_fields_match_table_two(self):
        # Every field but the trailing simulator-only ``record`` is a
        # Table II wire, in Table II's order.
        assert TracePacket._fields[-1] == "record"
        assert tuple(f.upper() for f in TracePacket._fields[:-1]) == tuple(
            PACKET_FIELD_BITS)

    def test_from_commit_fills_fields_in_order(self):
        pairs = packets_for("""
        .text
start:  set     data, %g1
        ld      [%g1], %o0
        ta      0
        nop
        .data
data:   .word   0x11223344
""")
        record, packet = next((r, p) for r, p in pairs
                              if p.opcode == InstrClass.LOAD_WORD)
        assert packet.pc == record.pc
        assert packet.inst == record.word
        assert packet.addr == record.addr
        assert packet.res == record.result == 0x11223344
        assert packet.branch == record.branch_taken
        assert packet.extra == record.y_before
        assert (packet.src1, packet.src2, packet.dest) == (
            record.src1_phys, record.src2_phys, record.dest_phys)
        assert packet.record is record


class TestPacketOutcome:
    def test_fluent_accessors(self):
        outcome = PacketOutcome().read(0x100).write(0x104, 0xF)
        assert outcome.meta_accesses == [
            MetaAccess("read", 0x100),
            MetaAccess("write", 0x104, 0xF),
        ]

    def test_default_one_fabric_cycle(self):
        assert PacketOutcome().fabric_cycles == 1


class TestBaseExtension:
    def test_set_base_moves_meta_addresses(self):
        pairs = packets_for("""
        .text
start:  set     0x70000000, %g1
        fxbase  %g1
        ta      0
        nop
""")
        extension = UninitializedMemoryCheck()
        extension.attach(136)
        for record, packet in pairs:
            if packet.opcode == InstrClass.FLEX:
                extension.handle_flex(packet)
        assert extension.meta_base == 0x70000000
        assert extension.mem_tags.meta_address(0) == 0x70000000

    def test_trap_counts(self):
        extension = UninitializedMemoryCheck()
        extension.attach(136)
        pairs = packets_for("""
        .text
start:  set     0x90000, %g1
        ld      [%g1], %o0
        ta      0
        nop
""")
        record, packet = next(
            (r, p) for r, p in pairs if p.opcode == InstrClass.LOAD_WORD
        )
        outcome = extension.process(packet)
        assert outcome.trap is not None
        assert extension.traps_seen == 1
        assert extension.status_word() == 1

    def test_trap_str(self):
        trap = MonitorTrap(extension="umc", kind="x", pc=0x1000,
                           addr=0x2000, message="boom")
        text = str(trap)
        assert "umc" in text and "0x1000" in text and "0x2000" in text


class TestRunResultHelpers:
    def test_word_unknown_symbol(self):
        from repro.flexcore import run_program
        program = assemble(".text\nstart: ta 0\nnop\n", entry="start")
        result = run_program(program)
        with pytest.raises(KeyError):
            result.word("nothing")
