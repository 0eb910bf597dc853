"""Core-fabric interface: forwarding policies, backpressure, acks,
clock-domain timing."""

import gc
import weakref

import pytest

from repro.core.executor import CommitRecord
from repro.extensions import UninitializedMemoryCheck, create_extension
from repro.flexcore.cfgr import ForwardPolicy
from repro.flexcore.interface import CoreFabricInterface, InterfaceConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import InstrClass, Op, Op3Mem
from repro.memory.bus import SharedBus


def load_record(addr=0x20000, pc=0x1000):
    instr = Instruction(op=Op.FORMAT3_MEM, opcode=Op3Mem.LD,
                        rd=8, rs1=9, use_imm=True, imm=0)
    return CommitRecord(pc=pc, word=0, instr=instr,
                        instr_class=instr.instr_class, addr=addr)


def alu_record(pc=0x1000):
    from repro.isa.opcodes import Op3
    instr = Instruction(op=Op.FORMAT3_ALU, opcode=Op3.ADD, rd=10,
                        rs1=8, rs2=9)
    return CommitRecord(pc=pc, word=0, instr=instr,
                        instr_class=instr.instr_class)


def make_interface(ratio=0.5, depth=4, extension=None):
    extension = extension or UninitializedMemoryCheck()
    extension.attach(136)
    config = InterfaceConfig(clock_ratio=ratio, fifo_depth=depth)
    return CoreFabricInterface(extension, SharedBus(), config)


class TestPolicies:
    def test_ignored_class_not_forwarded(self):
        interface = make_interface()
        now = interface.on_commit(alu_record(), 0)
        assert now == 0
        assert interface.stats.ignored == 1
        assert interface.stats.forwarded == 0

    def test_forwarded_class_counted(self):
        interface = make_interface()
        interface.on_commit(load_record(), 0)
        assert interface.stats.forwarded == 1
        assert interface.stats.forwarded_by_class[InstrClass.LOAD_WORD] == 1

    def test_annulled_instructions_skipped(self):
        interface = make_interface()
        record = load_record()
        record.annulled = True
        interface.on_commit(record, 0)
        assert interface.stats.forwarded == 0

    def test_best_effort_drops_when_full(self):
        extension = UninitializedMemoryCheck()
        interface = make_interface(depth=1, extension=extension)
        interface.cfgr.set(InstrClass.LOAD_WORD, ForwardPolicy.BEST_EFFORT)
        interface.on_commit(load_record(), 0)
        interface.on_commit(load_record(), 0)  # FIFO still full at t=0
        assert interface.stats.dropped == 1

    def test_always_policy_stalls_when_full(self):
        interface = make_interface(depth=1)
        t1 = interface.on_commit(load_record(), 0)
        t2 = interface.on_commit(load_record(), t1)
        assert t2 > t1
        assert interface.stats.fifo_stall_cycles > 0


class TestClockDomains:
    def test_slower_fabric_spaces_out_service(self):
        """At 0.25X each packet occupies the fabric for 4 core cycles."""
        interface = make_interface(ratio=0.25, depth=64)
        for i in range(10):
            interface.on_commit(load_record(addr=0x20000 + 4 * i), i)
        # The last packet drains no earlier than 10 packets x 4 cycles.
        assert interface.drain_time() >= 40

    def test_full_speed_fabric_keeps_up(self):
        interface = make_interface(ratio=1.0, depth=2)
        # Warm the meta-data cache so the steady state has no misses.
        now = interface.on_commit(load_record(addr=0x20000), 0) + 100
        stalls_after_warmup = interface.stats.fifo_stall_cycles
        for i in range(50):
            now = interface.on_commit(load_record(addr=0x20000 + 4 * i),
                                      now + 1)
        assert interface.stats.fifo_stall_cycles == stalls_after_warmup

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            InterfaceConfig(clock_ratio=0).fabric_period


class TestMetaDataPath:
    def test_meta_miss_stalls_fabric(self):
        interface = make_interface()
        # Loads at widely-spread addresses: every meta read misses.
        for i in range(8):
            interface.on_commit(load_record(addr=0x20000 + 0x10000 * i),
                                10 * i)
        assert interface.stats.meta_stall_cycles > 0

    def test_meta_hits_do_not_stall(self):
        interface = make_interface()
        interface.on_commit(load_record(addr=0x20000), 0)
        stall_after_first = interface.stats.meta_stall_cycles
        interface.on_commit(load_record(addr=0x20000), 50)
        assert interface.stats.meta_stall_cycles == stall_after_first

    def test_meta_refill_contends_on_shared_bus(self):
        interface = make_interface()
        interface.on_commit(load_record(addr=0x9990000), 0)
        assert "meta-refill" in interface.bus.stats.transactions


class TestBackwardPath:
    def test_read_status_value(self):
        extension = create_extension("dift")
        interface = make_interface(extension=extension)
        assert interface.read_status() == extension.status_word()

    def test_trap_latched_once(self):
        extension = UninitializedMemoryCheck()
        interface = make_interface(extension=extension)
        interface.on_commit(load_record(addr=0x20000), 0)
        first = interface.pending_trap
        interface.on_commit(load_record(addr=0x30000), 10)
        assert interface.pending_trap is first

    def test_empty_signal_time(self):
        interface = make_interface()
        assert interface.drain_time() == 0
        interface.on_commit(load_record(), 0)
        assert interface.drain_time() > 0


class TestDecodeAblation:
    def test_fabric_side_decode_slows_service(self):
        fast = make_interface()
        slow_config = InterfaceConfig(clock_ratio=0.5, fifo_depth=4,
                                      predecode=False)
        extension = UninitializedMemoryCheck()
        extension.attach(136)
        slow = CoreFabricInterface(extension, SharedBus(), slow_config)
        fast.on_commit(load_record(), 0)
        slow.on_commit(load_record(), 0)
        assert slow.drain_time() > fast.drain_time()


class TestNoReferenceCycles:
    @pytest.mark.parametrize("name", ["umc", "dift", "bc", "sec"])
    def test_reference_run_freed_by_reference_counting(self, name):
        """The extension caches its fabric ops and the interface owns
        its timing port; neither may hold its owner strongly, or every
        finished system would wait for the cyclic collector."""
        from repro.flexcore.system import FlexCoreSystem
        from repro.workloads import build_workload

        program = build_workload("bitcount", 0.03125).build()
        gc.disable()
        try:
            system = FlexCoreSystem(program, create_extension(name))
            system.run_bounded(engine="reference")
            assert system.extension._ops
            owners = [weakref.ref(system.interface),
                      weakref.ref(system.extension)]
            del system
            assert [ref() for ref in owners] == [None, None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", [None, "umc", "dift", "bc", "sec"])
    def test_fast_run_freed_by_reference_counting(self, name):
        """The fast engine's store handlers invalidate through a weak
        proxy of their table; a strong one closes the cycle table ->
        handlers -> closure -> table around the whole system."""
        from repro.flexcore.system import FlexCoreSystem
        from repro.workloads import build_workload

        program = build_workload("bitcount", 0.03125).build()
        gc.disable()
        try:
            system = FlexCoreSystem(
                program, create_extension(name) if name else None)
            assert system.run_bounded(engine="fast").engine == "fast"
            memory = weakref.ref(system.memory)
            del system
            assert memory() is None
        finally:
            gc.enable()

    def test_self_modifying_fast_run_freed(self):
        """Fused (``st``) and generic (``std``) stores into the text
        both invalidate through the proxy, before and after it fires."""
        from repro.flexcore.system import FlexCoreSystem
        from repro.isa.assembler import assemble

        program = assemble("""
        .text
start:  set     target, %g2
        set     0x01000000, %g4    ! nop
        set     0x01000000, %g5
target: st      %g4, [%g2]
        std     %g4, [%g2]
        ta      0
        nop
""", entry="start")
        gc.disable()
        try:
            system = FlexCoreSystem(program)
            result = system.run_bounded(engine="fast")
            assert result.engine == "fast" and result.halted
            del result
            memory = weakref.ref(system.memory)
            del system
            assert memory() is None
        finally:
            gc.enable()
