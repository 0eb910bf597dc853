"""Soft Error Check (SEC) extension — Argus-style ALU verification.

Table I / Section IV-D: the fabric re-executes each ALU operation
using the source values and the result forwarded in the trace packet
and raises an exception on mismatch.  Additions, subtractions, logic
and shifts are verified bit-by-bit; multiplications and divisions are
verified with modular arithmetic (mod M, a Mersenne number — the
paper uses M = 2^3 - 1 = 7), which is what the hardware model costs.

SEC keeps no meta-data: no shadow register file, no meta-data cache
traffic — which is why its ASIC overhead in Table III is negligible
while its *fabric* area is the largest (a 32-bit datapath maps poorly
onto LUTs compared with the bit-sliced tag engines).
"""

from __future__ import annotations

import weakref

from repro.core.alu import ALU_OPS, ALU_VALUE, MASK32, DivisionByZero
from repro.extensions.base import MonitorExtension, no_op
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import ALU_CLASSES, InstrClass

MERSENNE_MOD = 7  # 2**3 - 1, Section IV-D

#: Classes checked by Mersenne-mod checksum rather than bit for bit.
_MOD_CHECKED = frozenset({InstrClass.MUL, InstrClass.DIV})


class SoftErrorCheck(MonitorExtension):
    """Re-execute-and-compare checking of the main core's ALU."""

    name = "sec"
    description = "soft error checking of ALU results"
    register_tag_bits = 0
    memory_tag_bits = 0

    def __init__(self, meta_base: int = 0):
        super().__init__(meta_base)
        #: test hook: fault injected into the *checker's* view of the
        #: result, simulating a transient bit flip the core missed.
        self.errors_detected = 0

    def forward_config(self) -> ForwardConfig:
        """Forward all ALU instructions with their operands and
        results (Section IV-D)."""
        config = ForwardConfig()
        config.set_classes(ALU_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    def op_shape(self, klass, inst):
        """SEC's datapath depends on the ALU operation, so its ops are
        keyed by class and the format-3 ``op3`` field of INST (None
        for any other format)."""
        return klass, ((inst >> 19) & 0x3F if inst >> 30 == 2 else None)

    def build_op(self, shape):
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        klass, op3 = shape
        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                return None
            return 1, flex

        # A FORMAT3_ALU op the checker cannot re-execute (e.g. a CFGR
        # upset forwarded a ticc/jmpl packet SEC never asked for), or
        # any other format: nothing to check — the hardware checker
        # would simply pass it by.
        alu_op = ALU_OPS.get(op3)
        if alu_op is None:
            return 1, no_op
        # The hardware checker compares Mersenne-mod checksums of
        # products and quotients rather than recomputing them in full.
        mod_checked = klass in _MOD_CHECKED
        value_of = ALU_VALUE.get(op3)

        def check(packet, port):
            if value_of is not None:
                expected = value_of(packet.srcv1 & MASK32,
                                    packet.srcv2 & MASK32)
            else:
                try:
                    expected = alu_op(packet.srcv1 & MASK32,
                                      packet.srcv2 & MASK32,
                                      packet.carry_in, packet.extra).value
                except DivisionByZero:
                    return None
            actual = packet.res
            if mod_checked:
                mismatch = (expected % MERSENNE_MOD
                            != actual % MERSENNE_MOD)
            else:
                mismatch = expected != actual
            if mismatch:
                ext.errors_detected += 1
                return ext.trap(
                    packet, "soft-error",
                    f"ALU check failed: core produced {actual:#010x}, "
                    f"checker expects {expected:#010x}",
                )
            return None
        return 1, check

    def status_word(self) -> int:
        return self.errors_detected & 0xFFFFFFFF

    def extra_state(self) -> dict:
        return {"errors_detected": self.errors_detected}

    def load_extra_state(self, state: dict) -> None:
        self.errors_detected = state["errors_detected"]

    def hardware(self) -> LogicNetwork:
        """SEC datapath: a full 32-bit adder/subtractor, logic unit,
        barrel shifter, mod-7 folding trees for mul/div, and wide
        comparators — the largest fabric extension (Table III: 484
        LUTs, 213 MHz)."""
        net = LogicNetwork(self.name, pipeline_stages=6)
        net.add(Prim.ADDER, width=32, count=2, label="add/sub re-execute")
        net.add(Prim.GATE, width=32, count=3, label="logic re-execute")
        net.add(Prim.SHIFTER, width=32, label="shift re-execute")
        net.add(Prim.MOD_REDUCE, width=32, count=3,
                label="mod-7 folding (two operands + result)")
        net.add(Prim.MULTIPLIER, width=3, label="mod-7 product")
        net.add(Prim.COMPARATOR_EQ, width=32, label="result compare")
        net.add(Prim.COMPARATOR_EQ, width=3, label="checksum compare")
        net.add(Prim.MUX, width=32, ways=8, label="unit select")
        net.add(Prim.DECODER, width=5, label="opcode decode")
        net.add(Prim.GATE, width=64, label="control / condition handling")
        net.add(Prim.REGISTER, width=100, count=6, label="pipeline regs")
        return net
