"""Dynamic Information Flow Tracking (DIFT) extension.

Table I / Section IV-B: a 1-bit taint tag per architectural register
(held in the fabric's shadow register file, indexed by physical
register number) and per memory word (behind the meta-data cache).
Tags propagate on ALU/load/store as the OR of the source tags and are
checked on indirect jumps; software sets/clears tags and the policy
register through explicit co-processor instructions.
"""

from __future__ import annotations

import weakref

from repro.extensions.base import MonitorExtension
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import (
    ALU_CLASSES,
    LOAD_CLASSES,
    MEMORY_CLASSES,
    STORE_CLASSES,
    FlexOpf,
    InstrClass,
)

#: Policy register bits (software-settable with SET_POLICY).
POLICY_CHECK_JUMP = 1 << 0  # trap on indirect jump to a tainted target
POLICY_CHECK_LOAD_ADDR = 1 << 1  # trap on load via a tainted pointer
POLICY_CHECK_STORE_ADDR = 1 << 2  # trap on store via a tainted pointer
POLICY_PROPAGATE_LOAD_ADDR = 1 << 3  # OR the pointer taint into the result

DEFAULT_POLICY = POLICY_CHECK_JUMP


class DynamicInformationFlowTracking(MonitorExtension):
    """1-bit taint propagation with a programmable check policy."""

    name = "dift"
    description = "dynamic information flow tracking (taint analysis)"
    register_tag_bits = 1
    memory_tag_bits = 1

    def default_policy(self) -> int:
        return DEFAULT_POLICY

    def forward_config(self) -> ForwardConfig:
        """Forward loads, stores, ALU instructions, indirect jumps and
        co-processor instructions (Section IV-B).  SETHI is included
        with the ALU group so immediate loads clear the destination
        taint."""
        config = ForwardConfig()
        config.set_classes(MEMORY_CLASSES, ForwardPolicy.ALWAYS)
        config.set_classes(ALU_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.SETHI, ForwardPolicy.ALWAYS)
        config.set(InstrClass.JMPL, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    # ------------------------------------------------------------------

    def build_op(self, klass):
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        # Immediate operands have physical number 0 (= %g0), whose
        # shadow entry is never written and so reads as untainted.
        taint = self.shadow._tags
        tags = self.mem_tags
        tag_of = tags._tags.get
        meta_address = tags.meta_address

        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                opf = packet.opf
                if opf == FlexOpf.TAG_SET_REG:
                    ext.shadow.write(packet.dest, ext.tagval & 1)
                elif opf == FlexOpf.TAG_CLR_REG:
                    ext.shadow.write(packet.dest, 0)
                elif opf == FlexOpf.TAG_SET_MEM or opf == FlexOpf.TAG_CLR_MEM:
                    addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
                    tags.write(addr, ext.tagval & 1
                               if opf == FlexOpf.TAG_SET_MEM else 0)
                    port.write(meta_address(addr), tags.write_mask(addr))
                return None
            return 1, flex

        if klass in LOAD_CLASSES:
            def load(packet, port):
                addr = packet.addr
                port.read(meta_address(addr))
                value = tag_of(addr >> 2, 0)
                pointer = taint[packet.src1] | taint[packet.src2]
                trap = None
                if pointer:
                    policy = ext.policy
                    if policy & POLICY_PROPAGATE_LOAD_ADDR:
                        value |= pointer
                    if policy & POLICY_CHECK_LOAD_ADDR:
                        trap = ext.trap(
                            packet, "tainted-load-pointer",
                            f"load via tainted pointer to {addr:#x}",
                            addr=addr,
                        )
                dest = packet.dest
                if dest:
                    taint[dest] = value
                return trap
            return 1, load

        if klass in STORE_CLASSES:
            def store(packet, port):
                # The store's data register rides in the DEST slot.
                addr = packet.addr
                tags.write(addr, taint[packet.dest])
                port.write(meta_address(addr), tags.write_mask(addr))
                if (taint[packet.src1] | taint[packet.src2]
                        and ext.policy & POLICY_CHECK_STORE_ADDR):
                    return ext.trap(
                        packet, "tainted-store-pointer",
                        f"store via tainted pointer to {addr:#x}",
                        addr=addr,
                    )
                return None
            return 1, store

        if klass == InstrClass.JMPL:
            def jump(packet, port):
                trap = None
                if (taint[packet.src1] | taint[packet.src2]
                        and ext.policy & POLICY_CHECK_JUMP):
                    trap = ext.trap(
                        packet, "tainted-jump",
                        f"indirect jump to tainted target "
                        f"{packet.addr:#x}",
                        addr=packet.addr,
                    )
                # The link register receives an untainted PC.
                dest = packet.dest
                if dest:
                    taint[dest] = 0
                return trap
            return 1, jump

        if klass == InstrClass.SETHI:
            def sethi(packet, port):
                dest = packet.dest
                if dest:
                    taint[dest] = 0
                return None
            return 1, sethi

        # ALU: OR-propagate source taints to the destination.
        def alu(packet, port):
            dest = packet.dest
            if dest:
                taint[dest] = taint[packet.src1] | taint[packet.src2]
            return None
        return 1, alu

    def hardware(self) -> LogicNetwork:
        """DIFT datapath: the UMC-style tag-address path plus the
        1-bit taint propagation network, policy checks and the flex
        opcode decoder (Table III: 153 LUTs, 256 MHz)."""
        net = LogicNetwork(self.name, pipeline_stages=4)
        net.add(Prim.ADDER, width=32, label="tag address base add")
        net.add(Prim.DECODER, width=5, label="write-mask decode")
        net.add(Prim.MUX, width=1, ways=32, label="tag bit select")
        net.add(Prim.GATE, width=24, label="control FSM")
        net.add(Prim.GATE, width=16, label="FIFO handshake")
        net.add(Prim.MUX, width=1, ways=4, count=2,
                label="dest tag source select")
        net.add(Prim.GATE, width=8, label="policy check logic")
        net.add(Prim.DECODER, width=4, label="flex opf decode")
        net.add(Prim.MUX, width=32, ways=4, label="meta datapath select")
        net.add(Prim.REDUCE, width=8, label="trap condition")
        net.add(Prim.REGISTER, width=48, count=4, label="pipeline regs")
        net.add(Prim.REGISTER, width=34, label="base/policy registers")
        return net
