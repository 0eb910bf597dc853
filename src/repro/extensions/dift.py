"""Dynamic Information Flow Tracking (DIFT) extension.

Table I / Section IV-B: a 1-bit taint tag per architectural register
(held in the fabric's shadow register file, indexed by physical
register number) and per memory word (behind the meta-data cache).
Tags propagate on ALU/load/store as the OR of the source tags and are
checked on indirect jumps; software sets/clears tags and the policy
register through explicit co-processor instructions.
"""

from __future__ import annotations

from repro.extensions.base import MonitorExtension, PacketOutcome
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.isa.opcodes import (
    ALU_CLASSES,
    MEMORY_CLASSES,
    FlexOpf,
    InstrClass,
)

#: Policy register bits (software-settable with SET_POLICY).
POLICY_CHECK_JUMP = 1 << 0  # trap on indirect jump to a tainted target
POLICY_CHECK_LOAD_ADDR = 1 << 1  # trap on load via a tainted pointer
POLICY_CHECK_STORE_ADDR = 1 << 2  # trap on store via a tainted pointer
POLICY_PROPAGATE_LOAD_ADDR = 1 << 3  # OR the pointer taint into the result

DEFAULT_POLICY = POLICY_CHECK_JUMP

#: Enum members read per packet, bound once (a module global is
#: several times cheaper than an enum class-attribute lookup).
_FLEX = InstrClass.FLEX
_JMPL = InstrClass.JMPL
_SETHI = InstrClass.SETHI


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

    def _source_taint(self, packet: TracePacket) -> int:
        """OR of the source register taints.  Immediate operands have
        physical number 0 (= %g0), which always reads as untainted."""
        return self.shadow.read(packet.src1) | self.shadow.read(packet.src2)

    def process(self, packet: TracePacket) -> PacketOutcome:
        shadow = self.shadow
        tags = self.mem_tags
        opcode = packet.opcode

        if opcode == _FLEX:
            outcome = self.handle_flex(packet)
            opf = packet.opf
            addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
            if opf == FlexOpf.TAG_SET_REG:
                shadow.write(packet.dest, self.tagval & 1)
            elif opf == FlexOpf.TAG_CLR_REG:
                shadow.write(packet.dest, 0)
            elif opf == FlexOpf.TAG_SET_MEM:
                tags.write(addr, self.tagval & 1)
                outcome.write(tags.meta_address(addr), tags.write_mask(addr))
            elif opf == FlexOpf.TAG_CLR_MEM:
                tags.write(addr, 0)
                outcome.write(tags.meta_address(addr), tags.write_mask(addr))
            return outcome

        outcome = PacketOutcome()

        if packet.is_load:
            taint = tags.read(packet.addr)
            outcome.read(tags.meta_address(packet.addr))
            pointer_taint = self._source_taint(packet)
            if self.policy & POLICY_PROPAGATE_LOAD_ADDR:
                taint |= pointer_taint
            shadow.write(packet.dest, taint)
            if pointer_taint and self.policy & POLICY_CHECK_LOAD_ADDR:
                outcome.trap = self.trap(
                    packet, "tainted-load-pointer",
                    f"load via tainted pointer to {packet.addr:#x}",
                    addr=packet.addr,
                )
            return outcome

        if packet.is_store:
            # The store's data register rides in the DEST slot.
            taint = shadow.read(packet.dest)
            tags.write(packet.addr, taint)
            outcome.write(
                tags.meta_address(packet.addr),
                tags.write_mask(packet.addr),
            )
            if (self._source_taint(packet)
                    and self.policy & POLICY_CHECK_STORE_ADDR):
                outcome.trap = self.trap(
                    packet, "tainted-store-pointer",
                    f"store via tainted pointer to {packet.addr:#x}",
                    addr=packet.addr,
                )
            return outcome

        if opcode == _JMPL:
            if self._source_taint(packet) and self.policy & POLICY_CHECK_JUMP:
                outcome.trap = self.trap(
                    packet, "tainted-jump",
                    f"indirect jump to tainted target {packet.addr:#x}",
                    addr=packet.addr,
                )
            # The link register receives an untainted PC.
            shadow.write(packet.dest, 0)
            return outcome

        if opcode == _SETHI:
            shadow.write(packet.dest, 0)
            return outcome

        # ALU: OR-propagate source taints to the destination.
        shadow.write(packet.dest, self._source_taint(packet))
        return outcome

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
