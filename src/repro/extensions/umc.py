"""Uninitialized Memory Check (UMC) extension.

Table I / Section IV-A: one 1-bit tag per memory word.  The tag is set
on a store, checked on a load (trap if clear), and cleared by software
on de-allocation.  The address-to-tag translation is a shift-and-add
against a base register, and the tag access goes through the meta-data
cache using its bit-granular write capability.
"""

from __future__ import annotations

from repro.extensions.base import MonitorExtension, PacketOutcome
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.isa.opcodes import MEMORY_CLASSES, FlexOpf, InstrClass

#: Enum members read per packet, bound once (a module global is
#: several times cheaper than an enum class-attribute lookup).
_FLEX = InstrClass.FLEX


class UninitializedMemoryCheck(MonitorExtension):
    """1-bit initialized/uninitialized tag per memory word."""

    name = "umc"
    description = "uninitialized memory read checking"
    register_tag_bits = 0
    memory_tag_bits = 1

    def forward_config(self) -> ForwardConfig:
        """Forward loads/stores and co-processor instructions; ignore
        everything else (Section IV-A)."""
        config = ForwardConfig()
        config.set_classes(MEMORY_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    def on_program_load(self, program, stack_top: int) -> None:
        """The loader wrote the text/data image, so those words start
        out initialized (including zero-filled .space regions)."""
        tags = self.mem_tags
        tags.fill_range(program.text_base, program.text_size, 1)
        if program.data:
            tags.fill_range(program.data_base, len(program.data), 1)

    def process(self, packet: TracePacket) -> PacketOutcome:
        tags = self.mem_tags
        if packet.opcode == _FLEX:
            outcome = self.handle_flex(packet)
            addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
            if packet.opf == FlexOpf.TAG_CLR_MEM:
                tags.write(addr, 0)
                outcome.write(tags.meta_address(addr), tags.write_mask(addr))
            elif packet.opf == FlexOpf.TAG_SET_MEM:
                tags.write(addr, 1)
                outcome.write(tags.meta_address(addr), tags.write_mask(addr))
            return outcome

        outcome = PacketOutcome()
        addr = packet.addr
        if packet.is_store:
            # A store (even sub-word) marks the containing word(s)
            # initialized; the bit-granular cache write needs no
            # read-modify-write.
            for offset in range(0, packet.access_size or 4, 4):
                tags.write(addr + offset, 1)
                outcome.write(
                    tags.meta_address(addr + offset),
                    tags.write_mask(addr + offset),
                )
            outcome.fabric_cycles = max(1, (packet.access_size or 4) // 4)
        elif packet.is_load:
            for offset in range(0, packet.access_size or 4, 4):
                outcome.read(tags.meta_address(addr + offset))
                if not tags.read(addr + offset):
                    outcome.trap = self.trap(
                        packet,
                        "uninitialized-read",
                        f"load from uninitialized word {addr + offset:#x}",
                        addr=addr + offset,
                    )
            outcome.fabric_cycles = max(1, (packet.access_size or 4) // 4)
        return outcome

    def hardware(self) -> LogicNetwork:
        """UMC datapath: address translation (constant shift is free
        wiring, then a base add), write-mask decode, a 1-bit tag check
        — the smallest extension (Table III: 112 LUTs, 266 MHz)."""
        net = LogicNetwork(self.name, pipeline_stages=4)
        net.add(Prim.ADDER, width=32, label="tag address base add")
        net.add(Prim.DECODER, width=5, label="write-mask decode")
        net.add(Prim.MUX, width=1, ways=32, label="tag bit select")
        net.add(Prim.GATE, width=24, label="control FSM")
        net.add(Prim.GATE, width=16, label="FIFO handshake")
        net.add(Prim.GATE, width=28, label="cache request mux/steer")
        net.add(Prim.COMPARATOR_EQ, width=1, label="tag check")
        net.add(Prim.REDUCE, width=8, label="trap condition")
        net.add(Prim.REGISTER, width=36, count=4, label="pipeline regs")
        net.add(Prim.REGISTER, width=33, label="base/policy registers")
        return net
