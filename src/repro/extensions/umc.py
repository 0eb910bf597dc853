"""Uninitialized Memory Check (UMC) extension.

Table I / Section IV-A: one 1-bit tag per memory word.  The tag is set
on a store, checked on a load (trap if clear), and cleared by software
on de-allocation.  The address-to-tag translation is a shift-and-add
against a base register, and the tag access goes through the meta-data
cache using its bit-granular write capability.
"""

from __future__ import annotations

import weakref

from repro.extensions.base import MonitorExtension, no_op
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import (
    LOAD_CLASSES,
    MEMORY_CLASSES,
    STORE_CLASSES,
    FlexOpf,
    InstrClass,
)

_DOUBLE = (InstrClass.LOAD_DOUBLE, InstrClass.STORE_DOUBLE)


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

    def build_op(self, klass):
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        tags = self.mem_tags
        tag_of = tags._tags.get
        meta_address = tags.meta_address
        write_mask = tags.write_mask

        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                opf = packet.opf
                if opf == FlexOpf.TAG_CLR_MEM or opf == FlexOpf.TAG_SET_MEM:
                    addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
                    tags.write(addr, int(opf == FlexOpf.TAG_SET_MEM))
                    port.write(meta_address(addr), write_mask(addr))
                return None
            return 1, flex

        # A doubleword touches two tags (two cycles); every narrower
        # access lies inside one word.
        words = 2 if klass in _DOUBLE else 1
        offsets = range(0, 4 * words, 4)
        if klass in STORE_CLASSES:
            # A store (even sub-word) marks the containing word(s)
            # initialized; the bit-granular cache write needs no
            # read-modify-write.
            def store(packet, port):
                addr = packet.addr
                for offset in offsets:
                    tags.write(addr + offset, 1)
                    port.write(meta_address(addr + offset),
                               write_mask(addr + offset))
                return None
            return words, store

        if klass in LOAD_CLASSES:
            def load(packet, port):
                addr = packet.addr
                trap = None
                for offset in offsets:
                    port.read(meta_address(addr + offset))
                    if not tag_of((addr + offset) >> 2, 0):
                        trap = ext.trap(
                            packet,
                            "uninitialized-read",
                            f"load from uninitialized word "
                            f"{addr + offset:#x}",
                            addr=addr + offset,
                        )
                return trap
            return words, load

        return 1, no_op

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
