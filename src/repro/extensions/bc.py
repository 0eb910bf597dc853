"""Array Bound Check (BC) extension — colour-based, after Clause et al.

Table I / Section IV-C: a 4-bit colour tag per register and an 8-bit
tag per memory word (upper nibble: the colour of a *pointer stored at*
that word, lower nibble: the colour of the *location* itself).  On
allocation, software colours the pointer and the memory region with an
identical colour; on every load/store the pointer colour must match
the location colour.  Colour 0 is the wildcard for unchecked memory.

Propagation is additive: pointer arithmetic ``p + i`` keeps the
pointer's colour because integers carry colour 0, and ``p - q`` of two
same-coloured pointers cancels to 0 — the nibble arithmetic is mod 16.
"""

from __future__ import annotations

import weakref

from repro.extensions.base import MonitorExtension
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import (
    LOAD_CLASSES,
    MEMORY_CLASSES,
    STORE_CLASSES,
    FlexOpf,
    InstrClass,
)

COLOR_MASK = 0xF
WILDCARD = 0


class ArrayBoundCheck(MonitorExtension):
    """Colour-tag spatial memory safety checking."""

    name = "bc"
    description = "array bound checking with colour tags"
    register_tag_bits = 4
    memory_tag_bits = 8

    def forward_config(self) -> ForwardConfig:
        """Forward loads, stores, arithmetic instructions (pointer
        arithmetic) and co-processor instructions (Section IV-C).

        Logical operations are included with the arithmetic group
        because SPARC register copies are encoded as ``or %g0, rs,
        rd`` — without forwarding them a pointer's colour would be
        lost on every ``mov``.
        """
        config = ForwardConfig()
        config.set_classes(MEMORY_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.ARITH_ADD, ForwardPolicy.ALWAYS)
        config.set(InstrClass.ARITH_SUB, ForwardPolicy.ALWAYS)
        config.set(InstrClass.LOGIC, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    # ------------------------------------------------------------------

    @staticmethod
    def _split(tag: int) -> tuple[int, int]:
        """(stored-pointer colour, location colour) of a memory tag."""
        return (tag >> 4) & COLOR_MASK, tag & COLOR_MASK

    @staticmethod
    def _nibble_mask(addr: int, high: bool) -> int:
        """Write-enable mask selecting one nibble of this word's 8-bit
        tag within its 32-bit meta-data word."""
        slot = (addr >> 2) % 4  # four 8-bit tags per meta word
        nibble = 0xF0 if high else 0x0F
        return (nibble << (slot * 8)) & 0xFFFFFFFF

    def build_op(self, klass):
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        # Immediates ride as physical register 0 (%g0), whose shadow
        # entry is never written: they carry colour 0.
        color = self.shadow._tags
        tags = self.mem_tags
        tag_of = tags._tags.get
        meta_address = tags.meta_address
        nibble_mask = self._nibble_mask

        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                opf = packet.opf
                addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
                if opf in (FlexOpf.COLOR_PTR, FlexOpf.TAG_SET_REG):
                    ext.shadow.write(packet.dest, ext.tagval & COLOR_MASK)
                elif opf == FlexOpf.TAG_CLR_REG:
                    ext.shadow.write(packet.dest, 0)
                elif opf == FlexOpf.COLOR_MEM:
                    # Set the location-colour nibble, preserve the rest.
                    ptr_color, _ = ext._split(tags.read(addr))
                    tags.write(addr,
                               (ptr_color << 4) | (ext.tagval & COLOR_MASK))
                    port.write(meta_address(addr),
                               nibble_mask(addr, high=False))
                elif opf == FlexOpf.TAG_CLR_MEM:
                    tags.write(addr, 0)
                    port.write(meta_address(addr), tags.write_mask(addr))
                return None
            return 1, flex

        if klass in LOAD_CLASSES:
            # One 8-bit tag read yields both nibbles: the location
            # colour for the bound check and the stored-pointer colour
            # that becomes the destination register's colour.
            def load(packet, port):
                addr = packet.addr
                port.read(meta_address(addr))
                tag = tag_of(addr >> 2, 0)
                location = tag & COLOR_MASK
                pointer = ((color[packet.src1] + color[packet.src2])
                           & COLOR_MASK)
                trap = None
                if pointer != WILDCARD and pointer != location:
                    trap = ext.trap(
                        packet, "out-of-bounds-read",
                        f"pointer colour {pointer} != location colour "
                        f"{location} at {addr:#x}",
                        addr=addr,
                    )
                dest = packet.dest
                if dest:
                    color[dest] = (tag >> 4) & COLOR_MASK
                return trap
            return 1, load

        if klass in STORE_CLASSES:
            # Check against the location colour, then write the stored
            # data register's colour into the upper nibble.  This is a
            # read followed by a masked write: two meta-cache accesses,
            # hence the 2-cycle initiation interval.
            def store(packet, port):
                addr = packet.addr
                location = tag_of(addr >> 2, 0) & COLOR_MASK
                pointer = ((color[packet.src1] + color[packet.src2])
                           & COLOR_MASK)
                port.read(meta_address(addr))
                trap = None
                if pointer != WILDCARD and pointer != location:
                    trap = ext.trap(
                        packet, "out-of-bounds-write",
                        f"pointer colour {pointer} != location colour "
                        f"{location} at {addr:#x}",
                        addr=addr,
                    )
                tags.write(addr, (color[packet.dest] << 4) | location)
                port.write(meta_address(addr), nibble_mask(addr, high=True))
                return trap
            return 2, store

        # Pointer arithmetic (and register copies, which SPARC encodes
        # as `or`): additive colour propagation; subtraction cancels.
        if klass == InstrClass.ARITH_SUB:
            def sub(packet, port):
                dest = packet.dest
                if dest:
                    color[dest] = ((color[packet.src1]
                                    - color[packet.src2]) & COLOR_MASK)
                return None
            return 1, sub

        def add(packet, port):
            dest = packet.dest
            if dest:
                color[dest] = ((color[packet.src1] + color[packet.src2])
                               & COLOR_MASK)
            return None
        return 1, add

    def hardware(self) -> LogicNetwork:
        """BC datapath: two 4-bit colour datapaths, nibble adders and
        match comparators, plus the read-modify path for the 8-bit
        memory tags (Table III: 252 LUTs, 229 MHz)."""
        net = LogicNetwork(self.name, pipeline_stages=5)
        net.add(Prim.ADDER, width=32, label="tag address base add")
        net.add(Prim.DECODER, width=5, label="write-mask decode")
        net.add(Prim.ADDER, width=4, count=2, label="colour adders")
        net.add(Prim.COMPARATOR_EQ, width=4, count=2, label="colour match")
        net.add(Prim.GATE, width=32, count=2, label="nibble mask generation")
        net.add(Prim.MUX, width=32, ways=4, label="meta datapath select")
        net.add(Prim.MUX, width=8, ways=8, label="tag nibble select")
        net.add(Prim.DECODER, width=4, label="flex opf decode")
        net.add(Prim.GATE, width=16, label="check/trap logic")
        net.add(Prim.GATE, width=32, label="control FSM")
        net.add(Prim.GATE, width=64, label="read-modify merge path")
        net.add(Prim.GATE, width=16, label="FIFO handshake")
        net.add(Prim.REDUCE, width=8, label="trap condition")
        net.add(Prim.REGISTER, width=64, count=5, label="pipeline regs")
        net.add(Prim.REGISTER, width=40, label="base/policy/colour regs")
        return net
