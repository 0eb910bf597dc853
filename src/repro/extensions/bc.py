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

from repro.extensions.base import MonitorExtension, PacketOutcome
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.flexcore.packet import TracePacket
from repro.isa.opcodes import MEMORY_CLASSES, FlexOpf, InstrClass

COLOR_MASK = 0xF
WILDCARD = 0

#: Enum members read per packet, bound once (a module global is
#: several times cheaper than an enum class-attribute lookup).
_FLEX = InstrClass.FLEX
_ARITH_SUB = InstrClass.ARITH_SUB


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

    def _nibble_mask(self, addr: int, high: bool) -> int:
        """Write-enable mask selecting one nibble of this word's 8-bit
        tag within its 32-bit meta-data word."""
        slot = (addr >> 2) % 4  # four 8-bit tags per meta word
        nibble = 0xF0 if high else 0x0F
        return (nibble << (slot * 8)) & 0xFFFFFFFF

    def _pointer_color(self, packet: TracePacket) -> int:
        """Colour of the effective address = sum of the colours of the
        address-forming registers (immediates contribute 0)."""
        c1 = self.shadow.read(packet.src1)
        c2 = self.shadow.read(packet.src2)
        return (c1 + c2) & COLOR_MASK

    def process(self, packet: TracePacket) -> PacketOutcome:
        shadow = self.shadow
        tags = self.mem_tags
        opcode = packet.opcode

        if opcode == _FLEX:
            outcome = self.handle_flex(packet)
            opf = packet.opf
            addr = (packet.srcv1 + packet.srcv2) & 0xFFFFFFFF
            if opf in (FlexOpf.COLOR_PTR, FlexOpf.TAG_SET_REG):
                shadow.write(packet.dest, self.tagval & COLOR_MASK)
            elif opf == FlexOpf.TAG_CLR_REG:
                shadow.write(packet.dest, 0)
            elif opf == FlexOpf.COLOR_MEM:
                # Set the location-colour nibble, preserve the rest.
                ptr_color, _ = self._split(tags.read(addr))
                tags.write(addr,
                           (ptr_color << 4) | (self.tagval & COLOR_MASK))
                outcome.write(tags.meta_address(addr),
                              self._nibble_mask(addr, high=False))
            elif opf == FlexOpf.TAG_CLR_MEM:
                tags.write(addr, 0)
                outcome.write(tags.meta_address(addr), tags.write_mask(addr))
            return outcome

        outcome = PacketOutcome()

        if packet.is_load:
            # One 8-bit tag read yields both nibbles: the location
            # colour for the bound check and the stored-pointer colour
            # that becomes the destination register's colour.
            tag = tags.read(packet.addr)
            outcome.read(tags.meta_address(packet.addr))
            stored_color, location_color = self._split(tag)
            pointer_color = self._pointer_color(packet)
            if (pointer_color != WILDCARD
                    and pointer_color != location_color):
                outcome.trap = self.trap(
                    packet, "out-of-bounds-read",
                    f"pointer colour {pointer_color} != location colour "
                    f"{location_color} at {packet.addr:#x}",
                    addr=packet.addr,
                )
            shadow.write(packet.dest, stored_color)
            return outcome

        if packet.is_store:
            # Check against the location colour, then write the stored
            # data register's colour into the upper nibble.  This is a
            # read followed by a masked write: two meta-cache accesses,
            # hence the 2-cycle initiation interval.
            tag = tags.read(packet.addr)
            _, location_color = self._split(tag)
            pointer_color = self._pointer_color(packet)
            outcome.read(tags.meta_address(packet.addr))
            if (pointer_color != WILDCARD
                    and pointer_color != location_color):
                outcome.trap = self.trap(
                    packet, "out-of-bounds-write",
                    f"pointer colour {pointer_color} != location colour "
                    f"{location_color} at {packet.addr:#x}",
                    addr=packet.addr,
                )
            data_color = shadow.read(packet.dest)
            tags.write(packet.addr, (data_color << 4) | location_color)
            outcome.write(tags.meta_address(packet.addr),
                          self._nibble_mask(packet.addr, high=True))
            outcome.fabric_cycles = 2
            return outcome

        # Pointer arithmetic (and register copies, which SPARC encodes
        # as `or`): additive colour propagation; subtraction cancels.
        c1 = self.shadow.read(packet.src1)
        c2 = self.shadow.read(packet.src2)
        if opcode == _ARITH_SUB:
            color = (c1 - c2) & COLOR_MASK
        else:
            color = (c1 + c2) & COLOR_MASK
        shadow.write(packet.dest, color)
        return outcome

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
