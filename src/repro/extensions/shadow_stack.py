"""Shadow-stack extension (extra, beyond the paper's four prototypes).

Section II-B argues the co-processing model covers "various techniques
to enhance software security ... including debugging support" — this
is the classic one: a return-address shadow stack for call-stack
integrity.  Calls push the architectural return point onto a small
stack held in the fabric (a LUT-RAM, like the shadow register file);
returns pop and compare, and a mismatch — a smashed stack or a
corrupted window spill — raises TRAP.

It also demonstrates the other end of the cost spectrum: only calls
and returns are forwarded, so the CFGR filters out almost everything
and the monitoring is nearly free even at a quarter fabric clock.
"""

from __future__ import annotations

import weakref

from repro.extensions.base import MonitorExtension
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import InstrClass

DEFAULT_DEPTH = 64


class ShadowStack(MonitorExtension):
    """Return-address protection via a fabric-resident stack."""

    name = "shadowstack"
    description = "call-stack integrity (return-address shadow stack)"
    register_tag_bits = 0
    memory_tag_bits = 0

    def __init__(self, depth: int = DEFAULT_DEPTH):
        super().__init__()
        self.depth = depth
        self._stack: list[int] = []
        #: entries silently dropped because the stack was full; calls
        #: deeper than `depth` are unchecked rather than false alarms.
        self.overflowed = 0

    def forward_config(self) -> ForwardConfig:
        config = ForwardConfig()
        config.set(InstrClass.CALL, ForwardPolicy.ALWAYS)
        config.set(InstrClass.JMPL, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    def build_op(self, klass):
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                return None
            return 1, flex

        if klass == InstrClass.CALL:
            def call(packet, port):
                ext._push(packet.pc + 8)
                return None
            return 1, call

        # JMPL (and any class a CFGR upset forwards): a call when it
        # links (dest != %g0), a return when the link register is
        # discarded.  ``load_extra_state`` replaces the stack, so it is
        # read through the proxy on every packet.
        def jump(packet, port):
            if packet.dest != 0:
                ext._push(packet.pc + 8)
                return None
            stack = ext._stack
            if not stack:
                return None  # unchecked: deeper than the shadow stack
            expected = stack.pop()
            if packet.addr != expected:
                return ext.trap(
                    packet, "return-address-mismatch",
                    f"return to {packet.addr:#x}, shadow stack expects "
                    f"{expected:#x}",
                    addr=packet.addr,
                )
            return None
        return 1, jump

    def _push(self, address: int) -> None:
        if len(self._stack) >= self.depth:
            self._stack.pop(0)
            self.overflowed += 1
        self._stack.append(address & 0xFFFFFFFF)

    def status_word(self) -> int:
        return len(self._stack) & 0xFFFFFFFF

    def extra_state(self) -> dict:
        return {"stack": list(self._stack), "overflowed": self.overflowed}

    def load_extra_state(self, state: dict) -> None:
        self._stack = list(state["stack"])
        self.overflowed = state["overflowed"]

    def hardware(self) -> LogicNetwork:
        """A LUT-RAM stack, one 32-bit comparator, and a tiny FSM."""
        net = LogicNetwork(self.name, pipeline_stages=2)
        net.add(Prim.LUTRAM, width=32, depth=self.depth,
                label="return-address stack")
        net.add(Prim.ADDER, width=8, label="stack pointer")
        net.add(Prim.COMPARATOR_EQ, width=32, label="return check")
        net.add(Prim.GATE, width=16, label="push/pop FSM")
        net.add(Prim.GATE, width=16, label="FIFO handshake")
        net.add(Prim.REGISTER, width=44, count=2, label="pipeline regs")
        return net
