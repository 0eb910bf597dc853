"""Watchpoint extension (extra, beyond the paper's four prototypes).

iWatcher-style debugging support (cited in the paper's Section II-B):
software registers up to N address ranges with read/write modes via
co-processor instructions; the fabric then checks every memory access
against the ranges in parallel and traps on a hit — hardware
watchpoints without debug-register limits or single-stepping.

Software interface (all through the generic flex ops):

* ``fxval %r``   — latch the watch mode (1 = read, 2 = write, 3 = both)
* ``fxtagm %lo, %hi`` — arm a watchpoint over [lo, hi)
* ``fxuntagm %lo, %g0`` — disarm the watchpoint starting at lo
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.extensions.base import MonitorExtension
from repro.fabric.logic import LogicNetwork, Prim
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.isa.opcodes import (
    MEMORY_CLASSES,
    STORE_CLASSES,
    FlexOpf,
    InstrClass,
)

WATCH_READ = 1
WATCH_WRITE = 2
DEFAULT_SLOTS = 4


@dataclass(frozen=True)
class WatchRange:
    lo: int
    hi: int
    mode: int

    def matches(self, addr: int, is_write: bool) -> bool:
        if not self.lo <= addr < self.hi:
            return False
        wanted = WATCH_WRITE if is_write else WATCH_READ
        return bool(self.mode & wanted)


class Watchpoints(MonitorExtension):
    """Hardware watchpoints over software-armed address ranges."""

    name = "watchpoint"
    description = "debugging watchpoints over address ranges"
    register_tag_bits = 0
    memory_tag_bits = 0

    def __init__(self, slots: int = DEFAULT_SLOTS):
        super().__init__()
        self.slots = slots
        self.ranges: list[WatchRange] = []
        self.hits = 0

    def forward_config(self) -> ForwardConfig:
        config = ForwardConfig()
        config.set_classes(MEMORY_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    def build_op(self, klass):
        # ``load_extra_state`` and a disarm replace ``ranges``, so the
        # ops read it through the proxy on every packet.
        ext = weakref.proxy(self)  # see MonitorExtension.build_op
        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                opf = packet.opf
                if opf == FlexOpf.TAG_SET_MEM:
                    ranges = ext.ranges
                    if len(ranges) >= ext.slots:
                        ranges.pop(0)
                    ranges.append(WatchRange(
                        lo=packet.srcv1, hi=packet.srcv2,
                        mode=ext.tagval & 3,
                    ))
                elif opf == FlexOpf.TAG_CLR_MEM:
                    ext.ranges = [
                        r for r in ext.ranges if r.lo != packet.srcv1
                    ]
                return None
            return 1, flex

        # Every other class (loads, stores, and whatever a CFGR upset
        # forwards) is checked as an access; only stores write.
        is_write = klass in STORE_CLASSES
        kind = "write" if is_write else "read"

        def access(packet, port):
            addr = packet.addr
            for watch in ext.ranges:
                if watch.matches(addr, is_write):
                    ext.hits += 1
                    return ext.trap(
                        packet, f"watchpoint-{kind}",
                        f"{kind} of watched range "
                        f"[{watch.lo:#x}, {watch.hi:#x}) at {addr:#x}",
                        addr=addr,
                    )
            return None
        return 1, access

    def status_word(self) -> int:
        return self.hits & 0xFFFFFFFF

    def extra_state(self) -> dict:
        return {
            "ranges": [
                {"lo": r.lo, "hi": r.hi, "mode": r.mode}
                for r in self.ranges
            ],
            "hits": self.hits,
        }

    def load_extra_state(self, state: dict) -> None:
        self.ranges = [
            WatchRange(lo=r["lo"], hi=r["hi"], mode=r["mode"])
            for r in state["ranges"]
        ]
        self.hits = state["hits"]

    def hardware(self) -> LogicNetwork:
        """Per-slot bound registers and magnitude comparators, all in
        parallel — the kind of bit-level parallel check a LUT fabric
        is good at."""
        net = LogicNetwork(self.name, pipeline_stages=2)
        net.add(Prim.REGISTER, width=66, count=self.slots,
                label="range bounds + mode")
        net.add(Prim.COMPARATOR_MAG, width=32, count=2 * self.slots,
                label="range compare")
        net.add(Prim.GATE, width=8 * self.slots, label="mode match")
        net.add(Prim.REDUCE, width=self.slots, label="any-hit")
        net.add(Prim.GATE, width=16, label="FIFO handshake")
        net.add(Prim.REGISTER, width=40, count=2, label="pipeline regs")
        return net
