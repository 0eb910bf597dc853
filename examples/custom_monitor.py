#!/usr/bin/env python3
"""Writing a new monitoring extension against the public API.

The whole point of FlexCore (vs. MemTracker/FlexiTaint-style fixed-
function monitors) is that the fabric is *general*: a new technique is
just a new bitstream.  In the reproduction, a new technique is a new
``MonitorExtension`` subclass whose ``build_op`` states its datapath:
one fabric op per instruction class.  This example builds a heap
write-set profiler — it watches every store, histograms them by
address region, and flags writes into a configurable "red zone" — and
shows that the same cost models immediately report its area, power and
achievable clock on the fabric.
"""

import weakref

from repro import assemble, run_program
from repro.extensions import MonitorExtension
from repro.fabric import (
    LogicNetwork,
    Prim,
    synthesize_fabric,
)
from repro.flexcore import ForwardConfig, ForwardPolicy
from repro.isa import STORE_CLASSES, FlexOpf, InstrClass


class WriteProfiler(MonitorExtension):
    """Histogram stores by 4-KB region; trap on red-zone writes."""

    name = "writeprof"
    description = "store-address profiler with a red zone"
    register_tag_bits = 0
    memory_tag_bits = 0

    def __init__(self):
        super().__init__()
        self.histogram: dict[int, int] = {}
        self.red_zone = (0, 0)  # [lo, hi), set via SET_POLICY pairs

    def forward_config(self) -> ForwardConfig:
        config = ForwardConfig()
        config.set_classes(STORE_CLASSES, ForwardPolicy.ALWAYS)
        config.set(InstrClass.FLEX, ForwardPolicy.ALWAYS)
        return config

    def build_op(self, klass):
        """One fabric op per instruction class.  Ops are cached on the
        monitor, so they reach it through a weak proxy; ``red_zone``
        is replaced by the FLEX op, so it is read through the proxy on
        every packet."""
        ext = weakref.proxy(self)
        if klass == InstrClass.FLEX:
            def flex(packet, port):
                ext.handle_flex(packet)
                if packet.opf == FlexOpf.SET_TAGVAL:
                    # Reuse the tagval op to set the red zone: srcv1 =
                    # lo, srcv2 = hi.  Extensions own their opf
                    # semantics.
                    ext.red_zone = (packet.srcv1, packet.srcv2)
                return None
            return 1, flex

        histogram = self.histogram

        def store(packet, port):
            region = packet.addr >> 12
            histogram[region] = histogram.get(region, 0) + 1
            lo, hi = ext.red_zone
            if lo <= packet.addr < hi:
                return ext.trap(
                    packet, "red-zone-write",
                    f"store into protected region at {packet.addr:#x}",
                    addr=packet.addr,
                )
            return None
        return 1, store

    def status_word(self) -> int:
        return sum(self.histogram.values()) & 0xFFFFFFFF

    def hardware(self) -> LogicNetwork:
        """Cost sketch: two range comparators, a counter RAM indexed
        by address bits, and the usual FIFO handshake."""
        net = LogicNetwork(self.name, pipeline_stages=3)
        net.add(Prim.COMPARATOR_MAG, width=32, count=2,
                label="red-zone range check")
        net.add(Prim.LUTRAM, width=16, depth=64, label="region counters")
        net.add(Prim.ADDER, width=16, label="counter increment")
        net.add(Prim.GATE, width=24, label="control FSM")
        net.add(Prim.REGISTER, width=40, count=3, label="pipeline regs")
        return net


SOURCE = """
        .text
start:  set     0x20000, %g1            ! normal heap writes
        mov     24, %g2
w1:     st      %g2, [%g1]
        add     %g1, 4, %g1
        subcc   %g2, 1, %g2
        bne     w1
        nop

        set     0x7000, %l0             ! red zone lo
        set     0x8000, %l1             ! red zone hi
        flex    0x14, %l0, %l1          ! SET_TAGVAL -> red zone bounds

        set     0x30000, %g1            ! a second region
        mov     8, %g2
w2:     st      %g2, [%g1]
        add     %g1, 64, %g1
        subcc   %g2, 1, %g2
        bne     w2
        nop

        set     0x7100, %g1             ! stray write into the red zone
        st      %g2, [%g1]
        ta      0
        nop
"""


def main() -> None:
    extension = WriteProfiler()
    result = run_program(assemble(SOURCE, entry="start"), extension,
                         clock_ratio=0.5)

    print("write histogram (4-KB regions):")
    for region in sorted(extension.histogram):
        print(f"  {region << 12:#10x}: {extension.histogram[region]:4d} "
              f"stores")
    print(f"\ntrap: {result.trap}")
    assert result.trap is not None and result.trap.kind == "red-zone-write"

    report = synthesize_fabric(extension)
    print(f"\nfabric synthesis of the new monitor: {report.luts} LUTs, "
          f"{report.area_um2 / 1e3:.0f}k um^2, {report.fmax_mhz:.0f} MHz "
          f"(supports a {report.clock_ratio}x fabric clock), "
          f"{report.power_mw:.0f} mW")
    print("no silicon was harmed: the same chip runs UMC tomorrow.")


if __name__ == "__main__":
    main()
