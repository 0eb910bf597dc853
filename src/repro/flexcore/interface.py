"""The core-fabric interface module (Section III-C, Table II).

Sits at the commit stage of the main core.  For every committed
instruction it:

1. classifies the instruction into one of the 32 CFGR types and looks
   up the forwarding policy (ignore / best-effort / always /
   always-with-ack);
2. assembles the trace packet, including the pre-decoded fields;
3. pushes it into the forward FIFO, stalling the commit only when the
   policy requires forwarding and the FIFO is full;
4. lets the fabric drain packets in its own (slower) clock domain,
   stalling the fabric pipeline on meta-data cache misses, which are
   refilled over the *shared* bus and therefore contend with the main
   core's own cache traffic;
5. delivers TRAP/ACK/EMPTY control signals and BFIFO return values.

Timing is event-driven: the fabric's service schedule is computed at
enqueue time, which is exact for an in-order, single-engine fabric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.core.executor import CommitRecord
from repro.flexcore.cfgr import ForwardConfig, ForwardPolicy
from repro.flexcore.fifo import DecouplingFifo
from repro.flexcore.packet import TracePacket
from repro.isa.opcodes import FlexOpf, InstrClass
from repro.memory.bus import SharedBus
from repro.memory.cache import META_CACHE_CONFIG, CacheConfig, MetadataCache

if TYPE_CHECKING:
    from repro.extensions.base import MonitorExtension, MonitorTrap

#: Enum members ``on_commit`` reads per instruction, bound once (a
#: module global is several times cheaper than an enum class-attribute
#: lookup).
_IGNORE = ForwardPolicy.IGNORE
_BEST_EFFORT = ForwardPolicy.BEST_EFFORT
_ALWAYS_ACK = ForwardPolicy.ALWAYS_ACK
_FLEX = InstrClass.FLEX
_READ_STATUS = FlexOpf.READ_STATUS


@dataclass
class InterfaceConfig:
    """Configuration of the core-fabric interface."""

    #: fabric clock as a fraction of the core clock (Table IV: 1X for
    #: the ASIC comparison point, 0.5X for UMC/DIFT/BC, 0.25X for SEC).
    clock_ratio: float = 0.5
    fifo_depth: int = 64
    meta_cache: CacheConfig = field(default_factory=lambda: META_CACHE_CONFIG)
    #: cross-clock-domain synchronisation latency, in fabric cycles.
    sync_fabric_cycles: int = 1
    #: decode instruction fields on the core side (Section III-C: the
    #: DIFT prototype runs ~30% faster with core-side decoding).
    predecode: bool = True
    #: extra fabric cycles per packet when the fabric must decode the
    #: raw instruction word itself (predecode disabled).  A LUT-based
    #: SPARC decoder adds half an initiation interval on average (it
    #: overlaps with the tag datapath for the simpler formats), which
    #: reproduces the ~30% DIFT slowdown the paper reports.
    decode_penalty: float = 0.5
    #: require a CACK before every forwarded instruction commits,
    #: giving precise monitor exceptions (Section III-C discusses this
    #: as the conservative option; the prototypes don't need it since
    #: they terminate on a trap).  Expensive on an in-order core.
    precise_exceptions: bool = False
    #: optional meta-data TLB (Section III-B: "optionally a TLB if
    #: virtual memory is supported"; the paper's prototype omits it).
    #: When enabled, each meta-data access that misses the TLB costs a
    #: table walk over the shared bus.
    meta_tlb_entries: int = 0
    meta_tlb_walk_cycles: int = 12

    def __post_init__(self) -> None:
        if not 0 < self.clock_ratio <= 1:
            raise ValueError(
                f"clock ratio must be in (0, 1], got {self.clock_ratio}"
            )
        if self.fifo_depth < 1:
            raise ValueError(
                f"FIFO depth must be positive, got {self.fifo_depth}"
            )
        if self.sync_fabric_cycles < 0:
            raise ValueError("sync_fabric_cycles must be >= 0")
        if self.decode_penalty < 0:
            raise ValueError("decode_penalty must be >= 0")
        if self.meta_tlb_entries < 0:
            raise ValueError("meta_tlb_entries must be >= 0")

    @property
    def fabric_period(self) -> float:
        """Fabric clock period, in core-clock cycles."""
        if not 0 < self.clock_ratio <= 1:
            raise ValueError("clock ratio must be in (0, 1]")
        return 1.0 / self.clock_ratio


@dataclass
class InterfaceStats:
    """Counters the evaluation section reports."""

    committed: int = 0  # committed instructions seen (incl. annulled)
    forwarded: int = 0
    ignored: int = 0
    dropped: int = 0
    forwarded_by_class: dict[InstrClass, int] = field(default_factory=dict)
    fifo_stall_cycles: int = 0  # commit stalled on a full FIFO
    ack_stall_cycles: int = 0  # commit stalled waiting for an ack
    meta_stall_cycles: int = 0  # fabric stalled on meta-data misses
    fabric_busy_cycles: float = 0.0

    @property
    def forwarded_fraction(self) -> float:
        return self.forwarded / self.committed if self.committed else 0.0


class CoreFabricInterface:
    """FIFO interface + fabric service model for one extension."""

    def __init__(
        self,
        extension: MonitorExtension,
        bus: SharedBus,
        config: InterfaceConfig | None = None,
        telemetry=None,
    ):
        self.extension = extension
        self.bus = bus
        self.config = config or InterfaceConfig()
        # The configuration is fixed once the interface exists, so the
        # fabric clock period (a validating property) is read here
        # once rather than on every packet.
        self._period = self.config.fabric_period
        self.cfgr = extension.forward_config()
        self.fifo = DecouplingFifo(self.config.fifo_depth)
        self.meta_cache = MetadataCache(self.config.meta_cache)
        self.stats = InterfaceStats()
        self.pending_trap: MonitorTrap | None = None
        self.trap_time: float = 0.0
        self._fabric_free: float = 0.0
        #: BFIFO: value most recently produced for READ_STATUS.
        self.bfifo_value = 0
        # Meta-data TLB: fully-associative over 4-KB meta pages.
        self._tlb: list[int] = []
        # Telemetry sinks, resolved once; every use sits inside a
        # branch the interface takes anyway (forward/drop/stall), so
        # the disabled default costs one None check per event at most.
        self._tracer = telemetry.tracer if telemetry is not None else None
        metrics = (telemetry.metrics
                   if telemetry is not None and telemetry.metrics.enabled
                   else None)
        if telemetry is not None:
            self.fifo.attach_telemetry(telemetry)
        if metrics is not None:
            self._m_forwarded = metrics.counter("iface.forwarded")
            self._m_ignored = metrics.counter("iface.ignored")
            self._m_dropped = metrics.counter("iface.dropped")
            self._m_fifo_stall = metrics.counter(
                "iface.fifo_stall_cycles"
            )
            self._m_ack_stall = metrics.counter("iface.ack_stall_cycles")
            self._m_meta_refill = metrics.counter("mcache.refill_cycles")
            self._h_service = metrics.histogram(
                "fabric.packet_latency",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            )
        else:
            self._m_forwarded = None
            self._m_ignored = None
            self._m_dropped = None
            self._m_fifo_stall = None
            self._m_ack_stall = None
            self._m_meta_refill = None
            self._h_service = None

    # ------------------------------------------------------------------

    def _service(self, packet: TracePacket, enqueue_time: float) -> float:
        """Run the packet through the fabric; return its drain time."""
        config = self.config
        period = self._period
        outcome = self.extension.process(packet)

        cycles = outcome.fabric_cycles
        if not config.predecode:
            cycles += config.decode_penalty

        # The packet crosses the clock domain, then waits for the
        # fabric engine to be free, starting on a fabric clock edge.
        synced = enqueue_time + config.sync_fabric_cycles * period
        earliest = math.ceil(synced / period) * period
        start = self._fabric_free
        if earliest > start:
            start = earliest
        time = start + cycles * period

        # Meta-data accesses: reads stall the fabric on a miss while
        # the line is refilled over the shared bus; writes go through
        # write-through posted writes that occupy the bus but do not
        # stall the fabric.
        tlb = config.meta_tlb_entries > 0
        for access in outcome.meta_accesses:
            if tlb:
                time = self._tlb_lookup(access.addr, time)
            if access.kind == "read":
                if not self.meta_cache.read(access.addr):
                    done = self.bus.line_refill(int(time), "meta-refill")
                    self.stats.meta_stall_cycles += done - time
                    if self._tracer is not None:
                        self._tracer.span(time, done - time, "mcache",
                                          "mcache.refill",
                                          addr=access.addr)
                    if self._m_meta_refill is not None:
                        self._m_meta_refill.inc(done - time)
                    time = done
            else:
                self.meta_cache.write_bits(access.addr, access.mask)
                self.bus.word_write(int(time), "meta-write")

        self.stats.fabric_busy_cycles += time - start
        self._fabric_free = time

        if outcome.trap is not None and self.pending_trap is None:
            self.pending_trap = outcome.trap
            self.trap_time = time
            if self._tracer is not None:
                self._tracer.instant(time, "monitor", "monitor.trap",
                                     kind=outcome.trap.kind,
                                     pc=outcome.trap.pc)
        return time

    def _tlb_lookup(self, addr: int, time: float) -> float:
        """Translate a meta-data address; a miss costs a table walk
        over the shared bus.  Disabled (zero entries) by default, like
        the paper's prototype, in which case ``_service`` never calls
        it."""
        entries = self.config.meta_tlb_entries
        page = addr >> 12
        if page in self._tlb:
            self._tlb.remove(page)
            self._tlb.append(page)
            return time
        done = self.bus.acquire(
            int(time), self.config.meta_tlb_walk_cycles, "meta-tlb-walk"
        )
        self.stats.meta_stall_cycles += done - time
        self._tlb.append(page)
        if len(self._tlb) > entries:
            self._tlb.pop(0)
        return done

    # ------------------------------------------------------------------

    def on_commit(self, record: CommitRecord, now: float) -> float:
        """Handle one committed instruction; return the (possibly
        stalled) core time after commit."""
        stats = self.stats
        stats.committed += 1
        if record.annulled:
            return now

        instr_class = record.instr_class
        policy = self.cfgr.policy(instr_class)
        if policy == _IGNORE:
            stats.ignored += 1
            if self._m_ignored is not None:
                self._m_ignored.inc()
            return now

        # The "read from co-processor" instruction always needs the
        # BFIFO round trip, regardless of the class policy; precise-
        # exception mode acknowledges every forwarded instruction.
        needs_ack = (
            policy == _ALWAYS_ACK
            or self.config.precise_exceptions
            or (instr_class == _FLEX and record.instr.opf == _READ_STATUS)
        )

        if self.fifo.is_full(now):
            if policy == _BEST_EFFORT:
                stats.dropped += 1
                self.fifo.stats.dropped += 1
                if self._tracer is not None:
                    self._tracer.instant(now, "fifo", "fifo.drop",
                                         pc=record.pc)
                if self._m_dropped is not None:
                    self._m_dropped.inc()
                return now
            wait = self.fifo.time_until_space(now)
            stats.fifo_stall_cycles += wait
            self.fifo.stats.full_stall_cycles += wait
            if self._tracer is not None:
                self._tracer.span(now, wait, "core", "stall.fifo_full",
                                  pc=record.pc)
            if self._m_fifo_stall is not None:
                self._m_fifo_stall.inc(wait)
            now += wait

        packet = TracePacket.from_commit(record)
        stats.forwarded += 1
        stats.forwarded_by_class[instr_class] = (
            stats.forwarded_by_class.get(instr_class, 0) + 1
        )
        drain = self._service(packet, now)
        self.fifo.push(now, drain)
        if self._m_forwarded is not None:
            self._m_forwarded.inc()
            self._h_service.observe(drain - now)
        if self._tracer is not None:
            # Packet lifecycle: enqueue at commit, serviced at drain.
            self._tracer.span(now, drain - now, "fabric",
                              f"packet.{instr_class.name.lower()}",
                              pc=record.pc)

        if needs_ack:
            # CACK comes back through a synchroniser as well.
            ack_at = drain + self.config.sync_fabric_cycles
            stats.ack_stall_cycles += ack_at - now
            if self._tracer is not None:
                self._tracer.span(now, ack_at - now, "core",
                                  "stall.ack", pc=record.pc)
            if self._m_ack_stall is not None:
                self._m_ack_stall.inc(ack_at - now)
            now = ack_at
        return now

    # ------------------------------------------------------------------

    def read_status(self) -> int:
        """Functional BFIFO read for the READ_STATUS instruction."""
        self.bfifo_value = self.extension.status_word()
        return self.bfifo_value

    def drain_time(self) -> float:
        """Time at which the co-processor goes EMPTY."""
        return self._fabric_free

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    def snapshot_state(self) -> dict:
        stats = self.stats
        trap = self.pending_trap
        return {
            "stats": {
                "committed": stats.committed,
                "forwarded": stats.forwarded,
                "ignored": stats.ignored,
                "dropped": stats.dropped,
                "forwarded_by_class": {
                    int(cls): count
                    for cls, count in stats.forwarded_by_class.items()
                },
                "fifo_stall_cycles": stats.fifo_stall_cycles,
                "ack_stall_cycles": stats.ack_stall_cycles,
                "meta_stall_cycles": stats.meta_stall_cycles,
                "fabric_busy_cycles": stats.fabric_busy_cycles,
            },
            "fifo": self.fifo.snapshot_state(),
            "meta_cache": self.meta_cache.snapshot_state(),
            # The CFGR is live state: a configuration upset (or a
            # software rewrite) must survive a checkpoint round-trip.
            "cfgr": self.cfgr.encode(),
            "pending_trap": None if trap is None else {
                "extension": trap.extension,
                "kind": trap.kind,
                "pc": trap.pc,
                "addr": trap.addr,
                "message": trap.message,
            },
            "trap_time": self.trap_time,
            "fabric_free": self._fabric_free,
            "bfifo": self.bfifo_value,
            "tlb": list(self._tlb),
        }

    def restore_state(self, state: dict) -> None:
        from repro.extensions.base import MonitorTrap

        saved = state["stats"]
        self.stats = InterfaceStats(
            committed=saved["committed"],
            forwarded=saved["forwarded"],
            ignored=saved["ignored"],
            dropped=saved["dropped"],
            forwarded_by_class={
                InstrClass(int(cls)): count
                for cls, count in saved["forwarded_by_class"].items()
            },
            fifo_stall_cycles=saved["fifo_stall_cycles"],
            ack_stall_cycles=saved["ack_stall_cycles"],
            meta_stall_cycles=saved["meta_stall_cycles"],
            fabric_busy_cycles=saved["fabric_busy_cycles"],
        )
        self.fifo.restore_state(state["fifo"])
        self.meta_cache.restore_state(state["meta_cache"])
        self.cfgr = ForwardConfig.decode(state["cfgr"])
        trap = state["pending_trap"]
        self.pending_trap = None if trap is None else MonitorTrap(
            extension=trap["extension"],
            kind=trap["kind"],
            pc=trap["pc"],
            addr=trap["addr"],
            message=trap["message"],
        )
        self.trap_time = state["trap_time"]
        self._fabric_free = state["fabric_free"]
        self.bfifo_value = state["bfifo"]
        self._tlb = list(state["tlb"])
