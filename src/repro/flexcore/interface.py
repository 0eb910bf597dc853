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

The fabric is configured once, so its service is too: every
extension states it as fabric ops, and
:meth:`CoreFabricInterface.forward_tail` hands the fast engine one
commit tail per (instruction class, access shape): ``on_commit``'s
forwarded branch with the policy and the configuration's constants
(period, synchroniser, decode penalty, ack mode) bound, the FIFO
inlined, and the extension's fabric op run against a
:class:`MetaPort`, which charges each meta-data access to the cache
and the shared bus as the op makes it.  A forwarded instruction is
then two calls, handler → tail → op.
:meth:`CoreFabricInterface._service` is the reference: it calls
``extension.process``, which runs the same op against a
:class:`~repro.extensions.base.PacketOutcome`, then replays the
recorded accesses through the same port, behind the meta-data TLB
when that is on, and emits the tracer's events.  Only the reference
engine, a tracer, a meta-data TLB and a ``process`` patched on the
instance (the ``fifo-drop`` fault) need it.
"""

from __future__ import annotations

import math
import weakref
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


class MetaPort:
    """The timing port a fabric op sends meta-data accesses through.

    ``time`` is the packet's fabric time; a service sets it before the
    op runs and reads it back after.  A read that misses stalls the
    fabric while the line is refilled over the shared bus; a write is
    a posted write-through word write that occupies the bus without
    stalling the fabric.  The port reaches the interface (for its
    stats, which ``restore_state`` replaces) through a weak proxy: the
    interface owns the port, and a strong reference back would keep a
    finished system alive until the cyclic collector ran.
    """

    __slots__ = ("time", "_iface", "_cache", "_bus", "_write_cycles",
                 "_tracer")

    def __init__(self, iface: "CoreFabricInterface"):
        self.time = 0.0
        self._iface = weakref.proxy(iface)
        self._cache = iface.meta_cache
        self._bus = iface.bus
        self._write_cycles = iface.bus.config.write_cycles
        self._tracer = iface._tracer

    def read(self, addr: int) -> None:
        if not self._cache.read(addr):
            time = self.time
            done = self._bus.line_refill(int(time), "meta-refill")
            self._iface.stats.meta_stall_cycles += done - time
            if self._tracer is not None:
                self._tracer.span(time, done - time, "mcache",
                                  "mcache.refill", addr=addr)
            self.time = done

    def write(self, addr: int, mask: int = 0xFFFFFFFF) -> None:
        self._cache.write_bits(addr, mask)
        self._bus.acquire(int(self.time), self._write_cycles, "meta-write")


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
        # Tracer, resolved once; every use sits inside a branch the
        # interface takes anyway (forward/drop/stall), so the disabled
        # default costs one None check per event at most.  The packet
        # latency histogram rides on it: stats cannot give a
        # distribution, and traced runs already pay per packet.
        self._tracer = telemetry.tracer if telemetry is not None else None
        if telemetry is not None:
            self.fifo.attach_telemetry(telemetry)
        if self._tracer is not None:
            self._h_service = telemetry.metrics.histogram(
                "fabric.packet_latency",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
            )
        self._port = MetaPort(self)

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

        # Replay the meta-data accesses through the timing port, each
        # behind a TLB lookup when the TLB is on.
        port = self._port
        port.time = start + cycles * period
        tlb = config.meta_tlb_entries > 0
        for access in outcome.meta_accesses:
            if tlb:
                port.time = self._tlb_lookup(access.addr, port.time)
            if access.kind == "read":
                port.read(access.addr)
            else:
                port.write(access.addr, access.mask)
        time = port.time

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

    def forward_tail(self, klass: InstrClass, inst: int, tails: dict):
        """The fast engine's commit tail for a forwarded, never-annulled
        instruction of class ``klass`` whose INST field is ``inst``:
        ``tail(packet, now) -> commit time``, what :meth:`on_commit`
        returns for that packet's record.

        One call takes the packet from the handler to the fabric op:
        FIFO retire/check/push, fabric timing, the op against the
        :class:`MetaPort`, trap latch and ack, with the policy, ack
        mode and configuration folded into constants.  Runs that need
        the reference path get the same tail with :meth:`_service` in
        the op's place: a tracer (its events live there), a meta-data
        TLB, or a ``process`` that is not the op adapter (patched on
        the instance, as the ``fifo-drop`` fault does).  The choice is
        made here, when the tail is built.  The tail itself emits no
        tracer events: the fast engine only runs untraced, and metrics
        come from the stats at run end.

        One tail serves every PC of a (class, op shape).  ``tails`` is
        the memo; the handler table owns it, so a table built after a
        CFGR change or a ``process`` patch decides afresh, and no tail
        is cached on the interface it references.
        """
        from repro.extensions.base import MonitorExtension

        extension = self.extension
        shape = extension.op_shape(klass, inst)
        tail = tails.get((klass, shape))
        if tail is not None:
            return tail
        op = None
        if (self._tracer is None and not self.config.meta_tlb_entries
                and getattr(extension.process, "__func__", None)
                is MonitorExtension.process):
            op = extension.fabric_op(shape)
        config = self.config
        period = self._period
        busy = 0.0
        if op is not None:
            cycles, op = op
            if not config.predecode:
                cycles += config.decode_penalty
            busy = cycles * period
        sync = config.sync_fabric_cycles * period
        ack_sync = config.sync_fabric_cycles
        policy = self.cfgr.policy(klass)
        best_effort = policy == _BEST_EFFORT
        # FLEX is never fused, so the READ_STATUS clause of
        # ``on_commit``'s ack rule is moot here.
        needs_ack = policy == _ALWAYS_ACK or config.precise_exceptions
        fifo = self.fifo
        drains = fifo._drains
        retire = drains.popleft
        append = drains.append
        depth = fifo.depth
        ceil = math.ceil
        port = self._port
        iface = self

        def tail(packet: TracePacket, now):
            stats = iface.stats
            stats.committed += 1
            while drains and drains[0] <= now:
                retire()
            if len(drains) >= depth:
                if best_effort:
                    stats.dropped += 1
                    fifo.stats.dropped += 1
                    return now
                wait = drains[0] - now
                stats.fifo_stall_cycles += wait
                fifo.stats.full_stall_cycles += wait
                now += wait
                while drains and drains[0] <= now:
                    retire()
            stats.forwarded += 1
            by_class = stats.forwarded_by_class
            by_class[klass] = by_class.get(klass, 0) + 1
            if op is None:
                drain = iface._service(packet, now)
            else:
                # ``_service`` with the op, its initiation interval and
                # the configuration fixed, and no TLB or tracer.
                earliest = ceil((now + sync) / period) * period
                start = iface._fabric_free
                if earliest > start:
                    start = earliest
                port.time = start + busy
                trap = op(packet, port)
                drain = port.time
                stats.fabric_busy_cycles += drain - start
                iface._fabric_free = drain
                if trap is not None and iface.pending_trap is None:
                    iface.pending_trap = trap
                    iface.trap_time = drain
            append(drain)
            fifo_stats = fifo.stats
            fifo_stats.enqueued += 1
            occupancy = len(drains)
            if occupancy > fifo_stats.max_occupancy:
                fifo_stats.max_occupancy = occupancy
            if needs_ack:
                ack_at = drain + ack_sync
                stats.ack_stall_cycles += ack_at - now
                now = ack_at
            return now

        tails[klass, shape] = tail
        return tail

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
                return now
            wait = self.fifo.time_until_space(now)
            stats.fifo_stall_cycles += wait
            self.fifo.stats.full_stall_cycles += wait
            if self._tracer is not None:
                self._tracer.span(now, wait, "core", "stall.fifo_full",
                                  pc=record.pc)
            now += wait

        packet = TracePacket.from_commit(record)
        stats.forwarded += 1
        stats.forwarded_by_class[instr_class] = (
            stats.forwarded_by_class.get(instr_class, 0) + 1
        )
        drain = self._service(packet, now)
        self.fifo.push(now, drain)
        if self._tracer is not None:
            # Packet lifecycle: enqueue at commit, serviced at drain.
            self._tracer.span(now, drain - now, "fabric",
                              f"packet.{instr_class.name.lower()}",
                              pc=record.pc)
            self._h_service.observe(drain - now)

        if needs_ack:
            # CACK comes back through a synchroniser as well.
            ack_at = drain + self.config.sync_fabric_cycles
            stats.ack_stall_cycles += ack_at - now
            if self._tracer is not None:
                self._tracer.span(now, ack_at - now, "core",
                                  "stall.ack", pc=record.pc)
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
