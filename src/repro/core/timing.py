"""Timing model of the Leon3-like main core.

Leon3 is a single-issue, in-order, 7-stage pipeline.  For a simulator
whose outputs are *normalized execution times*, the pipeline can be
modelled as a per-instruction issue cost (Leon3's documented cycle
counts) plus event-driven stalls from the memory system:

========================  =============
instruction               cycles
========================  =============
ALU / logical / sethi      1
load (ld)                  2   (ldd 3)
store (st)                 3   (std 4)
branch                     1   (+1 for an annulled delay slot)
call                       1
jmpl / indirect jump       3
mul                        4
div                        35
save / restore / flex      1
========================  =============

Cache misses, write-through store traffic and bus contention are
resolved against :class:`~repro.memory.bus.SharedBus`, which the
FlexCore meta-data cache also competes for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.executor import CommitRecord
from repro.isa.opcodes import InstrClass, Op3Mem
from repro.memory.bus import BusConfig, SharedBus, StoreBuffer
from repro.memory.cache import Cache, CacheConfig


@dataclass
class CoreTimingConfig:
    """Timing knobs for the main core."""

    icache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 32, 4)
    )
    dcache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 32, 4)
    )
    bus: BusConfig = field(default_factory=BusConfig)
    store_buffer_depth: int = 8
    latency: dict[InstrClass, int] = field(default_factory=dict)

    def __post_init__(self):
        defaults = {
            InstrClass.LOAD_WORD: 2,
            InstrClass.LOAD_BYTE: 2,
            InstrClass.LOAD_HALF: 2,
            InstrClass.LOAD_DOUBLE: 3,
            InstrClass.STORE_WORD: 3,
            InstrClass.STORE_BYTE: 3,
            InstrClass.STORE_HALF: 3,
            InstrClass.STORE_DOUBLE: 4,
            InstrClass.MUL: 4,
            InstrClass.DIV: 35,
            InstrClass.JMPL: 3,
            InstrClass.RETT: 3,
        }
        for key, value in defaults.items():
            self.latency.setdefault(key, value)

    def base_latency(self, instr_class: InstrClass) -> int:
        return self.latency.get(instr_class, 1)


@dataclass
class CoreTimingStats:
    """Where the cycles of a run went."""

    cycles: int = 0
    instructions: int = 0
    base_cycles: int = 0
    icache_stall: int = 0
    dcache_stall: int = 0
    store_stall: int = 0
    interlock_stall: int = 0  # load-use hazard cycles
    fifo_stall: int = 0  # filled in by the FlexCore system

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


class CoreTiming:
    """Event-driven timing for the main core.

    ``advance(record, now)`` returns the cycle at which the instruction
    commits, charging base latency plus any memory stalls.  FIFO
    backpressure from the FlexCore interface is applied afterwards by
    the system (it needs fabric state).
    """

    def __init__(self, config: CoreTimingConfig, bus: SharedBus,
                 telemetry=None):
        self.config = config
        self.bus = bus
        self.icache = Cache(config.icache)
        self.dcache = Cache(config.dcache)
        self.store_buffer = StoreBuffer(
            bus, depth=config.store_buffer_depth, who="core-store"
        )
        self.stats = CoreTimingStats()
        # Destination of the immediately preceding load, for the
        # load-use interlock (the data cache delivers in the memory
        # stage, one stage after the ALU consumes operands).
        self._pending_load_dest = -1
        # Tracer, resolved once so the hot path pays only a None
        # check (and nothing at all on the hit path).
        self._tracer = telemetry.tracer if telemetry is not None else None

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).  The shared bus is
    # owned by the system and snapshotted there.

    def snapshot_state(self) -> dict:
        return {
            "stats": vars(self.stats).copy(),
            "icache": self.icache.snapshot_state(),
            "dcache": self.dcache.snapshot_state(),
            "store_buffer": self.store_buffer.snapshot_state(),
            "pending_load_dest": self._pending_load_dest,
        }

    def restore_state(self, state: dict) -> None:
        self.stats = CoreTimingStats(**state["stats"])
        self.icache.restore_state(state["icache"])
        self.dcache.restore_state(state["dcache"])
        self.store_buffer.restore_state(state["store_buffer"])
        self._pending_load_dest = state["pending_load_dest"]

    def advance(self, record: CommitRecord, now: int) -> int:
        """Charge one committed instruction starting at time ``now``."""
        stats = self.stats
        stats.instructions += 1

        # Instruction fetch.
        if not self.icache.read(record.pc):
            done = self.bus.line_refill(now, "core-ifetch")
            stats.icache_stall += done - now
            if self._tracer is not None:
                self._tracer.span(now, done - now, "core",
                                  "stall.icache_refill", pc=record.pc)
            now = done

        if record.annulled:
            stats.base_cycles += 1
            now += 1
            stats.cycles = now
            self._pending_load_dest = -1
            return now

        base = self.config.base_latency(record.instr_class)

        # Load-use interlock: an instruction consuming the previous
        # load's destination stalls one cycle.
        if self._pending_load_dest > 0:
            dest = self._pending_load_dest
            uses = record.src1_phys == dest or record.src2_phys == dest
            if record.is_store and record.dest_phys == dest:
                uses = True
            if uses:
                base += 1
                stats.interlock_stall += 1
        self._pending_load_dest = record.dest_phys if record.is_load else -1

        stats.base_cycles += base
        now += base

        if record.is_load:
            if not self.dcache.read(record.addr):
                done = self.bus.line_refill(now, "core-dcache")
                stats.dcache_stall += done - now
                if self._tracer is not None:
                    self._tracer.span(now, done - now, "core",
                                      "stall.dcache_refill",
                                      pc=record.pc, addr=record.addr)
                now = done
            if record.instr.opcode == Op3Mem.LDD:
                self.dcache.read(record.addr + 4)
        elif record.is_store:
            self.dcache.write(record.addr)
            proceed = self.store_buffer.push(now)
            stats.store_stall += proceed - now
            if proceed > now and self._tracer is not None:
                self._tracer.span(now, proceed - now, "core",
                                  "stall.store_buffer", pc=record.pc)
            now = proceed
            if record.instr.opcode == Op3Mem.STD:
                self.dcache.write(record.addr + 4)
                proceed = self.store_buffer.push(now)
                stats.store_stall += proceed - now
                now = proceed

        stats.cycles = now
        return now
