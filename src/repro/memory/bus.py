"""Shared memory bus and SDRAM timing model.

The Leon3 prototype has no L2 cache: the L1 instruction cache, L1 data
cache (write-through), and the FlexCore meta-data cache all share one
AMBA-style bus to off-chip SDRAM.  Section V-C of the paper attributes
part of the monitoring overhead to exactly this contention: "meta-data
refills from memory hog the memory bus shared by the meta-data cache
and the main core caches."

The model is discrete-event: the bus is a single serially-reusable
resource with a ``busy_until`` timestamp (in core-clock cycles).  Each
transaction waits for the bus, occupies it for its duration, and the
caller learns its completion time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class BusConfig:
    """Timing parameters, in main-core clock cycles."""

    dram_latency: int = 30  # first-word latency of an SDRAM read
    word_cycles: int = 1  # per-word burst transfer time
    write_cycles: int = 4  # posted single-word write occupancy
    line_words: int = 8  # words per cache line (32-byte lines)

    @property
    def refill_cycles(self) -> int:
        """Total occupancy of a full line refill."""
        return self.dram_latency + self.line_words * self.word_cycles


@dataclass
class BusStats:
    """Accounting of bus usage per requester name."""

    transactions: dict[str, int] = field(default_factory=dict)
    busy_cycles: dict[str, int] = field(default_factory=dict)
    wait_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def total_busy(self) -> int:
        return sum(self.busy_cycles.values())


class SharedBus:
    """Single shared bus; transactions are serialized in arrival order.

    This is intentionally simple (no split transactions, no priorities)
    — the same fidelity level the performance discussion in the paper
    relies on: contention shows up as increased access latency for
    whoever arrives while the bus is busy.
    """

    def __init__(self, config: BusConfig | None = None):
        self.config = config or BusConfig()
        self.busy_until = 0
        self.stats = BusStats()
        # Tracer (None = disabled, the zero-overhead default; the only
        # cost then is one None check per transaction).
        self._tracer = None

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` bundle in."""
        self._tracer = telemetry.tracer

    def acquire(self, now: int, duration: int, who: str) -> int:
        """Occupy the bus for ``duration`` cycles starting no earlier
        than ``now``; return the completion time.  Every bus charge is
        this one call (store buffers and meta-data writes call it
        directly), so it updates the per-requester stats inline."""
        start = self.busy_until
        if now > start:
            start = now
        done = self.busy_until = start + duration
        stats = self.stats
        counts = stats.transactions
        counts[who] = counts.get(who, 0) + 1
        counts = stats.busy_cycles
        counts[who] = counts.get(who, 0) + duration
        counts = stats.wait_cycles
        counts[who] = counts.get(who, 0) + (start - now)
        if self._tracer is not None:
            self._tracer.span(start, duration, "bus", f"bus.{who}",
                              wait=start - now)
        return done

    # Convenience wrapper --------------------------------------------------

    def line_refill(self, now: int, who: str) -> int:
        """A full cache-line refill from SDRAM; returns completion time."""
        return self.acquire(now, self.config.refill_cycles, who)

    def reset(self) -> None:
        self.busy_until = 0
        self.stats = BusStats()

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    def snapshot_state(self) -> dict:
        return {
            "busy_until": self.busy_until,
            "transactions": dict(self.stats.transactions),
            "busy_cycles": dict(self.stats.busy_cycles),
            "wait_cycles": dict(self.stats.wait_cycles),
        }

    def restore_state(self, state: dict) -> None:
        self.busy_until = state["busy_until"]
        self.stats = BusStats(
            transactions=dict(state["transactions"]),
            busy_cycles=dict(state["busy_cycles"]),
            wait_cycles=dict(state["wait_cycles"]),
        )


class StoreBuffer:
    """Write buffer between a write-through cache and the bus.

    Stores are posted into the buffer and drain to the bus in order.
    The core only stalls when the buffer is full — the dominant effect
    that makes stores cheap on Leon3 despite the write-through policy.

    The drain times never decrease (the bus serialises transactions),
    so they sit in a deque and retire from the front.  The bus's
    configuration is fixed once it exists; the write occupancy is read
    here once.
    """

    def __init__(self, bus: SharedBus, depth: int = 8, who: str = "store"):
        self.bus = bus
        self.depth = depth
        self.who = who
        self._write_cycles = bus.config.write_cycles
        self._drain_times: deque[int] = deque()
        self.stall_cycles = 0

    def push(self, now: int) -> int:
        """Post a store at time ``now``; return the (possibly delayed)
        time at which the core may proceed."""
        drains = self._drain_times
        while drains and drains[0] <= now:
            drains.popleft()
        proceed = now
        if len(drains) >= self.depth:
            # Stall until the oldest entry drains.
            proceed = drains.popleft()
            self.stall_cycles += proceed - now
            while drains and drains[0] <= proceed:
                drains.popleft()
        drains.append(self.bus.acquire(proceed, self._write_cycles,
                                       self.who))
        return proceed

    def drain_time(self) -> int:
        """Time at which every buffered store has reached memory."""
        return self._drain_times[-1] if self._drain_times else 0

    def reset(self) -> None:
        self._drain_times.clear()
        self.stall_cycles = 0

    def snapshot_state(self) -> dict:
        return {
            "drains": list(self._drain_times),
            "stall_cycles": self.stall_cycles,
        }

    def restore_state(self, state: dict) -> None:
        self._drain_times = deque(state["drains"])
        self.stall_cycles = state["stall_cycles"]
