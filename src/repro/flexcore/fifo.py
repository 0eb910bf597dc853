"""Decoupling FIFO between the core's commit stage and the fabric.

The forward FIFO is the central decoupling mechanism of the FlexCore
architecture (Section III-B): the core pushes trace packets at commit,
the fabric drains them at its own (slower) clock, and the core only
stalls when the FIFO is full and the CFGR policy demands forwarding.

The simulator is discrete-event, so occupancy is represented as the
set of *drain times* of in-flight packets rather than ticking every
cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class FifoStats:
    enqueued: int = 0
    dropped: int = 0  # BEST_EFFORT packets rejected while full
    full_stall_cycles: int = 0  # commit stalls waiting for space
    max_occupancy: int = 0


class DecouplingFifo:
    """Bounded FIFO tracked by drain timestamps (core-clock cycles)."""

    def __init__(self, depth: int = 64):
        if depth < 1:
            raise ValueError("FIFO depth must be positive")
        self.depth = depth
        self._drains: deque[int] = deque()
        self.stats = FifoStats()
        # Telemetry sinks (None = disabled, the zero-overhead default).
        self._tracer = None
        self._h_occupancy = None

    def attach_telemetry(self, telemetry) -> None:
        """Wire a :class:`repro.telemetry.Telemetry` bundle in.  The
        occupancy histogram rides on the tracer: stats cannot give a
        distribution, and traced runs already pay per push."""
        self._tracer = telemetry.tracer
        if self._tracer is not None:
            occupancy_buckets = tuple(
                1 << i for i in range(max(1, self.depth.bit_length()))
            )
            self._h_occupancy = telemetry.metrics.histogram(
                "fifo.occupancy", buckets=occupancy_buckets
            )

    # Each method below retires the packets drained by ``now`` in one
    # pass over the queue head and calls no other.  The reference
    # interface asks ``is_full`` and ``push`` per forwarded packet; the
    # fast engine's forward tail inlines the same retire/check/append
    # on ``_drains``, which therefore stays one deque for life (reset
    # and restore update it in place).

    def occupancy(self, now: int) -> int:
        """Entries still resident at time ``now``."""
        drains = self._drains
        while drains and drains[0] <= now:
            drains.popleft()
        return len(drains)

    def is_full(self, now: int) -> bool:
        drains = self._drains
        while drains and drains[0] <= now:
            drains.popleft()
        return len(drains) >= self.depth

    def time_until_space(self, now: int) -> int:
        """Cycles the core must wait before a slot frees up."""
        drains = self._drains
        while drains and drains[0] <= now:
            drains.popleft()
        if len(drains) < self.depth:
            return 0
        return drains[0] - now

    def push(self, now: int, drain_time: int) -> None:
        """Insert a packet that the fabric will drain at ``drain_time``.

        The caller must have ensured space (policy-dependent).
        """
        drains = self._drains
        while drains and drains[0] <= now:
            drains.popleft()
        if len(drains) >= self.depth:
            raise OverflowError("push into a full FIFO")
        if drain_time < now:
            raise ValueError("drain time before enqueue time")
        drains.append(drain_time)
        stats = self.stats
        stats.enqueued += 1
        occupancy = len(drains)
        if occupancy > stats.max_occupancy:
            stats.max_occupancy = occupancy
        tracer = self._tracer
        if tracer is not None:
            # The pop is known at push time (discrete-event model):
            # emit it at the drain timestamp so the occupancy timeline
            # in the trace is exact.
            tracer.instant(now, "fifo", "fifo.push", drain=drain_time)
            tracer.instant(drain_time, "fifo", "fifo.pop")
            tracer.counter(now, "fifo", "fifo.occupancy", occupancy)
            self._h_occupancy.observe(occupancy)

    def drained_by(self) -> int:
        """Time at which the FIFO is empty (EMPTY signal asserts)."""
        return self._drains[-1] if self._drains else 0

    def reset(self) -> None:
        self._drains.clear()
        self.stats = FifoStats()

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing): in-flight packet
    # drain times are state — a restored core must feel the same
    # backpressure the original would have.

    def snapshot_state(self) -> dict:
        return {
            "drains": list(self._drains),
            "stats": vars(self.stats).copy(),
        }

    def restore_state(self, state: dict) -> None:
        drains = self._drains
        drains.clear()
        drains.extend(state["drains"])
        self.stats = FifoStats(**state["stats"])
