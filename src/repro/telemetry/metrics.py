"""Near-zero-overhead metrics registry.

One registry API for the simulator, the campaigns and the job
service: counters, gauges and fixed-bucket histograms, keyed by
hierarchical dotted names (``core.icache_stall``,
``bus.wait_cycles.core-dcache``, ``fifo.occupancy``).

Simulator metrics cost nothing per simulated event.  The timing
model already keeps its stats (core, interface, FIFO, caches, bus);
:func:`repro.telemetry.summary.publish_metrics` sets one gauge per
stats field once, when the run ends, so a metrics-on run executes
exactly the code a metrics-off run does, fused engine included.
What stats cannot give stays per event, and only where it is cheap
or already paid for:

* ``monitor.<ext>.traps.<kind>`` counts each monitor trap as it is
  raised;
* the ``fifo.occupancy`` and ``fabric.packet_latency`` histograms
  are observed only inside the tracer's branches, on traced runs.

For code that wants to hold an instrument unconditionally,
:data:`NULL_METRICS` hands out shared no-op instruments, so the call
site stays branch-free and the no-op method is the only cost.
Instruments are interned by name: asking the registry twice for the
same name returns the same instrument.
"""

from __future__ import annotations

from bisect import bisect_left


class Counter:
    """A monotonically increasing count (events, cycles, bytes)."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A point-in-time value (occupancy, high-water mark)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def track_max(self, value) -> None:
        """Retain the largest value ever seen (high-water marks)."""
        if value > self.value:
            self.value = value

    def snapshot(self):
        return self.value


#: Default histogram buckets: powers of two up to 64 Ki.  Good enough
#: for latencies and occupancies; pass explicit buckets for anything
#: with a known range.
DEFAULT_BUCKETS = tuple(1 << i for i in range(17))


class Histogram:
    """Fixed-bucket histogram (upper bounds, plus an overflow bucket).

    ``counts[i]`` is the number of observations ``<= buckets[i]``;
    ``counts[-1]`` collects everything larger than the last bound.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")
    kind = "histogram"

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be ascending")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the upper bound of
        the bucket holding the q-th observation; +inf overflow
        reports the largest finite bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= rank:
                return float(bound)
        return float(self.buckets[-1])

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "buckets": {
                **{
                    str(bound): self.counts[i]
                    for i, bound in enumerate(self.buckets)
                },
                "+inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Interning factory and store for every instrument of one run."""

    enabled = True

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _intern(self, name: str, kind, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a "
                f"{type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._intern(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._intern(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._intern(
            name, Histogram, lambda: Histogram(name, buckets)
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __getitem__(self, name: str):
        return self._instruments[name]

    def snapshot(self) -> dict:
        """Plain-data dump of every instrument, sorted by name."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def instruments(self) -> list:
        """Every live instrument, sorted by name (exposition
        renderers need the instrument objects, not just values, to
        know counter vs gauge vs histogram)."""
        return [instrument for _name, instrument
                in sorted(self._instruments.items())]

    def format(self) -> str:
        """Human rendering grouped by the first name segment."""
        lines: list[str] = []
        group = None
        for name, instrument in sorted(self._instruments.items()):
            prefix = name.split(".", 1)[0]
            if prefix != group:
                if group is not None:
                    lines.append("")
                group = prefix
            if isinstance(instrument, Histogram):
                lines.append(
                    f"{name:<32} count={instrument.count} "
                    f"mean={instrument.mean:.1f}"
                )
                for bound, n in instrument.snapshot()["buckets"].items():
                    if n:
                        lines.append(f"{'':<34}<= {bound}: {n}")
            else:
                value = instrument.value
                shown = (f"{value:.1f}" if isinstance(value, float)
                         else str(value))
                lines.append(f"{name:<32} {shown}")
        return "\n".join(lines)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    kind = "null"
    value = 0
    count = 0
    total = 0
    mean = 0.0

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def track_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def snapshot(self):
        return 0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The off switch: hands out shared no-op instruments.

    ``enabled`` is False so callers can skip whole instrumentation
    blocks; callers that don't bother still pay only a no-op call.
    """

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS):
        return _NULL_INSTRUMENT

    def __contains__(self, name: str) -> bool:
        return False

    def snapshot(self) -> dict:
        return {}

    def instruments(self) -> list:
        return []

    def format(self) -> str:
        return ""


#: Process-wide disabled registry; safe to share (it holds no state).
NULL_METRICS = NullMetrics()
