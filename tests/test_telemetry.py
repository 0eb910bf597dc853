"""The telemetry subsystem: metrics registry, event tracer, exporters,
run summaries/digests, and the observational-invariance contract
(telemetry never changes a run's timing result)."""

import dataclasses
import json

import pytest

from repro.extensions import create_extension
from repro.flexcore import run_program
from repro.isa import assemble
from repro.telemetry import (
    NULL_METRICS,
    EventTracer,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    Telemetry,
    cycle_attribution,
    format_run_summary,
    run_digest,
)
from repro.telemetry.summary import publish_metrics

COUNT_PROGRAM = """
        .text
start:  clr     %o0
        set     200, %o1
loop:   add     %o0, 1, %o0
        subcc   %o1, 1, %o1
        bne     loop
        nop
        set     result, %g1
        st      %o0, [%g1]
        ta      0
        nop
        .data
result: .word   0
"""


def program():
    return assemble(COUNT_PROGRAM, entry="start")


# ---------------------------------------------------------------------------
# Metrics registry.


class TestMetrics:
    def test_counter_interned_by_name(self):
        registry = MetricsRegistry()
        registry.counter("fifo.pushes").inc()
        registry.counter("fifo.pushes").inc(3)
        assert registry["fifo.pushes"].value == 4

    def test_gauge_track_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("fifo.high_water")
        gauge.track_max(3)
        gauge.track_max(7)
        gauge.track_max(5)
        assert gauge.value == 7

    def test_histogram_buckets(self):
        histogram = Histogram("lat", buckets=(1, 4, 16))
        for value in (0, 1, 2, 5, 100):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 5
        assert snap["buckets"] == {"1": 2, "4": 1, "16": 1, "+inf": 1}
        assert histogram.mean == pytest.approx(108 / 5)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(4, 1))

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_sorted_and_plain(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(9)
        snap = registry.snapshot()
        assert list(snap) == ["a", "b"]
        json.dumps(snap)  # plain data

    def test_null_registry_is_inert(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("anything").inc(5)
        NULL_METRICS.gauge("g").track_max(3)
        NULL_METRICS.histogram("h").observe(1)
        assert NULL_METRICS.snapshot() == {}
        assert "anything" not in NULL_METRICS

    def test_format_mentions_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("core.instructions").inc(7)
        registry.histogram("fifo.occupancy", buckets=(1, 2)).observe(1)
        text = registry.format()
        assert "core.instructions" in text
        assert "fifo.occupancy" in text


# ---------------------------------------------------------------------------
# Event tracer ring buffer + exporters.


class TestTracer:
    def test_events_in_order_before_wrap(self):
        tracer = EventTracer(capacity=8)
        for i in range(5):
            tracer.instant(float(i), "core", f"e{i}")
        assert len(tracer) == 5
        assert [e.name for e in tracer.events()] == [
            "e0", "e1", "e2", "e3", "e4",
        ]
        assert tracer.overwritten == 0

    def test_ring_wraps_keeping_newest(self):
        tracer = EventTracer(capacity=8)
        for i in range(20):
            tracer.instant(float(i), "core", f"e{i}")
        assert len(tracer) == 8
        assert tracer.overwritten == 12
        names = [e.name for e in tracer.events()]
        assert names == [f"e{i}" for i in range(12, 20)]

    def test_wrap_exactly_at_capacity(self):
        tracer = EventTracer(capacity=4)
        for i in range(4):
            tracer.instant(float(i), "core", f"e{i}")
        assert tracer.overwritten == 0
        tracer.instant(4.0, "core", "e4")
        assert tracer.overwritten == 1
        assert [e.name for e in tracer.events()][0] == "e1"

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)

    def test_clear(self):
        tracer = EventTracer(capacity=4)
        tracer.instant(0.0, "core", "e")
        tracer.clear()
        assert len(tracer) == 0 and tracer.events() == []

    def test_perfetto_monotonic_ts_per_track(self):
        tracer = EventTracer(capacity=64)
        # Deliberately emit out of timestamp order (the FIFO emits
        # pops at future drain times).
        tracer.instant(10.0, "fifo", "fifo.pop")
        tracer.instant(2.0, "fifo", "fifo.push")
        tracer.span(5.0, 3.0, "core", "stall.fifo_full")
        tracer.counter(1.0, "fifo", "fifo.occupancy", 3)
        doc = tracer.to_perfetto()
        per_track: dict[int, list[float]] = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            per_track.setdefault(event["tid"], []).append(event["ts"])
        assert per_track  # at least one real track
        for stamps in per_track.values():
            assert stamps == sorted(stamps)

    def test_perfetto_is_valid_json_with_thread_names(self, tmp_path):
        tracer = EventTracer(capacity=16)
        tracer.span(0.0, 2.0, "bus", "bus.core-ifetch", wait=0)
        tracer.instant(1.0, "monitor", "monitor.trap", kind="secde")
        path = tmp_path / "trace.json"
        tracer.write_perfetto(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"bus", "monitor"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i"} <= phases

    def test_jsonl_round_trip(self, tmp_path):
        tracer = EventTracer(capacity=16)
        tracer.span(1.0, 2.0, "core", "stall.icache_refill", pc=0x1000)
        tracer.counter(3.0, "fifo", "fifo.occupancy", 5)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["name"] == "stall.icache_refill"
        assert lines[0]["args"]["pc"] == 0x1000
        assert lines[1]["value"] == 5


# ---------------------------------------------------------------------------
# Observational invariance: telemetry never changes the run.


def _timing_view(result):
    core = dataclasses.asdict(result.core_stats)
    iface = None
    if result.interface_stats is not None:
        stats = result.interface_stats
        iface = (stats.committed, stats.forwarded, stats.ignored,
                 stats.dropped, stats.fifo_stall_cycles,
                 stats.ack_stall_cycles, stats.meta_stall_cycles)
    return (result.cycles, result.instructions, result.halted,
            str(result.termination), core, iface)


class TestInvariance:
    @pytest.mark.parametrize("extension", [None, "umc", "sec"])
    def test_bit_identical_run_result(self, extension):
        def run(telemetry):
            ext = (create_extension(extension)
                   if extension else None)
            return run_program(program(), ext, clock_ratio=0.25,
                               fifo_depth=8, telemetry=telemetry)

        bare = run(None)
        traced = run(Telemetry.enabled(trace=True))
        metered = run(Telemetry.enabled(trace=False))
        assert _timing_view(bare) == _timing_view(traced)
        assert _timing_view(bare) == _timing_view(metered)
        assert run_digest(bare) == run_digest(traced) == \
            run_digest(metered)

    def test_digest_sensitive_to_config(self):
        ext = create_extension("sec")
        slow = run_program(program(), ext, clock_ratio=0.25,
                           fifo_depth=8)
        fast = run_program(program(), create_extension("sec"),
                           clock_ratio=1.0, fifo_depth=64)
        assert run_digest(slow) != run_digest(fast)

    def test_traced_run_emits_events_and_metrics(self):
        telemetry = Telemetry.enabled(trace=True)
        run_program(program(), create_extension("sec"),
                    clock_ratio=0.25, fifo_depth=8,
                    telemetry=telemetry)
        assert len(telemetry.tracer) > 0
        snap = telemetry.metrics.snapshot()
        assert snap["core.instructions"] > 0
        assert snap["iface.forwarded"] > 0
        assert snap["fifo.occupancy"]["count"] == snap["fifo.enqueued"]
        assert snap["fabric.packet_latency"]["count"] > 0
        tracks = {e.track for e in telemetry.tracer.events()}
        assert {"fifo", "fabric"} <= tracks

    def test_publishing_metrics_twice_counts_once(self):
        telemetry = Telemetry.enabled()
        result = run_program(program(), create_extension("sec"),
                             clock_ratio=0.25, fifo_depth=8,
                             telemetry=telemetry)
        snap = telemetry.metrics.snapshot()
        assert snap["system.cycles"] == result.cycles
        publish_metrics(result, telemetry.metrics)
        assert telemetry.metrics.snapshot() == snap


# ---------------------------------------------------------------------------
# FifoStats surfaced in RunResult.


class TestFifoSurface:
    def test_fifo_stats_in_run_result(self):
        result = run_program(program(), create_extension("sec"),
                             clock_ratio=0.25, fifo_depth=4)
        fifo = result.fifo_stats
        assert fifo is not None
        assert result.fifo_depth == 4
        assert fifo.enqueued > 0
        # A 4-deep FIFO in front of a 0.25x SEC fabric must fill up
        # and push back on the core.
        assert fifo.max_occupancy == 4
        assert fifo.full_stall_cycles > 0
        assert fifo.full_stall_cycles == pytest.approx(
            result.interface_stats.fifo_stall_cycles
        )

    def test_peak_occupancy_bounded_by_depth(self):
        result = run_program(program(), create_extension("dift"),
                             clock_ratio=0.5, fifo_depth=16)
        assert 0 < result.fifo_stats.max_occupancy <= 16

    def test_baseline_has_no_fifo_stats(self):
        result = run_program(program())
        assert result.fifo_stats is None
        assert result.fifo_depth is None
        assert result.bus_stats is not None
        assert set(result.cache_stats) == {"icache", "dcache"}

    def test_monitored_run_exposes_meta_cache(self):
        result = run_program(program(), create_extension("umc"))
        assert set(result.cache_stats) == {"icache", "dcache", "mcache"}


# ---------------------------------------------------------------------------
# Summary / attribution / profiler.


class TestSummary:
    def test_attribution_accounts_for_all_cycles(self):
        result = run_program(program(), create_extension("sec"),
                             clock_ratio=0.25, fifo_depth=8)
        parts = cycle_attribution(result)
        total = sum(cycles for _, cycles in parts)
        assert total == pytest.approx(result.cycles, abs=1)
        assert {"base pipeline", "fifo backpressure"} <= {
            name for name, _ in parts
        }

    def test_attribution_with_load_use_interlocks(self):
        # ld-then-use every iteration: base_cycles absorbs the
        # interlock cycle, so a naive sum double-counts it and the
        # attribution overshoots the run (regression test).
        interlocked = assemble("""
                .text
        start:  set     data, %g1
                set     200, %o2
        loop:   ld      [%g1], %o1
                add     %o1, 1, %o0
                st      %o0, [%g1]
                subcc   %o2, 1, %o2
                bne     loop
                nop
                ta      0
                nop
                .data
        data:   .word   1
        """, entry="start")
        result = run_program(interlocked, create_extension("dift"))
        interlocks = dict(cycle_attribution(result))["load-use interlock"]
        assert interlocks >= 200
        total = sum(c for _, c in cycle_attribution(result))
        assert total == pytest.approx(result.cycles, abs=1)

    def test_summary_is_one_screen(self):
        result = run_program(program(), create_extension("sec"),
                             clock_ratio=0.25, fifo_depth=8)
        text = format_run_summary(result)
        for needle in ("CPI", "cycle attribution", "cache hit rates",
                       "high-water mark", "full-stall cycles"):
            assert needle in text
        assert len(text.splitlines()) < 45

    def test_profiler_accumulates(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        assert profiler.calls == {"a": 2, "b": 1}
        assert profiler.total >= 0.0
        assert "a" in profiler.format()


# ---------------------------------------------------------------------------
# Campaign metric aggregation (deterministic, resume-safe).


class TestCampaignMetrics:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.faultinject import Campaign, CampaignConfig
        config = CampaignConfig(extension="sec", workload="crc32",
                                faults=6, seed=7)
        return Campaign(config).run()

    def test_metrics_section_in_json(self, report):
        doc = json.loads(report.to_json())
        metrics = doc["metrics"]
        assert metrics["totals"]["runs"] == 6
        per_outcome = metrics["per_outcome"]
        assert sum(row["runs"] for row in per_outcome.values()) == 6
        for row in per_outcome.values():
            histogram = row["cycles_vs_golden"]
            assert sum(histogram.values()) == row["runs"]

    def test_aggregation_deterministic_from_records(self, report):
        """Rebuilding the report from serialized results (exactly what
        a --resume replay does) aggregates bit-identically."""
        from repro.faultinject.campaign import FaultResult
        from repro.faultinject.report import CoverageReport
        replayed = tuple(
            FaultResult.from_dict(r.as_dict()) for r in report.results
        )
        rebuilt = CoverageReport.build(report.config, report.profile,
                                       replayed)
        assert rebuilt.to_json() == report.to_json()
        assert rebuilt.metrics() == report.metrics()

    def test_format_metrics_table(self, report):
        text = report.format(metrics=True)
        assert "mean cycles" in text
        assert "simulated:" in text
