"""Run-level reporting: cycle attribution, the ``--stats`` screen,
the canonical :class:`RunResult` digest and the run-end metrics.

The attribution decomposes a run's total cycles into the same
components the paper's performance discussion uses (Section V-C):
base pipeline occupancy, I-/D-cache refills, store-buffer pressure,
load-use interlocks, FIFO backpressure, ACK round trips, meta-data
refills and rollback/recovery — with whatever remains labelled
``drain`` (end-of-run FIFO/store-buffer flushing).

The digest is a stable fingerprint of everything a run's *timing
result* contains — cycles, instret, termination, every stall counter
— and deliberately excludes memory contents and telemetry artifacts.
Telemetry observes but never perturbs, so the digest of a fully
traced run must equal the digest of a bare one; CI enforces exactly
that.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.flexcore.system import RunResult


def cycle_attribution(result: "RunResult") -> list[tuple[str, float]]:
    """Ordered (component, cycles) decomposition of the run."""
    core = result.core_stats
    parts: list[tuple[str, float]] = [
        # base_cycles includes the extra cycle each load-use interlock
        # adds to an instruction's latency; report it under its own
        # line and keep "base pipeline" to the hazard-free occupancy
        # so the components sum to the run's total.
        ("base pipeline", core.base_cycles - core.interlock_stall),
        ("icache refills", core.icache_stall),
        ("dcache refills", core.dcache_stall),
        ("store buffer", core.store_stall),
        ("load-use interlock", core.interlock_stall),
    ]
    iface = result.interface_stats
    if iface is not None:
        parts.append(("fifo backpressure", iface.fifo_stall_cycles))
        parts.append(("ack round trips", iface.ack_stall_cycles))
    if result.recovery_cycles:
        parts.append(("rollback recovery", result.recovery_cycles))
    accounted = sum(cycles for _, cycles in parts)
    drain = result.cycles - accounted
    if drain > 0:
        parts.append(("drain (fifo/stores)", drain))
    return parts


def _hit_rate(stats) -> float:
    accesses = stats.accesses
    if not accesses:
        return 1.0
    return 1.0 - stats.misses / accesses


def format_run_summary(result: "RunResult") -> str:
    """The one-screen ``--stats`` report."""
    lines = [
        f"{'instructions':<22} {result.instructions}",
        f"{'cycles':<22} {result.cycles}",
        f"{'CPI':<22} {result.cpi:.3f}",
        f"{'termination':<22} {result.termination}",
        "",
        "cycle attribution",
    ]
    total = result.cycles or 1
    for name, cycles in cycle_attribution(result):
        lines.append(
            f"  {name:<20} {cycles:>12.0f} {cycles / total:>7.1%}"
        )

    caches = result.cache_stats
    if caches:
        lines.append("")
        lines.append("cache hit rates")
        for name, stats in caches.items():
            lines.append(
                f"  {name:<20} {_hit_rate(stats):>7.1%} "
                f"({stats.accesses} accesses, {stats.misses} misses)"
            )

    fifo = result.fifo_stats
    if fifo is not None:
        depth = (result.fifo_depth
                 if result.fifo_depth is not None else "?")
        lines.append("")
        lines.append("forward FIFO")
        lines.append(
            f"  {'high-water mark':<20} {fifo.max_occupancy}"
            f" / {depth}"
        )
        lines.append(f"  {'enqueued':<20} {fifo.enqueued}")
        lines.append(f"  {'dropped':<20} {fifo.dropped}")
        lines.append(
            f"  {'full-stall cycles':<20} {fifo.full_stall_cycles}"
        )

    iface = result.interface_stats
    if iface is not None:
        lines.append("")
        lines.append("monitor interface")
        lines.append(
            f"  {'forwarded':<20} {iface.forwarded} "
            f"({iface.forwarded_fraction:.1%} of commits)"
        )
        lines.append(
            f"  {'meta-stall cycles':<20} {iface.meta_stall_cycles:.0f}"
        )
        lines.append(
            f"  {'fabric busy cycles':<20} "
            f"{iface.fabric_busy_cycles:.0f}"
        )

    bus = result.bus_stats
    if bus is not None and bus.transactions:
        lines.append("")
        lines.append("shared bus")
        for who in sorted(bus.transactions):
            lines.append(
                f"  {who:<20} {bus.transactions[who]:>7} txns  "
                f"{bus.busy_cycles.get(who, 0):>9} busy  "
                f"{bus.wait_cycles.get(who, 0):>9} waited"
            )
    return "\n".join(lines)


def result_fingerprint(result: "RunResult") -> dict:
    """The canonical, JSON-stable view of a run's timing outcome."""
    core = result.core_stats
    data: dict = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "halted": result.halted,
        "termination": str(result.termination),
        "trap": str(result.trap) if result.trap is not None else None,
        "recoveries": result.recoveries,
        "recovery_cycles": result.recovery_cycles,
        "core": {
            "base_cycles": core.base_cycles,
            "icache_stall": core.icache_stall,
            "dcache_stall": core.dcache_stall,
            "store_stall": core.store_stall,
            "interlock_stall": core.interlock_stall,
        },
    }
    iface = result.interface_stats
    if iface is not None:
        data["interface"] = {
            "committed": iface.committed,
            "forwarded": iface.forwarded,
            "ignored": iface.ignored,
            "dropped": iface.dropped,
            "fifo_stall_cycles": iface.fifo_stall_cycles,
            "ack_stall_cycles": round(iface.ack_stall_cycles, 6),
            "meta_stall_cycles": round(iface.meta_stall_cycles, 6),
        }
    fifo = result.fifo_stats
    if fifo is not None:
        data["fifo"] = {
            "enqueued": fifo.enqueued,
            "dropped": fifo.dropped,
            "full_stall_cycles": fifo.full_stall_cycles,
            "max_occupancy": fifo.max_occupancy,
        }
    return data


def publish_metrics(result: "RunResult", metrics) -> None:
    """Publish a finished run's stats into a metrics registry.

    One gauge ``<group>.<field>`` per field of the core, interface,
    FIFO, per-cache and bus stats (a dict field gives one gauge per
    key), plus ``system.cycles``, ``system.instructions`` and
    ``system.rollbacks``.  Gauges are *set*, not incremented: the
    stats are cumulative per system, so publishing after a second
    run of the same system must not count the first one twice.
    """
    groups = {"core": result.core_stats,
              "iface": result.interface_stats,
              "fifo": result.fifo_stats,
              "bus": result.bus_stats,
              **result.cache_stats}
    for group, stats in groups.items():
        if stats is None:
            continue
        for name, value in vars(stats).items():
            if isinstance(value, dict):
                for key, count in value.items():
                    label = getattr(key, "name", key).lower()
                    metrics.gauge(f"{group}.{name}.{label}").set(count)
            else:
                metrics.gauge(f"{group}.{name}").set(value)
    metrics.gauge("system.cycles").set(result.cycles)
    metrics.gauge("system.instructions").set(result.instructions)
    metrics.gauge("system.rollbacks").set(result.recoveries)


def run_digest(result: "RunResult") -> str:
    """SHA-256 over the canonical timing outcome (hex, 16 chars).

    Identical for telemetry-off and fully-traced runs of the same
    program/config — the CI smoke job's invariant.
    """
    blob = json.dumps(result_fingerprint(result), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def format_service_health(health: dict) -> str:
    """Render one ``health`` response of the job service as the
    ``repro status`` screen: readiness, queue/runner occupancy, job
    states and the lifetime service counters."""
    states = health.get("states", {})
    fleet = health.get("fleet", {})
    metrics = health.get("metrics", {})

    def count(name: str) -> object:
        return metrics.get(name, 0)

    lines = [
        f"job server: ready={str(health.get('ready', False)).lower()} "
        f"draining={str(health.get('draining', False)).lower()} "
        f"uptime={health.get('uptime', 0.0):.1f}s "
        f"heartbeats={health.get('heartbeats', 0)}",
        f"queue: {health.get('queued', 0)}/"
        f"{health.get('capacity', 0)} queued, "
        f"{health.get('running', 0)} running, fleet "
        f"{fleet.get('leased', 0)}/{fleet.get('size', 0)} leased "
        f"(peak {fleet.get('peak', 0)})",
        "jobs: " + ", ".join(
            f"{name}={states.get(name, 0)}"
            for name in ("queued", "running", "done", "failed",
                         "cancelled")
        ),
        f"lifetime: submitted={count('service.jobs.submitted')}, "
        f"rejected={count('service.jobs.rejected')}, "
        f"completed={count('service.jobs.completed')}, "
        f"failed={count('service.jobs.failed')}, "
        f"cancelled={count('service.jobs.cancelled')}, "
        f"recovered={count('service.jobs.recovered')}",
    ]
    pool = health.get("pool")
    if pool is not None:
        line = (
            f"pool: {pool.get('retries', 0)} retries, "
            f"{pool.get('respawns', 0)} respawns, "
            f"{pool.get('timeouts', 0)} timeouts, "
            f"{pool.get('crashes', 0)} crashes, "
            f"{pool.get('quarantined', 0)} quarantined"
        )
        if pool.get("degraded"):
            line += " — degraded to serial execution"
        lines.append(line)
    slo = health.get("slo")
    if slo is not None:
        target = slo.get("target")
        line = (
            f"slo: p50={slo.get('p50', 0.0):.3f}s "
            f"p95={slo.get('p95', 0.0):.3f}s "
            f"p99={slo.get('p99', 0.0):.3f}s "
            f"over {slo.get('window', 0)} of "
            f"{slo.get('count', 0)} completions"
        )
        if target is not None:
            line += (
                f" — target p95<={target:g}s: "
                + ("ok" if slo.get("ok", True) else "VIOLATED")
            )
        lines.append(line)
    return "\n".join(lines)
