"""The ``repro bench`` harness: fast engine vs reference, timed and checked.

Runs the Table-IV evaluation matrix once per engine — the reference
step path and the fused fast engine — comparing wall clock and
asserting the per-point run digests are bit-identical across both.  With
``campaign=True`` it additionally times one fault-injection campaign
twice: cold (every faulted run re-simulates its fault-free prefix from
reset, the pre-warm-start baseline) and warm (faulted runs fork from
chained prefix snapshots), demanding the two coverage reports be
bit-identical.  The result is a JSON payload (``BENCH_perf.json`` by
convention) that CI archives so engine-performance regressions and
silent divergences both show up in the artifact history.

The sweep runner's on-disk cache is deliberately not used here: the
whole point is to measure cold simulation time.
"""

from __future__ import annotations

import time

from repro.engine.sweep import SweepPoint, SweepRunner, table4_points
from repro.evaluation.config import FLEXCORE_RATIOS
from repro.workloads import workload_names

#: default payload filename (what CI uploads).
BENCH_FILENAME = "BENCH_perf.json"

#: engines measured over the sweep matrix, slowest first.  The first
#: entry is the digest referee for the other.
BENCH_ENGINES = ("reference", "fast")

#: the campaign the ``--campaign`` mode times: DIFT on sha is the
#: paper's flagship monitored pair and long enough that the golden
#: prefix dominates a cold faulted run.
CAMPAIGN_BENCH = {"extension": "dift", "workload": "sha"}


def bench_points(scale: float, quick: bool,
                 benchmarks=None) -> list[SweepPoint]:
    """The measured grid.

    Full mode is exactly the Table-IV matrix.  ``quick`` trims it to
    one unmonitored baseline plus each extension at its paper fabric
    clock — the smoke matrix CI can afford on every push.
    """
    benchmarks = benchmarks or workload_names()
    if not quick:
        return table4_points(scale, benchmarks)
    points = []
    for bench in benchmarks:
        points.append(SweepPoint(workload=bench, scale=scale))
        for extension, ratio in FLEXCORE_RATIOS.items():
            points.append(SweepPoint(workload=bench,
                                     extension=extension,
                                     clock_ratio=ratio, scale=scale))
    return points


def _timed_sweep(points, engine: str, jobs: int) -> tuple[list, dict]:
    runner = SweepRunner(jobs=jobs, engine=engine)
    start = time.perf_counter()
    outcomes = runner.run(points)
    seconds = time.perf_counter() - start
    instructions = sum(o.instructions for o in outcomes)
    return outcomes, {
        "seconds": seconds,
        "instructions": instructions,
        "instr_per_sec": instructions / seconds if seconds > 0 else 0.0,
    }


def run_campaign_bench(quick: bool = False, jobs: int = 1,
                       **overrides) -> dict:
    """Time one campaign cold vs warm; return its payload section.

    ``cold`` disables warm starts (and batches one fault per dispatch
    when parallel) — the pre-warm-start baseline where every faulted
    run re-simulates the fault-free prefix from reset.  ``warm`` is
    the shipped default: faulted runs fork from chained prefix
    snapshots and finish hook-free on the fast engine once their
    fault settles.  ``reports_match`` is the correctness verdict: the two
    coverage reports must be bit-identical.  ``overrides`` replace any
    :class:`~repro.faultinject.campaign.CampaignConfig` field (tests
    shrink the campaign with them).
    """
    from repro.faultinject import Campaign, CampaignConfig

    base = dict(
        CAMPAIGN_BENCH,
        scale=0.0625 if quick else 0.125,
        faults=40 if quick else 100,
        seed=1,
        jobs=jobs,
    )
    base.update(overrides)
    timings: dict[str, dict] = {}
    reports: dict[str, str] = {}
    for mode, overrides in (
        ("cold", {"warm_start": False, "batch_size": 1}),
        ("warm", {"warm_start": True}),
    ):
        config = CampaignConfig(**base, **overrides)
        start = time.perf_counter()
        report = Campaign(config).run()
        timings[mode] = {"seconds": time.perf_counter() - start}
        reports[mode] = report.to_json()
    cold = timings["cold"]["seconds"]
    warm = timings["warm"]["seconds"]
    return {
        **base,
        "cold": timings["cold"],
        "warm": timings["warm"],
        "speedup": cold / warm if warm > 0 else 0.0,
        "reports_match": reports["cold"] == reports["warm"],
    }


def run_bench(scale: float = 1.0, quick: bool = False, jobs: int = 1,
              benchmarks=None, campaign: bool = False) -> dict:
    """Measure every engine over the matrix; return the JSON payload.

    ``payload["digests_match"]`` is the correctness verdict: True iff
    every point's digest is identical across all of
    :data:`BENCH_ENGINES` — and, with ``campaign=True``, the cold and
    warm campaign reports are bit-identical too.
    """
    points = bench_points(scale, quick, benchmarks)
    outcomes: dict[str, list] = {}
    timings: dict[str, dict] = {}
    for engine in BENCH_ENGINES:
        outcomes[engine], timings[engine] = _timed_sweep(
            points, engine, jobs
        )

    referee = BENCH_ENGINES[0]
    rows = []
    digests_match = True
    for index, ref in enumerate(outcomes[referee]):
        point = ref.point
        row = {
            "workload": point.workload,
            "extension": point.extension,
            "clock_ratio": point.clock_ratio,
            "fifo_depth": point.fifo_depth,
            "cycles": ref.cycles,
            "instructions": ref.instructions,
            "reference_digest": ref.digest,
        }
        match = True
        for engine in BENCH_ENGINES[1:]:
            digest = outcomes[engine][index].digest
            row[f"{engine}_digest"] = digest
            match = match and digest == ref.digest
        row["fast_engine"] = outcomes["fast"][index].engine
        row["match"] = match
        digests_match = digests_match and match
        rows.append(row)

    ref_seconds = timings[referee]["seconds"]
    fast_seconds = timings["fast"]["seconds"]
    payload = {
        "quick": quick,
        "scale": scale,
        "jobs": jobs,
        "points": rows,
        "reference": timings["reference"],
        "fast": timings["fast"],
        "speedup": (ref_seconds / fast_seconds
                    if fast_seconds > 0 else 0.0),
        "digests_match": digests_match,
    }
    if campaign:
        payload["campaign"] = run_campaign_bench(quick=quick,
                                                 jobs=jobs)
        payload["digests_match"] = (
            digests_match and payload["campaign"]["reports_match"]
        )
    return payload


def format_bench(payload: dict) -> str:
    """One-screen human summary of a bench payload."""
    lines = []
    mode = "quick" if payload["quick"] else "full table-IV"
    lines.append(
        f"bench ({mode} matrix, scale {payload['scale']}, "
        f"{len(payload['points'])} points, jobs {payload['jobs']})"
    )
    for engine in BENCH_ENGINES:
        timing = payload.get(engine)
        if timing is None:
            continue
        lines.append(
            f"  {engine:10s}: {timing['seconds']:8.2f}s  "
            f"{timing['instr_per_sec']:12,.0f} instr/s"
        )
    lines.append(f"  speedup   : {payload['speedup']:.2f}x fast")
    mismatches = [row for row in payload["points"] if not row["match"]]
    if mismatches:
        lines.append(f"  DIGEST MISMATCH on {len(mismatches)} point(s):")
        for row in mismatches:
            engine_digests = ", ".join(
                f"{engine} {row[f'{engine}_digest'][:12]}"
                for engine in BENCH_ENGINES[1:]
                if f"{engine}_digest" in row
            )
            lines.append(
                f"    {row['workload']} / "
                f"{row['extension'] or 'baseline'} "
                f"@ {row['clock_ratio']}: "
                f"ref {row['reference_digest'][:12]} != "
                f"{engine_digests}"
            )
    else:
        lines.append(
            f"  digests   : all {len(payload['points'])} points "
            f"bit-identical across {len(BENCH_ENGINES)} engines"
        )
    section = payload.get("campaign")
    if section is not None:
        lines.append(
            f"campaign ({section['workload']}/{section['extension']}, "
            f"{section['faults']} faults, scale {section['scale']})"
        )
        lines.append(
            f"  cold      : {section['cold']['seconds']:8.2f}s  "
            f"(prefix re-run from reset)"
        )
        lines.append(
            f"  warm      : {section['warm']['seconds']:8.2f}s  "
            f"(forked from prefix snapshots)"
        )
        lines.append(f"  speedup   : {section['speedup']:.2f}x")
        if section["reports_match"]:
            lines.append("  reports   : cold and warm bit-identical")
        else:
            lines.append("  CAMPAIGN REPORT MISMATCH: warm-start "
                         "coverage diverges from the cold baseline")
    return "\n".join(lines)
