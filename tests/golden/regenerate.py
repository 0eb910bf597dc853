#!/usr/bin/env python
"""Regenerate ``tests/golden/digests.json`` and ``metrics.json`` — the
pinned run digests and metric snapshots.

Run after an *intentional* architectural change:

    PYTHONPATH=src python tests/golden/regenerate.py

Each entry pins the ``run_digest`` of one (workload, extension) point
of the experiment configuration — six paper workloads under no
monitor and the four prototype extensions at their Table-IV fabric
clocks, scale 0.125 — computed through
:func:`repro.engine.sweep.run_point` on the fast engine (the file maps
engine -> {point -> digest}; ``tests/test_engine_differential.py``
holds the reference engine to the same results).  Each point runs
with metrics on, and ``metrics.json`` maps point -> the metrics
snapshot that run published (one gauge per stats field plus
``system.*``; metrics never change the digest).
``tests/test_golden_digests.py``
fails when the simulator's observable behavior drifts from these
values, turning silent architectural changes into explicit diffs of
these files.
"""

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "digests.json"
METRICS_PATH = GOLDEN_PATH.with_name("metrics.json")
GOLDEN_SCALE = 0.125
GOLDEN_EXTENSIONS = (None, "umc", "dift", "bc", "sec")
GOLDEN_ENGINES = ("fast",)


def golden_points():
    from repro.engine.sweep import SweepPoint
    from repro.evaluation.config import FLEXCORE_RATIOS
    from repro.workloads import workload_names

    points = []
    for bench in workload_names():
        for extension in GOLDEN_EXTENSIONS:
            points.append(SweepPoint(
                workload=bench,
                extension=extension,
                clock_ratio=FLEXCORE_RATIOS.get(extension, 0.5),
                scale=GOLDEN_SCALE,
            ))
    return points


def key(point) -> str:
    return f"{point.workload}/{point.extension or 'baseline'}"


def compute(engine: str = "fast") -> tuple[dict, dict]:
    """Point -> digest and point -> metrics snapshot, from one
    metrics-on run per point."""
    from repro.engine.sweep import run_point
    from repro.telemetry import Telemetry

    digests, metrics = {}, {}
    for point in golden_points():
        telemetry = Telemetry.enabled()
        outcome = run_point(point, engine=engine, telemetry=telemetry)
        digests[key(point)] = outcome.digest
        metrics[key(point)] = telemetry.metrics.snapshot()
    return digests, metrics


def _write(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main():
    by_engine = {}
    for engine in GOLDEN_ENGINES:
        by_engine[engine], metrics = compute(engine)
    _write(GOLDEN_PATH, by_engine)
    _write(METRICS_PATH, metrics)
    print(f"wrote {len(by_engine['fast'])} digests to {GOLDEN_PATH} "
          f"and their metrics to {METRICS_PATH}")


if __name__ == "__main__":
    main()
