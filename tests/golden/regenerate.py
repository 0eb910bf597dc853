#!/usr/bin/env python
"""Regenerate ``tests/golden/digests.json`` — the pinned run digests.

Run after an *intentional* architectural change:

    PYTHONPATH=src python tests/golden/regenerate.py

Each entry pins the ``run_digest`` of one (workload, extension) point
of the experiment configuration — six paper workloads under no
monitor and the four prototype extensions at their Table-IV fabric
clocks, scale 0.125 — computed through
:func:`repro.engine.sweep.run_point` on the fast engine (the file maps
engine -> {point -> digest}; ``tests/test_engine_differential.py``
holds the reference engine to the same results).
``tests/test_golden_digests.py``
fails when the simulator's observable behavior drifts from these
values, turning silent architectural changes into explicit diffs of
this file.
"""

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "digests.json"
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


def compute_digests(engine: str = "fast") -> dict:
    from repro.engine.sweep import run_point

    return {key(point): run_point(point, engine=engine).digest
            for point in golden_points()}


def main():
    by_engine = {engine: compute_digests(engine)
                 for engine in GOLDEN_ENGINES}
    GOLDEN_PATH.write_text(
        json.dumps(by_engine, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(by_engine['fast'])} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
