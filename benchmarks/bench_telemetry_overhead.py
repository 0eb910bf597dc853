"""Wall-clock overhead of the telemetry subsystem.

Measures the same monitored workload three ways:

* **off**  — ``telemetry=None`` (the default every benchmark and
  campaign uses), on the fused ``fast`` engine;
* **metrics** — the metrics registry enabled, no tracing.  This also
  runs the fused engine: the stats are published as gauges once, at
  run end, so the target is metrics <= 1.02x of off;
* **trace** — full cycle-accurate event tracing into the ring buffer,
  which forces the reference engine.

The modes are interleaved within each repeat, in an order that
rotates from one repeat to the next, and garbage is collected before
each timed run.  The script raises if off or metrics did not run on
the fused engine.

Run as a script to emit ``BENCH_telemetry.json``::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

The JSON records per-mode wall-clock seconds (best of ``repeats``),
the overhead versus *off* (the median over repeats of each mode's time
over the same repeat's off time: the paired runs are seconds apart,
so drift on a shared host cancels), the engine each mode ran on, and
the run digest of each mode — which must be identical across all
three (telemetry observes, never perturbs).
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

from repro.extensions import create_extension
from repro.flexcore import run_program
from repro.telemetry import Telemetry, run_digest
from repro.workloads import build_workload

#: (workload, extension, clock ratio) — one FIFO-bound point and one
#: meta-data-bound point, so both hot paths are exercised.
SCENARIOS = (
    ("crc32", "sec", 0.25),
    ("sha", "dift", 0.5),
)

MODES = ("off", "metrics", "trace")


def _telemetry(mode: str) -> Telemetry | None:
    if mode == "off":
        return None
    return Telemetry.enabled(trace=(mode == "trace"))


def measure(workload: str, extension: str, ratio: float,
            scale: float, repeats: int) -> dict:
    program = build_workload(workload, scale).build()
    timings: dict[str, list[float]] = {mode: [] for mode in MODES}
    digests: dict[str, str] = {}
    engines: dict[str, str] = {}
    for i in range(repeats):
        # Rotate the order so no mode always runs first or after trace.
        for mode in MODES[i % 3:] + MODES[:i % 3]:
            telemetry = _telemetry(mode)
            # Collect the previous mode's garbage (a trace run leaves
            # millions of events) outside the timed region.
            gc.collect()
            start = time.perf_counter()
            result = run_program(
                program, create_extension(extension),
                clock_ratio=ratio, telemetry=telemetry,
            )
            timings[mode].append(time.perf_counter() - start)
            digests[mode] = run_digest(result)
            engines[mode] = result.engine
    if len(set(digests.values())) != 1:
        raise AssertionError(
            f"telemetry perturbed the run: digests {digests}"
        )
    for mode in ("off", "metrics"):
        if engines[mode] != "fast":
            raise AssertionError(
                f"{mode} ran on the {engines[mode]} engine, not fast"
            )
    off = timings["off"]
    return {
        "workload": workload,
        "extension": extension,
        "clock_ratio": ratio,
        "seconds": {m: round(min(t), 4) for m, t in timings.items()},
        "overhead_vs_off": {
            m: round(statistics.median(
                a / b for a, b in zip(timings[m], off)), 4)
            for m in MODES
        },
        "digest": digests["off"],
        "engine": engines,
    }


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    scale = float(args[0]) if args else 0.125
    repeats = int(args[1]) if len(args) > 1 else 25
    rows = [
        measure(workload, extension, ratio, scale, repeats)
        for workload, extension, ratio in SCENARIOS
    ]
    document = {
        "benchmark": "telemetry_overhead",
        "scale": scale,
        "repeats": repeats,
        "target": "metrics <= 1.02x of off, both on the fast engine",
        "scenarios": rows,
    }
    with open("BENCH_telemetry.json", "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    header = f"{'scenario':<16} " + "".join(f"{m:>10}" for m in MODES)
    print(header)
    for row in rows:
        label = f"{row['workload']}+{row['extension']}"
        print(f"{label:<16} " + "".join(
            f"{row['seconds'][m]:>9.3f}s" for m in MODES
        ))
        print(f"{'  vs off':<16} " + "".join(
            f"{row['overhead_vs_off'][m]:>9.2f}x" for m in MODES
        ))
    print("written: BENCH_telemetry.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
