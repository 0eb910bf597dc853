"""The repository benchmark: one workload, one timed run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``sweep-baseline``, ``sweep-monitored``, ``campaign-sha-dift``
and ``service-mixed`` (see README.md).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same loop under the sampling
profiler and span wrappers, reports the per-layer metrics and writes
``perfbench/out/<workload>.trace.json``.

Every metric is printed by name with its unit (times and rates in
reference-host seconds, see hostspeed.py, with the wall-clock figure
beside them), then the host's slowness, a ``result_digest`` line, the
wall-clock figures as JSON, and last one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status:
0 when every output matched ``expected.json``, 1 when one did not,
2 when the repository's ``src/repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOAD_NAMES = ("sweep-baseline", "sweep-monitored",
                  "campaign-sha-dift", "service-mixed")


def load_expected() -> dict:
    with open(EXPECTED) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None,
         expected: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources at {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import suite

    if expected is None:
        expected = load_expected()
    result = suite.run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), expected)
    payload = result.payload(suite.PER_LAYER if args.trace
                             else suite.END_TO_END)
    for name, metric in payload["metrics"].items():
        wall = result.wall_metrics.get(name)
        beside = "" if wall is None else f"  (wall {wall:.6g})"
        print(f"{name:28s} {metric['value']:>14.6g} {metric['unit']}"
              f"{beside}")
    print(f"host_slowness {result.host_factor:.4f}")
    print(f"result_digest {args.workload} {result.result_digest}")
    print("wall_metrics " + json.dumps(result.wall_metrics))
    for error in result.errors:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps(payload), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
