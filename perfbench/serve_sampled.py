"""Run ``repro serve`` under the benchmark's sampling profiler.

Usage: ``python3 perfbench/serve_sampled.py SAMPLES.json serve ARGS...``
with ``src`` on ``PYTHONPATH``.  When the server exits (SIGTERM makes
it drain), the layer sample counts are written to ``SAMPLES.json``.
"""

import json
import sys

import tracing
from repro.__main__ import main


def run(argv: list[str]) -> int:
    samples_path, *serve_argv = argv
    sampler = tracing.Sampler().start()
    try:
        return main(serve_argv)
    finally:
        sampler.stop()
        with open(samples_path, "w") as handle:
            json.dump(dict(sampler.counts), handle)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
