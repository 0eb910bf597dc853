"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper and
prints it (run with ``pytest benchmarks/ --benchmark-only -s`` to see
the tables).  ``REPRO_BENCH_SCALE`` scales the workload sizes; the
default of 1.0 is the calibrated size whose results EXPERIMENTS.md
records.  Set it to 0.25 for a quick smoke run.

The simulation sweeps run on the fast engine.  Its digests equal the
reference engine's (``tests/test_engine_differential.py`` referees
that), so these scripts time one engine; host-time measurement lives
in ``perfbench/``.
"""

import os

import pytest

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeated rounds
    would only re-measure the same work — so a single round keeps the
    suite's total runtime proportional to the paper's actual
    experiment matrix.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
