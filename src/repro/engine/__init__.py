"""Fast execution engine: predecoded handlers + parallel sweeps.

Three pieces:

* :mod:`repro.engine.predecode` / :mod:`repro.engine.fastloop` — the
  per-PC fused handler closures behind ``engine="fast"`` (selected
  via ``SystemConfig.engine`` or the ``engine=`` argument of
  ``run_program``/``run``/``run_bounded``; ``"superblock"`` is an
  alias), and the one run loop that drives them and the reference
  engine's unfused step alike.
* :mod:`repro.engine.pool` / :mod:`repro.engine.supervisor` — the
  shared supervised process-pool fan-out used by fault-injection
  campaigns and sweeps alike: per-task deadlines, worker-death
  recovery, bounded retries, quarantine and serial fallback.
* :mod:`repro.engine.sweep` — :class:`SweepRunner`, which fans the
  workload × extension × clock-ratio × FIFO-depth matrix of the
  paper's tables/figures across the pool, with an identity-checked
  on-disk cache.

The fast engine's contract is *observational invariance*: for any
program, extension and watchdog configuration, the
:class:`~repro.flexcore.system.RunResult` digest is bit-identical to
the reference engine's (``tests/test_engine_differential.py`` and the
pinned golden digests enforce this).
"""

from repro.engine.pool import (
    PoolError,
    PoolPolicy,
    PoolStats,
    Quarantined,
    TaskTimeout,
    WorkerCrash,
    fan_out,
    worker_signals,
)
from repro.engine.predecode import HandlerTable

__all__ = [
    "HandlerTable",
    "PoolError",
    "PoolPolicy",
    "PoolStats",
    "Quarantined",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "TaskTimeout",
    "WorkerCrash",
    "fan_out",
    "table4_points",
    "worker_signals",
]

_SWEEP_EXPORTS = ("SweepOutcome", "SweepPoint", "SweepRunner",
                  "table4_points")


def __getattr__(name):
    # Lazy re-export: the sweep module imports the evaluation package
    # (whose experiment runners import the sweep module back), so an
    # eager import here would turn the run loop's ``import
    # repro.engine.fastloop`` into a circular-import error.
    if name in _SWEEP_EXPORTS:
        from repro.engine import sweep
        return getattr(sweep, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
