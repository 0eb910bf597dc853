"""Shared process-pool fan-out, now supervised.

One implementation of the "initialize each worker once, stream items
through the pool, terminate cleanly on interrupt" pattern, used by
both fault-injection campaigns
(:meth:`repro.faultinject.campaign.Campaign._run_parallel`) and the
evaluation sweeps (:class:`repro.engine.sweep.SweepRunner`).

:func:`fan_out` fronts :class:`repro.engine.supervisor.SupervisedPool`
and adds **graceful degradation**: when multiprocessing is unavailable
(no fork/pipe support, spawn failures) or the pool breaks
irrecoverably (deterministic initializer failure, retry budget
exhausted), the remaining items run in-process, serially, with a
structured warning — results are bit-identical either way, because
per-item determinism is the callers' contract.

Retry granularity (the old ``chunksize=8`` bug)
-----------------------------------------------
The previous ``Pool.imap_unordered`` fan-out shipped items in chunks
of 8, so one crashed worker lost up to 8 unrelated items and the only
"retry" was aborting the run.  The supervised pool always dispatches
exactly one item per worker and gets exactly one result back: one
pickled item and one pickled result per task, ~100 us, noise beside
an item that is a whole simulation (milliseconds to minutes).  In
exchange a worker death costs exactly one in-flight item, the natural
granularity for retries, deadlines and quarantine.  A campaign's item
is one fault index: everything a fault could share with its
neighbours (the golden profile, the decode memo) already lives in the
persistent worker process.

The interruption contract matches the original behaviour: workers
ignore SIGINT (only the parent reacts to Ctrl-C, after the in-flight
``record`` call finished) and take the default SIGTERM action so
reaping ends them silently.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import threading

from repro.engine.supervisor import (
    PoolError,
    PoolPolicy,
    PoolStats,
    Quarantined,
    SupervisedPool,
    TaskTimeout,
    WorkerCrash,
    deterministic_backoff,
)

__all__ = [
    "FleetLease",
    "PoolError",
    "PoolPolicy",
    "PoolStats",
    "Quarantined",
    "TaskTimeout",
    "WorkerCrash",
    "WorkerFleet",
    "deterministic_backoff",
    "fan_out",
    "worker_signals",
]


def worker_signals() -> None:
    """Standard worker-process signal setup; call first in every pool
    initializer.  The parent owns interruption: a terminal-wide SIGINT
    must not kill workers mid-result while the parent is still
    recording, and SIGTERM reverts to the default action so reaping
    ends workers without tracebacks.

    No-op in the main process: the serial-fallback path runs pool
    initializers in-process, and they must not clobber the parent's
    own SIGINT/SIGTERM handling.
    """
    if multiprocessing.parent_process() is None:
        return
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _warn_stderr(message: str) -> None:
    print(message, file=sys.stderr)


class FleetLease:
    """One granted slice of a :class:`WorkerFleet` worker budget.

    Use as a context manager; :attr:`granted` is how many workers the
    holder may actually spawn (pass it as ``jobs=``).  Releasing twice
    is a no-op, so ``with`` plus an explicit early :meth:`release`
    compose safely.
    """

    __slots__ = ("fleet", "granted", "_released")

    def __init__(self, fleet: "WorkerFleet", granted: int):
        self.fleet = fleet
        self.granted = granted
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.fleet._release(self.granted)

    def __enter__(self) -> "FleetLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class WorkerFleet:
    """A shared worker budget leased by concurrent pool users.

    The job server runs many campaigns/sweeps at once, each of which
    would happily spawn its own full-size pool; the fleet caps the
    *sum* of their workers.  :meth:`lease` never blocks and always
    grants at least one worker — a job can always run its items
    serially in its own thread — so the fleet bounds parallelism,
    never liveness.  Thread-safe (leases are taken from runner
    threads).
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self._leased = 0
        self._peak = 0
        self._leases = 0
        self._starved = 0
        self._lock = threading.Lock()

    def lease(self, want: int) -> FleetLease:
        """Grant ``min(want, available)``, but never less than 1."""
        if want < 1:
            raise ValueError(f"lease must ask for >= 1, got {want}")
        with self._lock:
            available = self.size - self._leased
            granted = max(1, min(want, available))
            self._leased += granted
            self._peak = max(self._peak, self._leased)
            self._leases += 1
            if granted < want:
                self._starved += 1
            return FleetLease(self, granted)

    def _release(self, granted: int) -> None:
        with self._lock:
            self._leased -= granted

    @property
    def leased(self) -> int:
        with self._lock:
            return self._leased

    @property
    def peak(self) -> int:
        with self._lock:
            return self._peak

    def snapshot(self) -> dict:
        """Utilization counters for health/metrics exposition:
        ``starved`` counts leases granted below the ask (the fleet
        was saturated — the signal for growing ``--fleet``)."""
        with self._lock:
            return {
                "size": self.size,
                "leased": self._leased,
                "peak": self._peak,
                "leases": self._leases,
                "starved": self._starved,
            }


def _run_serial(items, worker, record, initializer, initargs,
                on_quarantine, stats: PoolStats) -> None:
    """In-process execution of ``items`` (jobs=1 and fallback path).

    No deadlines here — a single process cannot preempt itself — so
    degraded mode trades hung-worker reaping for survivability, which
    is the right trade once the pool has already proven unusable.
    Worker exceptions are deterministic in-process: they quarantine
    immediately (no retries) or propagate when there is no handler.
    """
    if initializer is not None:
        initializer(*initargs)
    for item in items:
        try:
            result = worker(item)
        except Exception as err:  # noqa: BLE001 — quarantine boundary
            if on_quarantine is None:
                raise
            stats.quarantined += 1
            on_quarantine(item, Quarantined(item, 1, err))
            continue
        record(result)


def fan_out(
    items,
    worker,
    record,
    *,
    jobs: int,
    initializer=None,
    initargs: tuple = (),
    policy: PoolPolicy | None = None,
    on_quarantine=None,
    warn=None,
) -> PoolStats:
    """Stream ``worker(item)`` results for every item to ``record``.

    Results arrive in completion order (callers that need item order
    must carry an index through the worker).  ``initializer`` runs
    once per worker process — it should call :func:`worker_signals`
    before any real setup.  Any exception in the parent (including
    KeyboardInterrupt) kills the workers before re-raising, so no
    orphan workers outlive the caller.

    Infra failures (worker deaths, hung tasks) are retried under
    ``policy``; items that exhaust their retries go to
    ``on_quarantine(item, error)`` — without a handler the first
    quarantine raises :class:`Quarantined`.  When the pool is broken
    as a unit and ``policy.fallback`` is ``"auto"``, the remaining
    items run serially in-process after a ``warn(message)`` call.

    Returns the run's :class:`PoolStats` (all zeros on a healthy run).
    """
    policy = policy or PoolPolicy()
    warn = warn or _warn_stderr
    items = list(items)
    stats = PoolStats()
    if jobs <= 1 or len(items) <= 1 or policy.fallback == "force":
        # Running a tiny batch in-process is an optimisation, not a
        # degradation; only a forced fallback is worth flagging.
        if policy.fallback == "force" and jobs > 1:
            stats.degraded = True
            warn("pool: serial execution forced (fallback=force)")
        _run_serial(items, worker, record, initializer, initargs,
                    on_quarantine, stats)
        return stats
    pool = SupervisedPool(jobs, policy, stats)
    try:
        pool.run(items, worker, record, initializer=initializer,
                 initargs=initargs, on_quarantine=on_quarantine)
    except Quarantined:
        raise
    except PoolError as err:
        if policy.fallback != "auto":
            raise
        stats.degraded = True
        warn(
            f"pool: degrading to in-process serial execution for "
            f"{len(err.pending)} remaining item(s) — {err}"
        )
        _run_serial(err.pending, worker, record, initializer,
                    initargs, on_quarantine, stats)
    return stats
