"""Parallel sweep runner for the paper's evaluation matrices.

Every table and figure of the evaluation is a sweep over the same
four-dimensional grid — workload × extension × fabric clock ratio ×
forward-FIFO depth — and every grid point is an independent simulation.
:class:`SweepRunner` runs a list of :class:`SweepPoint`\\ s either
serially (sharing the assembled workload across points that only vary
the monitor configuration) or fanned out over the shared process pool
(:func:`repro.engine.pool.fan_out`), optionally memoising each
outcome in an identity-checked on-disk cache
(:class:`repro.checkpoint.golden_cache.IdentityCache`).

The execution engine (``fast`` / ``reference``) is deliberately *not*
part of a point's cache identity: the engines are bit-identical by
contract, so an outcome computed by either is valid for both.

:func:`run_point` is the one place an experiment simulates a grid
point and checks the workload's checksum; the software comparison and
the decode ablation call it directly for their single runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from repro.checkpoint.golden_cache import IdentityCache
from repro.engine.pool import (
    PoolPolicy,
    PoolStats,
    fan_out,
    worker_signals,
)
from repro.evaluation.config import (
    CLOCK_RATIOS,
    DEFAULT_FIFO_DEPTH,
    DEFAULT_META_CACHE_BYTES,
    experiment_system_config,
)
from repro.extensions import EXTENSION_NAMES, create_extension
from repro.telemetry.summary import run_digest
from repro.workloads import build_workload, workload_names

OUTCOME_SECTION = "outcome"


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of an evaluation sweep.

    ``extension=None`` is the unmonitored baseline.  The fields mirror
    the knobs of
    :func:`repro.evaluation.config.experiment_system_config` plus the
    workload selection.
    """

    workload: str
    extension: str | None = None
    clock_ratio: float = 0.5
    fifo_depth: int = DEFAULT_FIFO_DEPTH
    scale: float = 1
    predecode: bool = True
    scaled_memory: bool = True
    #: meta-data cache capacity at paper scale (scaled down with the
    #: rest of the memory system when ``scaled_memory`` is on) — the
    #: design-space explorer's fifth axis.
    meta_cache_bytes: int = DEFAULT_META_CACHE_BYTES

    def identity(self) -> dict:
        """Cache identity: every field that affects the outcome.

        The engine is excluded on purpose — fast and reference produce
        bit-identical results, so they share cache entries.
        """
        return asdict(self)

    def stem(self) -> str:
        return f"{self.workload}-{self.extension or 'baseline'}"


@dataclass(frozen=True)
class SweepOutcome:
    """The architecturally-visible result of one sweep point.

    Plain picklable values only: outcomes cross the process-pool
    boundary and round-trip through the on-disk cache.
    """

    point: SweepPoint
    cycles: int
    instructions: int
    forwarded_fraction: float
    fifo_stall_cycles: int
    meta_stall_cycles: float
    digest: str
    #: engine that actually produced this outcome ("fast" or
    #: "reference") — informational; the digest is engine-invariant.
    engine: str

    def payload(self) -> dict:
        fields = asdict(self)
        del fields["point"]
        return fields

    @classmethod
    def from_payload(cls, point: SweepPoint, payload: dict
                     ) -> "SweepOutcome":
        return cls(point=point, **payload)


def run_point(point: SweepPoint, engine: str | None = None,
              workload=None, telemetry=None) -> SweepOutcome:
    """Simulate one grid point and distil its outcome.

    ``workload`` lets callers share one built
    :class:`~repro.workloads.Workload` across points that only vary
    the monitor configuration (assembly is pure, so this is safe).
    ``telemetry`` is handed to the system (it never changes the
    outcome).
    """
    from repro.flexcore.system import FlexCoreSystem

    if workload is None:
        workload = build_workload(point.workload, point.scale)
    config = experiment_system_config(
        clock_ratio=point.clock_ratio,
        fifo_depth=point.fifo_depth,
        scaled_memory=point.scaled_memory,
        predecode=point.predecode,
        meta_cache_bytes=point.meta_cache_bytes,
    )
    extension = (
        create_extension(point.extension) if point.extension else None
    )
    system = FlexCoreSystem(workload.build(), extension, config,
                            telemetry=telemetry)
    result = system.run(engine=engine)
    if result.word(workload.checksum_symbol) != workload.expected_checksum:
        raise AssertionError(
            f"{workload.name} checksum mismatch under "
            f"{point.extension or 'baseline'}"
        )
    stats = result.interface_stats
    return SweepOutcome(
        point=point,
        cycles=result.cycles,
        instructions=result.instructions,
        forwarded_fraction=(
            stats.forwarded_fraction if stats is not None else 0.0
        ),
        fifo_stall_cycles=(
            stats.fifo_stall_cycles if stats is not None else 0
        ),
        meta_stall_cycles=(
            stats.meta_stall_cycles if stats is not None else 0.0
        ),
        digest=run_digest(result),
        engine=result.engine,
    )


def _run_indexed(item) -> tuple[int, SweepOutcome]:
    index, point, engine = item
    return index, run_point(point, engine)


def _init_sweep_worker() -> None:
    worker_signals()


class SweepRunner:
    """Run a list of sweep points, serially or across the pool.

    ``jobs=1`` runs in-process, sharing one built workload per
    (workload, scale) pair; ``jobs>1`` fans the points out via
    :func:`repro.engine.pool.fan_out` (each worker rebuilds workloads
    from names — points are cheap to ship, programs are not).
    ``cache_dir`` enables the on-disk outcome cache; cached entries
    are returned without simulating.  ``policy`` tunes the supervised
    pool (task deadlines, retries, serial fallback).

    Completed outcomes are cached *as they arrive*, so an interrupted
    sweep keeps everything it finished and a re-run only simulates the
    missing points.  After :meth:`run`, :attr:`stats` holds the pool's
    infra counters and :attr:`failures` the quarantined points.
    """

    def __init__(self, jobs: int = 1, engine: str | None = "fast",
                 cache_dir=None, policy: PoolPolicy | None = None):
        self.jobs = jobs
        self.engine = engine
        self.policy = policy
        self.cache = (
            IdentityCache(cache_dir, label="sweep cache",
                          section=OUTCOME_SECTION)
            if cache_dir is not None else None
        )
        #: pool telemetry from the most recent :meth:`run`.
        self.stats = PoolStats()
        #: quarantined points from the most recent :meth:`run`, as
        #: ``(point, reason)`` pairs.
        self.failures: list[tuple[SweepPoint, str]] = []
        #: cache tallies from the most recent :meth:`run` (both zero
        #: when no cache is configured) — the explore benchmark's
        #: cold-vs-warm hit-ratio source.
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache_warned = False

    def _store(self, outcome: SweepOutcome, diagnostics) -> None:
        if self.cache is None:
            return
        self.cache.store(outcome.point.identity(),
                         outcome.point.stem(), outcome.payload())
        # A dying cache (ENOSPC, EROFS, ...) degrades to uncached
        # execution; surface its one-shot warning.
        if (self.cache.disabled_reason and not self._cache_warned
                and diagnostics is not None):
            self._cache_warned = True
            diagnostics(self.cache.disabled_reason)

    def run(self, points, diagnostics=None,
            on_infra_failure=None) -> list[SweepOutcome | None]:
        """Return one :class:`SweepOutcome` per point, in input order.

        ``diagnostics`` (optional callable) receives the cache's
        human-readable miss explanations and any degradation
        warnings.  ``on_infra_failure(point, error)`` opts into
        skip-and-report semantics for quarantined points: the handler
        is invoked, the point's slot in the returned list stays
        ``None``, and the pair lands in :attr:`failures`.  Without a
        handler a quarantined point raises
        :class:`repro.engine.pool.Quarantined` — sweeps feeding the
        paper's tables need every point.
        """
        points = list(points)
        outcomes: list[SweepOutcome | None] = [None] * len(points)
        pending: list[int] = []
        self.stats = PoolStats()
        self.failures = []
        self.cache_hits = 0
        self.cache_misses = 0
        for index, point in enumerate(points):
            if self.cache is not None:
                payload, diagnostic = self.cache.load(
                    point.identity(), point.stem())
                if payload is not None:
                    self.cache_hits += 1
                    outcomes[index] = SweepOutcome.from_payload(
                        point, payload)
                    continue
                self.cache_misses += 1
                if diagnostics is not None:
                    diagnostics(diagnostic)
            pending.append(index)

        if pending and self.jobs > 1:
            items = [(i, points[i], self.engine) for i in pending]

            def record(result):
                index, outcome = result
                outcomes[index] = outcome
                self._store(outcome, diagnostics)

            quarantine = None
            if on_infra_failure is not None:
                def quarantine(item, error):
                    _index, point, _engine = item
                    self.failures.append((point, str(error)))
                    on_infra_failure(point, error)

            self.stats = fan_out(
                items, _run_indexed, record, jobs=self.jobs,
                initializer=_init_sweep_worker,
                policy=self.policy, on_quarantine=quarantine,
                warn=diagnostics,
            )
        elif pending:
            workloads: dict[tuple[str, float], object] = {}
            for index in pending:
                point = points[index]
                key = (point.workload, point.scale)
                if key not in workloads:
                    workloads[key] = build_workload(*key)
                outcomes[index] = run_point(
                    point, self.engine, workload=workloads[key])
                self._store(outcomes[index], diagnostics)
        return outcomes


def table4_points(
    scale: float = 1,
    benchmarks=None,
    extensions=EXTENSION_NAMES,
    ratios=CLOCK_RATIOS,
) -> list[SweepPoint]:
    """The Table IV grid: per benchmark, one unmonitored baseline plus
    every extension at every fabric clock ratio."""
    benchmarks = benchmarks or workload_names()
    points = []
    for bench in benchmarks:
        base = SweepPoint(workload=bench, scale=scale)
        points.append(base)
        for extension in extensions:
            for ratio in ratios:
                points.append(replace(base, extension=extension,
                                      clock_ratio=ratio))
    return points
