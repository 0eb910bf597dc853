"""Synchronous job execution, one job per runner thread.

The server dispatches each job to a thread pool; everything here is
plain blocking code.  Execution must be safe off the main thread
(``Campaign.run`` already tolerates that: its SIGTERM hook is
best-effort), must honour cooperative cancellation, and must produce
*deterministic* result documents — an inject job's document is
exactly the ``repro inject --json`` report plus a trailing newline,
so CI can ``cmp`` a served result against a locally-computed
reference.

Inject jobs always run against the job's campaign journal with
``resume=True``: on a fresh job that is simply an empty journal, and
after a server crash it is what makes the re-run finish the campaign
instead of restarting it — the final report is bit-identical either
way, which is the service's core crash-safety promise.
"""

from __future__ import annotations

import threading
import time

from repro.checkpoint import canonical_json


class JobCancelled(Exception):
    """The job was cancelled (client request or server drain)."""


class CancelToken:
    """Cooperative cancellation flag shared with the runner thread."""

    def __init__(self):
        self._event = threading.Event()
        #: why the cancel happened ("cancelled by client", "drain").
        self.reason = ""

    def cancel(self, reason: str) -> None:
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def check(self) -> None:
        if self._event.is_set():
            raise JobCancelled(self.reason or "cancelled")


#: config keys an inject spec may set, mapped straight onto
#: :class:`~repro.faultinject.campaign.CampaignConfig` — the service
#: accepts the same knobs as the CLI, minus paths (``cache_dir``)
#: that must stay under the server's control.  Any other key is
#: dropped, so jobs journaled with a since-retired field still
#: replay and run.
_INJECT_PASSTHROUGH = (
    "extension", "workload", "source", "entry", "scale", "faults",
    "seed", "clock_ratio", "fifo_depth", "warm_start",
    "checkpoint_every", "recover", "task_timeout", "max_retries",
    "serial_fallback",
)


def execute_job(job, store, cancel: CancelToken,
                jobs: int = 1, observer=None) -> dict:
    """Run one job to completion; returns ``{"document", "meta"}``.

    Raises :class:`JobCancelled` for cooperative cancellation and
    lets real execution errors propagate (the server maps them to
    FAILED with the message as detail).  ``jobs`` is the worker-count
    granted by the shared fleet lease (inject/sweep fan-out).
    ``observer`` is the server's
    :class:`~repro.service.observe.ServiceObserver` (or None): job
    kinds hang simulation-track trace events off it, and it never
    influences the result document.
    """
    cancel.check()
    handler = _HANDLERS[job.kind]
    return handler(job, store, cancel, jobs, observer)


def _run_inject(job, store, cancel: CancelToken, jobs: int,
                observer=None) -> dict:
    from repro.faultinject import Campaign, CampaignConfig
    from repro.faultinject.campaign import CampaignInterrupted

    spec = job.spec
    kwargs = {key: spec[key] for key in _INJECT_PASSTHROUGH
              if key in spec}
    if "models" in spec and spec["models"] is not None:
        kwargs["models"] = tuple(spec["models"])
    if "mdl" in spec:
        kwargs["mdl"] = tuple(
            (name, source) for name, source in spec["mdl"]
        )
    kwargs["jobs"] = max(1, min(int(spec.get("jobs", 1)), jobs))
    config = CampaignConfig(**kwargs)
    tracing = observer is not None and observer.tracing
    build_start = observer.now_us() if tracing else 0.0
    campaign = Campaign(config)
    if tracing:
        # The constructor runs the golden (fault-free) reference —
        # the first simulation work a traced job does.
        observer.span(job, "simulation", "golden-run", build_start,
                      workload=config.workload or config.source)

    def progress(done: int, total: int) -> None:
        # Cancellation (and drain) interrupts between faulted runs —
        # everything already journaled is safe and a later resume
        # completes the campaign bit-identically.
        if cancel.cancelled:
            raise KeyboardInterrupt

    on_result = None
    if tracing:
        def on_result(result) -> None:
            observer.instant(
                job, "simulation", "fault",
                index=result.index,
                outcome=getattr(result.outcome, "value",
                                str(result.outcome)),
                cycles=result.cycles,
                instructions=result.instructions,
            )

    journal_path = store.campaign_journal_path(job.id)
    faults_start = observer.now_us() if tracing else 0.0
    try:
        report = campaign.run(progress=progress,
                              journal_path=journal_path, resume=True,
                              on_result=on_result)
    except CampaignInterrupted:
        cancel.check()  # cancelled: surface as JobCancelled
        raise  # a real signal hit the server process itself
    if tracing:
        observer.span(job, "simulation", "faulted-runs", faults_start,
                      faults=config.faults,
                      workers=kwargs["jobs"])
    document = report.to_json() + "\n"
    return {
        "document": document,
        "meta": {
            "kind": "inject",
            "no_coverage": bool(report.no_coverage),
            "detection_coverage": round(report.detection_coverage, 6),
            "warnings": list(campaign.warnings),
            "pool": campaign.pool_stats.as_dict(),
        },
    }


def _run_sweep(job, store, cancel: CancelToken, jobs: int,
               observer=None) -> dict:
    from repro.engine.sweep import SweepPoint, run_point

    spec = job.spec
    engine = spec.get("engine", "fast")
    tracing = observer is not None and observer.tracing
    outcomes = []
    for index, raw in enumerate(spec["points"]):
        cancel.check()
        point_start = observer.now_us() if tracing else 0.0
        point = SweepPoint(**raw)
        outcome = run_point(point, engine=engine)
        if tracing:
            observer.span(job, "simulation", "sweep-point",
                          point_start, index=index)
        outcomes.append(
            {"point": point.identity(), **outcome.payload()}
        )
    document = canonical_json({"points": outcomes}) + "\n"
    return {"document": document,
            "meta": {"kind": "sweep", "points": len(outcomes)}}


def _run_explore(job, store, cancel: CancelToken, jobs: int,
                 observer=None) -> dict:
    """Design-space exploration as a service job.

    The spec mirrors the ``repro explore`` CLI (space as an inline
    dict instead of a preset/file).  State lives under the store's
    per-job explore directory and every campaign always resumes, so a
    crashed or cancelled exploration continues where it stopped and
    the result document is bit-identical to an uninterrupted run —
    and to the CLI run of the same space, which is what the CI smoke
    job ``cmp``\\ s.
    """
    from repro.explore import (
        AdaptiveConfig,
        EvolveConfig,
        ExplorationReport,
        PointEvaluator,
        evolve,
        fractional_factorial,
        full_factorial,
    )
    from repro.explore.space import DesignSpace, SpaceError
    from repro.faultinject.campaign import CampaignInterrupted

    spec = job.spec
    try:
        space = DesignSpace.from_dict(spec["space"])
    except SpaceError as err:
        raise RuntimeError(f"bad explore space: {err}") from None
    mode = spec.get("mode")
    if mode is None:
        mode = "fractional" if "max_points" in spec else "factorial"
    if mode not in ("factorial", "fractional", "evolve"):
        raise RuntimeError(
            f"bad explore mode {mode!r} (expected factorial, "
            f"fractional or evolve)")
    adaptive = None
    if spec.get("ci_target") is not None:
        adaptive = AdaptiveConfig(
            batch=int(spec.get("batch", 50)),
            min_faults=int(spec.get("min_faults", 50)),
            max_faults=int(spec.get("budget", 400)),
            target_half_width=float(spec["ci_target"]),
        )
    seed = int(spec.get("seed", 1))
    granted = max(1, min(int(spec.get("jobs", 1)), jobs))
    tracing = observer is not None and observer.tracing

    def progress(done: int, total: int) -> None:
        if cancel.cancelled:
            raise KeyboardInterrupt

    def log(message: str) -> None:
        cancel.check()
        if tracing:
            observer.instant(job, "simulation", "explore",
                             note=message)

    evaluator = PointEvaluator(
        space,
        jobs=granted,
        engine=spec.get("engine", "fast"),
        state_dir=store.explore_dir(job.id),
        seed=seed,
        faults=int(spec.get("faults", 0)),
        adaptive=adaptive,
        resume=True,
        log=log,
        progress=progress,
    )
    coverage = evaluator.coverage_enabled
    explore_start = observer.now_us() if tracing else 0.0
    try:
        if mode == "evolve":
            evolve_config = EvolveConfig(
                population=int(spec.get("population", 8)),
                generations=int(spec.get("generations", 4)),
            )

            def objective_key(evaluation):
                if (not evaluation.feasible
                        or evaluation.slowdown is None
                        or (coverage and evaluation.coverage is None)):
                    return None
                return evaluation.objectives(coverage)

            evaluations = list(evolve(
                space, evaluator.evaluate, evolve_config,
                objective_key, seed=seed, log=log,
            ).values())
        else:
            if mode == "fractional":
                points = fractional_factorial(
                    space, int(spec.get("max_points", space.size)),
                    seed=seed)
            else:
                points = full_factorial(space)
            evaluations = evaluator.evaluate(points)
    except CampaignInterrupted:
        cancel.check()  # cancelled: surface as JobCancelled
        raise  # a real signal hit the server process itself
    report = ExplorationReport.build(space, mode, evaluations,
                                     coverage)
    if tracing:
        observer.span(job, "simulation", "exploration",
                      explore_start, mode=mode,
                      evaluated=len(report.evaluations),
                      front=len(report.front))
    document = report.to_json() + "\n"
    return {
        "document": document,
        "meta": {
            "kind": "explore",
            "mode": mode,
            "evaluated": len(report.evaluations),
            "feasible": sum(
                1 for e in report.evaluations if e.feasible),
            "front": len(report.front),
            "knee": report.knee,
            "digest": report.digest(),
            "pool": evaluator.runner.stats.as_dict(),
        },
    }


def _run_run(job, store, cancel: CancelToken, jobs: int,
             observer=None) -> dict:
    from repro.engine.sweep import SweepPoint, run_point

    spec = dict(job.spec)
    engine = spec.pop("engine", "fast")
    point = SweepPoint(**spec)
    outcome = run_point(point, engine=engine)
    document = canonical_json(
        {"point": point.identity(), **outcome.payload()}
    ) + "\n"
    return {"document": document, "meta": {"kind": "run"}}


def _run_compile(job, store, cancel: CancelToken, jobs: int,
                 observer=None) -> dict:
    from repro.mdl import MdlError, compile_spec

    spec = job.spec
    filename = spec.get("filename", "<service>")
    try:
        program = compile_spec(spec["source"], filename)
    except MdlError as err:
        raise RuntimeError(f"mdl compile failed: {err}") from None
    document = canonical_json({
        "name": program.name,
        "filename": filename,
    }) + "\n"
    return {"document": document,
            "meta": {"kind": "compile", "name": program.name}}


def _run_sleep(job, store, cancel: CancelToken, jobs: int,
               observer=None) -> dict:
    """Diagnostics kind: hold a runner slot, stay cancellable."""
    remaining = float(job.spec["seconds"])
    if remaining < 0:
        raise RuntimeError("sleep seconds must be >= 0")
    deadline = time.monotonic() + remaining
    while True:
        cancel.check()
        left = deadline - time.monotonic()
        if left <= 0:
            break
        time.sleep(min(0.05, left))
    document = canonical_json(
        {"slept": round(float(job.spec["seconds"]), 6)}
    ) + "\n"
    return {"document": document, "meta": {"kind": "sleep"}}


_HANDLERS = {
    "inject": _run_inject,
    "sweep": _run_sweep,
    "explore": _run_explore,
    "run": _run_run,
    "compile": _run_compile,
    "sleep": _run_sleep,
}
