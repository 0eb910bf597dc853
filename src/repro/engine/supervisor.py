"""Supervised worker pool: deadlines, reaping, retries, quarantine.

``multiprocessing.Pool.imap_unordered`` — the previous engine behind
:func:`repro.engine.pool.fan_out` — has exactly one failure mode for
infrastructure faults: abort the whole run.  A worker SIGKILLed by the
OOM killer raises ``BrokenProcessPool`` semantics, a worker wedged on
a kernel call is waited on forever, and either way a multi-hour
campaign dies because of one task.  This module supervises workers
the way grid fault-injection frameworks (DAVOS) do: the harness must
outlive the failures it studies.

Mechanics
---------
* One in-flight task per worker, dispatched over a dedicated pipe, so
  the parent always knows exactly which item a dead worker was
  holding (this is why there is no ``chunksize``: retry granularity
  is one item — see :mod:`repro.engine.pool` for the tradeoff).
* Workers acknowledge start-up (``ready``) and answer every task with
  exactly one ``ok`` or ``err`` message; the pipe doubles as the
  liveness heartbeat — a dead worker's pipe reads EOF, waking the
  supervisor immediately instead of at the next poll
  (:data:`POLL_INTERVAL`).
* Every dispatch starts a deadline (:attr:`PoolPolicy.task_timeout`).
  A worker that overruns it is presumed hung, SIGKILLed, and its task
  requeued.
* A failed task (worker death, deadline, or an exception escaping the
  worker function) is retried with exponential backoff
  (:data:`BACKOFF_BASE` doubling up to :data:`BACKOFF_CAP`), at most
  :attr:`PoolPolicy.max_retries` times, against a per-run retry
  budget.
* A task that keeps killing its workers is **quarantined**: handed to
  the caller's ``on_quarantine`` callback as a structured outcome and
  skipped, instead of looping the pool forever.
* When the pool itself is broken — workers cannot be spawned, the
  initializer fails deterministically, or the retry budget is
  exhausted — :class:`PoolError` is raised carrying the items still
  pending, so :func:`repro.engine.pool.fan_out` can degrade to
  in-process serial execution.

Nothing here knows about campaigns or sweeps; callers provide the
worker function, the result recorder, and the quarantine handler.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from repro.util.rng import derive_fraction

#: exponential-backoff schedule for retries and respawns:
#: ``BACKOFF_BASE * 2**n`` seconds, capped at ``BACKOFF_CAP``.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: supervision poll interval, seconds.  Liveness is event-driven
#: (pipe EOF); this only bounds deadline-check latency.
POLL_INTERVAL = 0.2


def deterministic_backoff(base: float, cap: float, attempt: int,
                          key: object = "") -> float:
    """Exponential backoff with *deterministic* jitter.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled by a jitter
    factor in ``[0.5, 1.0)`` derived from ``crc32(f"{key}/{attempt}")``
    — a pure function of its inputs, so two retries of the same (task,
    attempt) pair wait the same everywhere: a chaos run and its resume
    schedule identically, yet distinct tasks de-synchronise instead of
    stampeding the machine in lockstep after a correlated failure.
    """
    if attempt < 1:
        return 0.0
    raw = min(cap, base * (2 ** (attempt - 1)))
    jitter = 0.5 + derive_fraction(key, attempt) / 2.0
    return raw * jitter


class PoolError(RuntimeError):
    """The pool itself failed irrecoverably (not just one task).

    ``pending`` lists the items that were neither completed nor
    quarantined, in submission order — the serial-fallback path runs
    exactly these.
    """

    def __init__(self, message: str, pending: list | None = None):
        super().__init__(message)
        self.pending: list = pending if pending is not None else []


class TaskTimeout(PoolError):
    """A task overran its deadline; its worker was reaped."""


class WorkerCrash(PoolError):
    """A worker process died while holding a task."""


class Quarantined(PoolError):
    """A task exhausted its retries and was set aside.

    Carries the offending ``item``, the number of ``attempts`` made,
    and the last failure (``cause``) so callers can attach the full
    context to their structured outcome.
    """

    def __init__(self, item, attempts: int, cause: BaseException):
        self.item = item
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"task {item!r} quarantined after {attempts} attempt(s): "
            f"{cause}"
        )


@dataclass(frozen=True)
class PoolPolicy:
    """Supervision knobs, shared by campaigns and sweeps."""

    #: per-task deadline in seconds (``None`` = never presume a task
    #: hung).  Also bounds worker start-up, which may include heavy
    #: initializer work.
    task_timeout: float | None = None
    #: how many times one task may be re-dispatched after an infra
    #: failure before it is quarantined.
    max_retries: int = 2
    #: total re-dispatches allowed across the whole run (``None`` =
    #: ``max(16, items // 4)``).  Exhausting it means the environment,
    #: not a task, is broken — the pool gives up as a unit.
    retry_budget: int | None = None
    #: what :func:`repro.engine.pool.fan_out` does when the pool is
    #: irrecoverable: ``auto`` degrades to in-process serial execution
    #: with a warning, ``never`` re-raises, ``force`` skips the pool
    #: entirely (useful where multiprocessing is unreliable).
    fallback: str = "auto"

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.fallback not in ("auto", "never", "force"):
            raise ValueError(
                f"fallback must be auto/never/force, "
                f"got {self.fallback!r}"
            )

    def budget_for(self, items: int) -> int:
        if self.retry_budget is not None:
            return self.retry_budget
        return max(16, items // 4)

    def backoff_delay(self, attempt: int, key: object = "") -> float:
        """The deterministic retry delay for ``(key, attempt)`` —
        see :func:`deterministic_backoff`."""
        return deterministic_backoff(BACKOFF_BASE, BACKOFF_CAP,
                                     attempt, key)


@dataclass
class PoolStats:
    """Telemetry counters for one supervised run.

    Environment-dependent by nature (a healthy machine reports all
    zeros): the live counters are surfaced on stderr, and *journaled*
    campaigns additionally persist each session's tallies so the
    report's ``infra.*`` metrics are a deterministic replay of the
    journal (see :meth:`repro.faultinject.report.CoverageReport.
    metrics`) rather than whatever the last process held in memory.
    """

    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    crashes: int = 0
    quarantined: int = 0
    degraded: bool = False

    def interesting(self) -> bool:
        return bool(self.retries or self.respawns or self.timeouts
                    or self.crashes or self.quarantined
                    or self.degraded)

    def as_dict(self) -> dict:
        """JSON-able counters (``degraded`` as 0/1 so sums of
        sessions count how many sessions degraded)."""
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "quarantined": self.quarantined,
            "degraded": int(self.degraded),
        }

    def merge(self, other: dict) -> None:
        """Accumulate another session's counters (an ``as_dict`` /
        journal ``infra`` frame) into this one — how the job server
        keeps fleet-lifetime tallies across many campaigns."""
        self.retries += int(other.get("retries", 0))
        self.respawns += int(other.get("respawns", 0))
        self.timeouts += int(other.get("timeouts", 0))
        self.crashes += int(other.get("crashes", 0))
        self.quarantined += int(other.get("quarantined", 0))
        self.degraded = self.degraded or bool(other.get("degraded"))

    def summary(self) -> str:
        parts = [
            f"{self.retries} retries",
            f"{self.respawns} respawns",
            f"{self.timeouts} timeouts",
            f"{self.crashes} crashes",
            f"{self.quarantined} quarantined",
        ]
        line = ", ".join(parts)
        if self.degraded:
            line += " — degraded to in-process serial execution"
        return line


def _get_context():
    """Seam for tests that simulate multiprocessing being unavailable."""
    return multiprocessing.get_context()


def _worker_main(conn, worker, initializer, initargs) -> None:
    """Worker process body: init, ack, then serve tasks until EOF.

    Every task is answered with exactly one ``("ok", task_id, result)``
    or ``("err", task_id, message)``.
    """
    # Parent owns interruption (same contract as the old pool): a
    # terminal-wide SIGINT must not kill workers mid-result, and
    # SIGTERM reverts to the default action so reaping is silent.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as err:  # noqa: BLE001 — crosses a process
        try:
            conn.send(("init-error", f"{type(err).__name__}: {err}"))
        except OSError:
            pass
        return
    try:
        conn.send(("ready", os.getpid()))
    except OSError:
        return
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        task_id, item = task
        try:
            message = ("ok", task_id, worker(item))
        except OSError:
            return
        except BaseException as err:  # noqa: BLE001 — crosses a process
            message = ("err", task_id, f"{type(err).__name__}: {err}")
        try:
            conn.send(message)
        except OSError:
            return


@dataclass
class _Task:
    id: int
    item: object
    attempts: int = 0
    not_before: float = 0.0


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "conn", "ready", "task", "deadline")

    def __init__(self, ctx, worker_fn, initializer, initargs,
                 init_deadline: float | None):
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_fn, initializer, initargs),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        self.ready = False
        #: the in-flight task, if any.
        self.task: _Task | None = None
        #: monotonic deadline for the current phase (init or task).
        self.deadline = init_deadline

    def dispatch(self, task: _Task, timeout: float | None) -> None:
        self.task = task
        task.attempts += 1
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self.conn.send((task.id, task.item))

    def reap(self) -> None:
        """Kill the process unconditionally and release its pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5)
        self.conn.close()


class SupervisedPool:
    """Run items through worker processes under supervision.

    One instance runs one batch; :func:`repro.engine.pool.fan_out` is
    the convenience front end that adds serial fallback.
    """

    def __init__(self, jobs: int, policy: PoolPolicy,
                 stats: PoolStats | None = None):
        self.jobs = jobs
        self.policy = policy
        self.stats = stats if stats is not None else PoolStats()

    def run(self, items, worker, record, *, initializer=None,
            initargs: tuple = (), on_quarantine=None) -> PoolStats:
        """Stream ``worker(item)`` results to ``record``.

        Results arrive in completion order.  Quarantined items go to
        ``on_quarantine(item, error)`` instead; with no handler, the
        first quarantine aborts the pool by raising
        :class:`Quarantined`.  Any exception in the parent (including
        ``KeyboardInterrupt`` raised from ``record``) kills the
        workers before re-raising, so no orphan outlives the caller.
        """
        queue = deque(
            _Task(id=i, item=item) for i, item in enumerate(items)
        )
        total = len(queue)
        if not total:
            return self.stats
        budget = self.policy.budget_for(total)
        #: tasks not yet completed or quarantined.
        outstanding = total
        done: set[int] = set()
        workers: list[_Worker | None] = [None] * min(self.jobs, total)
        worker_args = (worker, initializer, initargs)
        #: earliest moment a replacement worker may be spawned
        #: (exponential backoff on consecutive failures).
        next_spawn = 0.0
        consecutive_failures = 0
        inflight: dict[int, _Task] = {}

        def pending_items() -> list:
            remaining = {t.id: t for t in queue}
            remaining.update(inflight)
            return [t.item for t in
                    sorted(remaining.values(), key=lambda t: t.id)]

        def note_failure() -> None:
            """Back successive respawns off exponentially; computed
            once per failure (not per loop iteration, which would
            push the spawn moment forever into the future)."""
            nonlocal consecutive_failures, next_spawn
            consecutive_failures += 1
            next_spawn = time.monotonic() + min(
                BACKOFF_CAP,
                BACKOFF_BASE * (2 ** (consecutive_failures - 1)),
            )

        def fail_task(task: _Task, error: PoolError) -> None:
            """One attempt failed: requeue with backoff, or
            quarantine."""
            nonlocal budget, outstanding
            note_failure()
            inflight.pop(task.id, None)
            if task.attempts > self.policy.max_retries:
                self.stats.quarantined += 1
                outstanding -= 1
                wrapped = Quarantined(task.item, task.attempts, error)
                if on_quarantine is None:
                    raise wrapped
                on_quarantine(task.item, wrapped)
                return
            if budget <= 0:
                raise PoolError(
                    f"retry budget exhausted after {self.stats.retries}"
                    f" retries (last failure: {error}) — the "
                    f"environment, not a task, looks broken",
                    pending=pending_items() + [task.item],
                )
            budget -= 1
            self.stats.retries += 1
            backoff = self.policy.backoff_delay(task.attempts,
                                                key=task.id)
            task.not_before = time.monotonic() + backoff
            queue.append(task)

        def handle_message(slot: int, message) -> None:
            nonlocal consecutive_failures, outstanding
            kind = message[0]
            handle = workers[slot]
            if kind == "ready":
                handle.ready = True
                handle.deadline = None
            elif kind == "init-error":
                # Deterministic: every respawn would fail the same
                # way, so this breaks the pool as a unit (fallback
                # reproduces the error with a real traceback).
                raise PoolError(
                    f"worker initializer failed: {message[1]}",
                    pending=pending_items(),
                )
            elif kind == "ok":
                task_id, result = message[1], message[2]
                task = handle.task
                handle.task = None
                handle.deadline = None
                if task_id in done:
                    return  # late duplicate after a reap race
                done.add(task_id)
                inflight.pop(task_id, None)
                if task is not None and task.id != task_id:
                    inflight.pop(task.id, None)
                outstanding -= 1
                consecutive_failures = 0
                record(result)
            elif kind == "err":
                # The worker survived — the task's own code raised.
                # Still an infra-shaped failure from the caller's
                # perspective (the item produced no result); retry it
                # bounded, then quarantine.
                handle.deadline = None
                task = handle.task
                handle.task = None
                if task is not None:
                    fail_task(
                        task, PoolError(f"task raised: {message[2]}")
                    )

        try:
            try:
                ctx = _get_context()
            except Exception as err:  # noqa: BLE001 — env probe
                raise PoolError(
                    f"multiprocessing unavailable: "
                    f"{type(err).__name__}: {err}",
                    pending=pending_items(),
                ) from err
            while outstanding > 0:
                now = time.monotonic()

                # 1. keep the fleet at strength (with backoff).  A
                # fleet that keeps dying before serving any task
                # (e.g. the OOM killer reaping every init) is an
                # environment failure, not a task failure — bound it.
                if self.stats.respawns > budget + 2 * len(workers):
                    raise PoolError(
                        f"workers keep dying "
                        f"({self.stats.respawns} respawns); "
                        f"giving up on the pool",
                        pending=pending_items(),
                    )
                for slot in range(len(workers)):
                    handle = workers[slot]
                    if handle is not None:
                        continue
                    if now < next_spawn:
                        continue
                    init_deadline = (
                        now + self.policy.task_timeout
                        if self.policy.task_timeout is not None
                        else None
                    )
                    try:
                        workers[slot] = _Worker(
                            ctx, *worker_args,
                            init_deadline=init_deadline,
                        )
                    except Exception as err:  # noqa: BLE001
                        raise PoolError(
                            f"cannot spawn worker: "
                            f"{type(err).__name__}: {err}",
                            pending=pending_items(),
                        ) from err

                # 2. dispatch eligible tasks to idle, ready workers.
                for handle in workers:
                    if (handle is None or not handle.ready
                            or handle.task is not None):
                        continue
                    task = self._next_eligible(queue, now)
                    if task is None:
                        break
                    try:
                        handle.dispatch(task, self.policy.task_timeout)
                    except OSError:
                        # The worker died between messages; step 4
                        # reaps it and requeues the task.
                        continue
                    inflight[task.id] = task

                # 3. wait for messages / deaths / deadlines.
                conns = [h.conn for h in workers if h is not None]
                timeout = self._wait_timeout(workers, queue, now,
                                             next_spawn)
                if conns:
                    ready = _connection_wait(conns, timeout)
                else:
                    # whole fleet down: sleep out the spawn backoff
                    time.sleep(timeout)
                    ready = []
                for slot, handle in enumerate(workers):
                    if handle is None or handle.conn not in ready:
                        continue
                    try:
                        message = handle.conn.recv()
                    except (EOFError, OSError):
                        self._on_death(slot, workers, fail_task,
                                       note_failure)
                        continue
                    handle_message(slot, message)

                # 4. reap deadline overruns and silent deaths.
                now = time.monotonic()
                for slot, handle in enumerate(workers):
                    if handle is None:
                        continue
                    if (not handle.process.is_alive()
                            and not handle.conn.poll()):
                        self._on_death(slot, workers, fail_task,
                                       note_failure)
                    elif (handle.deadline is not None
                            and now > handle.deadline
                            and not handle.conn.poll()):
                        self._on_timeout(slot, workers, fail_task)
        except BaseException:
            for handle in workers:
                if handle is not None:
                    handle.reap()
            raise
        # Clean shutdown: ask workers to exit, then join.
        for handle in workers:
            if handle is None:
                continue
            try:
                handle.conn.send(None)
            except OSError:
                pass
        for handle in workers:
            if handle is not None:
                handle.process.join(timeout=5)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=5)
                handle.conn.close()
        return self.stats

    # -- supervision details ------------------------------------------------

    @staticmethod
    def _next_eligible(queue: deque, now: float) -> _Task | None:
        """Pop the first task whose backoff has elapsed (stable)."""
        for _ in range(len(queue)):
            task = queue.popleft()
            if task.not_before <= now:
                return task
            queue.append(task)
        return None

    def _wait_timeout(self, workers, queue, now: float,
                      next_spawn: float) -> float:
        timeout = POLL_INTERVAL
        for handle in workers:
            if handle is not None and handle.deadline is not None:
                timeout = min(timeout, max(0.0, handle.deadline - now))
            if handle is None and next_spawn > now:
                timeout = min(timeout, next_spawn - now)
        for task in queue:
            if task.not_before > now:
                timeout = min(timeout, task.not_before - now)
        return max(0.0, timeout)

    def _on_death(self, slot: int, workers, fail_task,
                  note_failure) -> None:
        handle = workers[slot]
        task = handle.task
        exitcode = handle.process.exitcode
        handle.reap()
        workers[slot] = None
        self.stats.respawns += 1
        if task is None:
            note_failure()  # idle worker died; respawn with backoff
            return
        self.stats.crashes += 1
        fail_task(task, WorkerCrash(
            f"worker died (exit code {exitcode}) while running task "
            f"{task.id} (attempt {task.attempts})"
        ))

    def _on_timeout(self, slot: int, workers, fail_task) -> None:
        handle = workers[slot]
        task = handle.task
        phase = (
            f"task {task.id} (attempt {task.attempts})"
            if task is not None else "start-up"
        )
        error = TaskTimeout(
            f"worker exceeded the {self.policy.task_timeout:.1f}s "
            f"deadline during {phase}; presumed hung and killed"
        )
        handle.reap()
        workers[slot] = None
        self.stats.respawns += 1
        self.stats.timeouts += 1
        if task is None:
            return  # initializer hung; respawn and hope
        fail_task(task, error)
