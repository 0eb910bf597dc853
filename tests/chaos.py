"""Infra-chaos harness: controlled worker kills, hangs and full disks.

Not a test module (pytest only collects ``test_*.py``): this is the
shared fault-injection library *for the infrastructure itself*, used
by ``test_supervisor.py`` and ``test_chaos.py``.

How injection reaches the workers
---------------------------------
The supervised pool forks its workers (Linux default start method),
so workers inherit the parent's memory image — including any
monkeypatched module globals and the :data:`_PLAN` installed here.
Worker entry points (:func:`repro.faultinject.campaign._worker_run`,
:func:`repro.engine.sweep._run_indexed`) are looked up as module
globals at dispatch time, so patching the module routes every task,
including tasks dispatched to *respawned* workers, through
:meth:`ChaosPlan.apply` first.  A campaign dispatches one fault index
per task, so sabotage keyed by fault index lands on exactly that
fault's task.

Once-only faults (``kill``/``hang``) synchronise across process
deaths through marker files: the doomed attempt drops a marker
*before* dying, so the retried attempt sees it and runs clean.  That
is exactly the "transient infra fault" shape the supervisor must
absorb.  ``kill_always`` models a permanently poisonous environment,
and ``in_children_only=True`` confines it to forked workers so the
in-process serial fallback can prove it survives where the pool
cannot.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from pathlib import Path

from repro.engine import sweep as sweep_module
from repro.faultinject import campaign as campaign_module

#: the real worker entry points, saved at import so the chaos
#: wrappers can delegate even while the modules are patched.
REAL_CAMPAIGN_WORKER = campaign_module._worker_run
REAL_SWEEP_WORKER = sweep_module._run_indexed


class ChaosPlan:
    """Which items to sabotage, and how.

    ``kill``/``hang`` fire once per item (marker files make the retry
    clean); ``kill_always`` fires on every attempt.  Keys are whatever
    the caller's work items are keyed by (fault indices, sweep point
    indices, plain integers for toy workers).
    """

    def __init__(self, marker_dir, *, kill=(), hang=(),
                 kill_always=(), hang_seconds: float = 3600.0,
                 in_children_only: bool = False, run_log=None):
        self.marker_dir = Path(marker_dir)
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        self.kill = frozenset(kill)
        self.hang = frozenset(hang)
        self.kill_always = frozenset(kill_always)
        self.hang_seconds = hang_seconds
        self.in_children_only = in_children_only
        self.parent_pid = os.getpid()
        #: optional path collecting one line per *attempted* item
        #: execution (O_APPEND keeps concurrent workers' short lines
        #: whole) — how tests prove an infra failure re-runs only the
        #: item its worker was holding.
        self.run_log = Path(run_log) if run_log is not None else None

    def _first_time(self, kind: str, key) -> bool:
        marker = self.marker_dir / f"{kind}-{key}"
        if marker.exists():
            return False
        marker.touch()
        return True

    def apply(self, key) -> None:
        """Sabotage the current process if the plan says so."""
        if self.run_log is not None:
            with open(self.run_log, "a") as log:
                log.write(f"{key}\n")
        if self.in_children_only and os.getpid() == self.parent_pid:
            return
        if key in self.kill_always:
            os.kill(os.getpid(), signal.SIGKILL)
        if key in self.kill and self._first_time("kill", key):
            os.kill(os.getpid(), signal.SIGKILL)
        if key in self.hang and self._first_time("hang", key):
            time.sleep(self.hang_seconds)


#: the active plan; forked workers inherit it.  Install via
#: :func:`use_plan` so pytest's monkeypatch restores it.
_PLAN: ChaosPlan | None = None


def use_plan(monkeypatch, plan: ChaosPlan) -> None:
    """Activate ``plan`` for toy workers (:func:`chaos_square`)."""
    import tests.chaos as self_module
    monkeypatch.setattr(self_module, "_PLAN", plan)


def install(monkeypatch, plan: ChaosPlan) -> None:
    """Activate ``plan`` and route the campaign and sweep worker
    entry points through it."""
    use_plan(monkeypatch, plan)
    monkeypatch.setattr(campaign_module, "_worker_run",
                        chaos_campaign_worker)
    monkeypatch.setattr(sweep_module, "_run_indexed",
                        chaos_sweep_worker)


# -- worker entry points (module-level: fork-inherited) -------------------


def chaos_square(item: int) -> int:
    """Toy worker for supervisor unit tests."""
    _PLAN.apply(item)
    return item * item


def failing_square(item: int) -> int:
    """Toy worker whose odd items always raise (deterministic task
    failure, as opposed to infra failure)."""
    if item % 2:
        raise ValueError(f"item {item} is cursed")
    return item * item


def chaos_campaign_worker(index: int):
    _PLAN.apply(index)
    return REAL_CAMPAIGN_WORKER(index)


def chaos_sweep_worker(item):
    _PLAN.apply(item[0])
    return REAL_SWEEP_WORKER(item)


# -- environment faults ---------------------------------------------------


def enospc(*args, **kwargs):
    """Stand-in for any write-path function: the disk is full."""
    raise OSError(errno.ENOSPC, "No space left on device")


# -- job-service chaos -----------------------------------------------------


class ServiceProcess:
    """A ``repro serve`` subprocess the chaos tests can SIGKILL.

    The server is a real OS process (not a thread), so ``kill -9``
    exercises the genuine crash-recovery path: nothing gets a chance
    to flush, exactly like a machine losing power.
    """

    def __init__(self, state_dir, address: str, *extra_args: str):
        import subprocess
        import sys as sys_module

        self.state_dir = Path(state_dir)
        self.address = address
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        self.process = subprocess.Popen(
            [sys_module.executable, "-m", "repro", "serve",
             "--state-dir", str(self.state_dir),
             "--listen", address, "--heartbeat", "0.1",
             *extra_args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def wait_ready(self, timeout: float = 30.0) -> None:
        from repro.service import Client
        from repro.service.client import ServiceError

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited early "
                    f"(code {self.process.returncode})"
                )
            try:
                with Client(self.address, max_retries=0,
                            timeout=2.0) as client:
                    if client.health().get("ready"):
                        return
            except (ServiceError, OSError):
                pass
            time.sleep(0.05)
        raise TimeoutError("server never became ready")

    def kill9(self) -> None:
        """SIGKILL — the power-loss simulation."""
        self.process.kill()
        self.process.wait(timeout=30)

    def terminate(self, timeout: float = 60.0) -> int:
        """SIGTERM — the graceful drain path; returns the exit code."""
        self.process.terminate()
        return self.process.wait(timeout=timeout)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
