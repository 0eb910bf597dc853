"""Supervised-pool unit tests: toy workers, controlled infra faults.

Integrated campaign/sweep chaos lives in ``test_chaos.py``; this file
exercises the pool machinery itself with cheap workers so every
scenario runs in well under a second of simulated work.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine.pool import (
    PoolError,
    PoolPolicy,
    Quarantined,
    fan_out,
)
from repro.engine import supervisor
from tests import chaos

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="chaos injection relies on fork inheritance",
)

ITEMS = list(range(12))


def square(item: int) -> int:
    return item * item


def collect(results: list):
    def record(result) -> None:
        results.append(result)
    return record


def quiet(message: str) -> None:
    pass


class TestHealthyPool:
    def test_parallel_completes_every_item(self):
        results: list[int] = []
        stats = fan_out(ITEMS, square, collect(results), jobs=3,
                        warn=quiet)
        assert sorted(results) == [i * i for i in ITEMS]
        assert not stats.interesting()

    def test_serial_jobs1_is_not_degraded(self):
        results: list[int] = []
        stats = fan_out(ITEMS, square, collect(results), jobs=1,
                        warn=quiet)
        assert sorted(results) == [i * i for i in ITEMS]
        assert not stats.interesting()

    def test_single_item_runs_in_process(self):
        results: list[int] = []
        stats = fan_out([5], square, collect(results), jobs=4,
                        warn=quiet)
        assert results == [25]
        assert not stats.interesting()

    def test_empty_items(self):
        results: list[int] = []
        stats = fan_out([], square, collect(results), jobs=3,
                        warn=quiet)
        assert results == []
        assert not stats.interesting()


class TestTaskFailures:
    def test_deterministic_failure_quarantines_with_handler(self):
        results: list[int] = []
        quarantined: list[tuple] = []
        policy = PoolPolicy(max_retries=1)
        stats = fan_out(
            list(range(4)), chaos.failing_square, collect(results),
            jobs=2, policy=policy,
            on_quarantine=lambda item, err: quarantined.append(
                (item, err)),
            warn=quiet,
        )
        assert sorted(results) == [0, 4]
        assert sorted(item for item, _ in quarantined) == [1, 3]
        assert stats.quarantined == 2
        # each cursed item got max_retries extra attempts
        assert stats.retries == 2
        for _item, err in quarantined:
            assert isinstance(err, Quarantined)
            assert "cursed" in str(err)

    def test_serial_failure_quarantines_at_once(self):
        # In-process the failure is deterministic: no retries.
        results: list[int] = []
        quarantined: list = []
        stats = fan_out(
            list(range(4)), chaos.failing_square, collect(results),
            jobs=1,
            on_quarantine=lambda item, err: quarantined.append(item),
            warn=quiet,
        )
        assert results == [0, 4]
        assert quarantined == [1, 3]
        assert stats.quarantined == 2
        assert stats.retries == 0

    def test_quarantine_without_handler_raises(self):
        with pytest.raises(Quarantined, match="cursed"):
            fan_out(list(range(4)), chaos.failing_square,
                    lambda r: None, jobs=2,
                    policy=PoolPolicy(max_retries=0), warn=quiet)


@fork_only
class TestInfraFaults:
    def test_killed_worker_is_respawned_and_task_retried(
            self, tmp_path, monkeypatch):
        chaos.use_plan(monkeypatch,
                       chaos.ChaosPlan(tmp_path, kill=(3,)))
        results: list[int] = []
        stats = fan_out(ITEMS, chaos.chaos_square, collect(results),
                        jobs=2, warn=quiet)
        assert sorted(results) == [i * i for i in ITEMS]
        assert stats.crashes >= 1
        assert stats.respawns >= 1
        assert stats.retries >= 1
        assert not stats.degraded

    def test_hung_worker_is_reaped_and_task_retried(
            self, tmp_path, monkeypatch):
        chaos.use_plan(monkeypatch,
                       chaos.ChaosPlan(tmp_path, hang=(2,)))
        results: list[int] = []
        policy = PoolPolicy(task_timeout=1.0)
        stats = fan_out(ITEMS, chaos.chaos_square, collect(results),
                        jobs=2, policy=policy, warn=quiet)
        assert sorted(results) == [i * i for i in ITEMS]
        assert stats.timeouts >= 1
        assert not stats.degraded

    def test_poisonous_item_is_quarantined(self, tmp_path,
                                           monkeypatch):
        chaos.use_plan(monkeypatch,
                       chaos.ChaosPlan(tmp_path, kill_always=(4,)))
        results: list[int] = []
        quarantined: list = []
        policy = PoolPolicy(max_retries=1, retry_budget=50)
        stats = fan_out(
            ITEMS, chaos.chaos_square, collect(results), jobs=2,
            policy=policy,
            on_quarantine=lambda item, err: quarantined.append(item),
            warn=quiet,
        )
        assert quarantined == [4]
        assert sorted(results) == [i * i for i in ITEMS if i != 4]
        assert stats.quarantined == 1

    def test_broken_pool_degrades_to_serial(self, tmp_path,
                                            monkeypatch):
        # Every forked worker dies on every item: the retry budget
        # exhausts and the parent finishes the batch in-process
        # (in_children_only spares the parent).
        chaos.use_plan(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=ITEMS, in_children_only=True))
        results: list[int] = []
        warnings: list[str] = []
        policy = PoolPolicy(retry_budget=3)
        stats = fan_out(ITEMS, chaos.chaos_square, collect(results),
                        jobs=2, policy=policy, warn=warnings.append)
        assert sorted(results) == [i * i for i in ITEMS]
        assert stats.degraded
        assert any("serial" in w for w in warnings)

    def test_fallback_never_raises_instead(self, tmp_path,
                                           monkeypatch):
        chaos.use_plan(monkeypatch, chaos.ChaosPlan(
            tmp_path, kill_always=ITEMS, in_children_only=True))
        policy = PoolPolicy(retry_budget=3, fallback="never")
        with pytest.raises(PoolError):
            fan_out(ITEMS, chaos.chaos_square, lambda r: None,
                    jobs=2, policy=policy, warn=quiet)


class TestDegradedMode:
    def test_fallback_force_skips_the_pool(self):
        results: list[int] = []
        warnings: list[str] = []
        stats = fan_out(ITEMS, square, collect(results), jobs=4,
                        policy=PoolPolicy(fallback="force"),
                        warn=warnings.append)
        assert sorted(results) == [i * i for i in ITEMS]
        assert stats.degraded
        assert any("forced" in w for w in warnings)

    def test_multiprocessing_unavailable_falls_back(
            self, monkeypatch):
        def broken_context():
            raise OSError("no process support on this platform")
        monkeypatch.setattr(supervisor, "_get_context",
                            broken_context)
        results: list[int] = []
        warnings: list[str] = []
        stats = fan_out(ITEMS, square, collect(results), jobs=3,
                        warn=warnings.append)
        assert sorted(results) == [i * i for i in ITEMS]
        assert stats.degraded
        assert any("serial" in w for w in warnings)

    def test_failing_initializer_breaks_pool_as_unit(self,
                                                     monkeypatch):
        def bad_init():
            raise RuntimeError("init is broken everywhere")
        # fallback=never: the deterministic init failure surfaces as
        # PoolError instead of being retried forever.
        policy = PoolPolicy(fallback="never")
        with pytest.raises(PoolError, match="initializer"):
            fan_out(ITEMS, square, lambda r: None, jobs=2,
                    initializer=bad_init, policy=policy, warn=quiet)

    def test_failing_initializer_propagates_in_fallback(self):
        # fallback=auto reruns the initializer in-process, which
        # reproduces the real error with a real traceback.
        def bad_init():
            raise RuntimeError("init is broken everywhere")
        with pytest.raises(RuntimeError, match="broken everywhere"):
            fan_out(ITEMS, square, lambda r: None, jobs=2,
                    initializer=bad_init, warn=quiet)


class TestInterrupt:
    def test_exception_in_record_kills_workers(self):
        seen: list[int] = []

        def explode(result) -> None:
            seen.append(result)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            fan_out(ITEMS, square, explode, jobs=2, warn=quiet)
        assert seen  # at least one result arrived before the abort
        # no orphan workers: active_children is empty again
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert not multiprocessing.active_children()


class TestDeterministicBackoff:
    """The retry/respawn backoff is a pure function of (key, attempt):
    no rng, no wall clock, so two sessions resuming the same campaign
    pace their retries identically and the schedule can be pinned."""

    def test_schedule_is_pinned(self):
        # Literal expected values: any change to the jitter algorithm
        # (a determinism-relevant behaviours change) must show up here.
        schedule = [
            supervisor.deterministic_backoff(0.1, 2.0, a, key="task-7")
            for a in range(5)
        ]
        assert schedule == pytest.approx([
            0.0,
            0.059975823014974596,
            0.1664471833501011,
            0.3727474680170417,
            0.5054288460873068,
        ])

    def test_same_inputs_same_delay(self):
        a = supervisor.deterministic_backoff(0.05, 2.0, 3, key="x")
        b = supervisor.deterministic_backoff(0.05, 2.0, 3, key="x")
        assert a == b

    def test_distinct_keys_decorrelate(self):
        delays = {
            supervisor.deterministic_backoff(0.05, 2.0, 2, key=f"t{i}")
            for i in range(16)
        }
        assert len(delays) > 8  # jitter actually varies across tasks

    def test_jitter_stays_within_half_to_full_raw(self):
        for attempt in range(1, 8):
            for key in ("a", "b", 42):
                raw = min(2.0, 0.05 * (2 ** (attempt - 1)))
                delay = supervisor.deterministic_backoff(
                    0.05, 2.0, attempt, key=key)
                assert 0.5 * raw <= delay < raw

    def test_attempt_zero_is_immediate(self):
        assert supervisor.deterministic_backoff(0.05, 2.0, 0) == 0.0

    def test_policy_delegates_with_task_key(self):
        policy = supervisor.PoolPolicy()
        assert policy.backoff_delay(2, key="idx3") == \
            supervisor.deterministic_backoff(
                supervisor.BACKOFF_BASE, supervisor.BACKOFF_CAP, 2,
                key="idx3")
