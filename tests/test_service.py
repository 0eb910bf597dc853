"""Job-service unit and integration tests (in-process server).

Protocol/identity pinning, quota and admission properties
(hypothesis), the durable job store's crash replay, the shared
worker fleet, and an end-to-end exchange against a thread-hosted
server.  Process-level chaos (kill -9, disconnects, storms) lives in
``test_service_chaos.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.pool import WorkerFleet
from repro.service import (
    AdmissionQueue,
    Client,
    JobServer,
    JobState,
    JobStore,
    ProtocolError,
    ServerConfig,
    TenantQuotas,
    job_id_for,
    normalize_spec,
)
from repro.service.client import ServiceError, ServiceRejected
from repro.service.observe import (
    SloTracker,
    ensure_trace_context,
    mint_trace_context,
)
from repro.service.queue import MAX_RETRY_AFTER, MIN_RETRY_AFTER


class TestProtocol:
    def test_job_id_is_pinned(self):
        # Content-addressing is an on-disk compatibility surface:
        # result-store entries are keyed on these ids, so the hash
        # recipe must not drift silently.
        spec = {"extension": "sec", "workload": "crc32",
                "faults": 6, "seed": 3}
        assert job_id_for("default", "inject", spec) == \
            "ec8b0c783950ba9a"

    def test_job_id_ignores_key_order_not_content(self):
        a = job_id_for("t", "sleep", {"seconds": 1})
        b = job_id_for("t", "sleep", {"seconds": 1})
        assert a == b
        assert job_id_for("t", "sleep", {"seconds": 2}) != a
        assert job_id_for("u", "sleep", {"seconds": 1}) != a

    def test_unknown_spec_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="sede"):
            normalize_spec("inject", {"extension": "sec", "sede": 1})

    def test_retired_inject_field_is_rejected(self):
        # ``batch_size`` left the inject spec when campaigns moved to
        # one fault per pool task; a client still sending it is told
        # what it may send instead.
        with pytest.raises(ProtocolError,
                           match=r"batch_size \(allowed: .*warm_start"):
            normalize_spec("inject", {"extension": "sec",
                                      "batch_size": 8})

    def test_missing_required_field_is_rejected(self):
        with pytest.raises(ProtocolError, match="extension"):
            normalize_spec("inject", {"faults": 10})

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job kind"):
            normalize_spec("mine-bitcoin", {})


class TestQuotas:
    def test_limit_enforced(self):
        quotas = TenantQuotas(2)
        assert quotas.try_acquire("a")
        assert quotas.try_acquire("a")
        assert not quotas.try_acquire("a")
        assert quotas.try_acquire("b")  # other tenants unaffected
        quotas.release("a")
        assert quotas.try_acquire("a")

    def test_release_without_acquire_is_an_error(self):
        quotas = TenantQuotas(1)
        with pytest.raises(RuntimeError, match="accounting"):
            quotas.release("ghost")

    def test_concurrent_storm_never_exceeds_quota(self):
        quotas = TenantQuotas(5)
        granted: list[bool] = []
        lock = threading.Lock()

        def stormer():
            for _ in range(100):
                took = quotas.try_acquire("t")
                with lock:
                    granted.append(took)
                if took and len(granted) % 3 == 0:
                    quotas.release("t")

        threads = [threading.Thread(target=stormer)
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Invariant: held never exceeds the limit and the final
        # count is consistent with grants minus releases.
        assert quotas.held("t") <= 5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.booleans()),
        max_size=60,
    ))
    def test_accounting_is_exact(self, ops):
        """Any interleaving of acquire/release keeps per-tenant held
        counts within [0, limit] — a model-checked quota."""
        quotas = TenantQuotas(3)
        model: dict[str, int] = {}
        for tenant, is_acquire in ops:
            if is_acquire:
                took = quotas.try_acquire(tenant)
                assert took == (model.get(tenant, 0) < 3)
                if took:
                    model[tenant] = model.get(tenant, 0) + 1
            elif model.get(tenant, 0) > 0:
                quotas.release(tenant)
                model[tenant] -= 1
            assert quotas.held(tenant) == model.get(tenant, 0)
            assert 0 <= quotas.held(tenant) <= 3


class TestAdmissionQueue:
    def test_rejects_when_full_with_usable_hint(self):
        queue = AdmissionQueue(2)
        assert queue.try_push("a") == (True, 0.0)
        assert queue.try_push("b") == (True, 0.0)
        admitted, hint = queue.try_push("c")
        assert not admitted
        assert MIN_RETRY_AFTER <= hint <= MAX_RETRY_AFTER
        assert queue.rejected == 1

    def test_fifo_order(self):
        queue = AdmissionQueue(3)
        for job in ("a", "b", "c"):
            queue.try_push(job)
        assert [queue.pop(), queue.pop(), queue.pop()] == \
            ["a", "b", "c"]
        assert queue.pop() is None

    def test_hint_tracks_service_times(self):
        queue = AdmissionQueue(1, initial_service_time=1.0)
        queue.try_push("a")
        for _ in range(50):
            queue.note_service_time(10.0)
        _, slow_hint = queue.try_push("x")
        for _ in range(200):
            queue.note_service_time(0.01)
        _, fast_hint = queue.try_push("y")
        assert fast_hint < slow_hint

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["push", "pop"]), max_size=80),
           st.integers(min_value=1, max_value=5))
    def test_depth_never_exceeds_capacity(self, ops, capacity):
        queue = AdmissionQueue(capacity)
        next_id = 0
        for op in ops:
            if op == "push":
                queue.try_push(f"job{next_id}")
                next_id += 1
            else:
                queue.pop()
            assert len(queue) <= capacity

    def test_remove_cancels_a_queued_job(self):
        queue = AdmissionQueue(3)
        queue.try_push("a")
        queue.try_push("b")
        assert queue.remove("a")
        assert not queue.remove("a")
        assert queue.pop() == "b"


class TestWorkerFleet:
    def test_lease_grants_within_budget(self):
        fleet = WorkerFleet(4)
        with fleet.lease(3) as lease:
            assert lease.granted == 3
            assert fleet.leased == 3
            with fleet.lease(3) as second:
                assert second.granted == 1  # only 1 left
        assert fleet.leased == 0
        assert fleet.peak == 4

    def test_lease_never_blocks_or_starves(self):
        fleet = WorkerFleet(2)
        leases = [fleet.lease(2) for _ in range(5)]
        # Oversubscribed by design: every caller can always run at
        # least serially in its own thread.
        assert all(lease.granted >= 1 for lease in leases)
        for lease in leases:
            lease.release()
        assert fleet.leased == 0

    def test_double_release_is_idempotent(self):
        fleet = WorkerFleet(2)
        lease = fleet.lease(2)
        lease.release()
        lease.release()
        assert fleet.leased == 0


class TestJobStore:
    def test_accept_then_replay(self, tmp_path):
        store = JobStore(tmp_path)
        store.load()
        job = store.accept("j1", "default", "sleep", {"seconds": 1})
        store.transition(job, JobState.RUNNING)
        store.close()

        replayed = JobStore(tmp_path)
        recovered = replayed.load()
        # RUNNING died with the server: re-queued durably.
        assert [j.id for j in recovered] == ["j1"]
        assert replayed.jobs["j1"].state is JobState.QUEUED
        assert "restart" in replayed.jobs["j1"].detail

    def test_terminal_jobs_stay_terminal(self, tmp_path):
        store = JobStore(tmp_path)
        store.load()
        job = store.accept("j1", "default", "sleep", {"seconds": 1})
        store.transition(job, JobState.RUNNING)
        store.store_result(job, "doc\n")
        store.transition(job, JobState.DONE)
        failed = store.accept("j2", "default", "sleep",
                              {"seconds": 1})
        store.transition(failed, JobState.FAILED, "boom")
        store.close()

        replayed = JobStore(tmp_path)
        assert replayed.load() == []
        assert replayed.jobs["j1"].state is JobState.DONE
        assert replayed.result(replayed.jobs["j1"])["document"] == \
            "doc\n"
        assert replayed.jobs["j2"].state is JobState.FAILED

    def test_done_without_result_is_requeued(self, tmp_path):
        store = JobStore(tmp_path)
        store.load()
        job = store.accept("j1", "default", "sleep", {"seconds": 1})
        store.transition(job, JobState.DONE)  # result never stored
        store.close()
        replayed = JobStore(tmp_path)
        recovered = replayed.load()
        assert [j.id for j in recovered] == ["j1"]
        assert "result document missing" in replayed.jobs["j1"].detail

    def test_job_journaled_with_a_retired_field_still_runs(
            self, tmp_path):
        # An inject job accepted while ``batch_size`` was a spec field
        # replays from the store journal and runs to the document a
        # spec without it produces.
        from repro.faultinject import Campaign, CampaignConfig
        from repro.service.runner import CancelToken, execute_job
        from tests.test_resume import SOURCE

        spec = {"extension": "sec", "source": SOURCE, "faults": 3,
                "seed": 7}
        store = JobStore(tmp_path)
        store.load()
        store.accept("j-old", "default", "inject",
                     dict(spec, batch_size=8))
        store.close()

        replayed = JobStore(tmp_path)
        [job] = replayed.load()
        assert job.spec["batch_size"] == 8
        out = execute_job(job, replayed, CancelToken())
        replayed.close()
        direct = Campaign(CampaignConfig(**spec)).run()
        assert out["document"] == direct.to_json() + "\n"

    def test_replay_preserves_admission_order(self, tmp_path):
        store = JobStore(tmp_path)
        store.load()
        for n in range(5):
            store.accept(f"j{n}", "default", "sleep",
                         {"seconds": n})
        store.close()
        recovered = JobStore(tmp_path).load()
        assert [j.id for j in recovered] == [
            "j0", "j1", "j2", "j3", "j4"]


class ServerHarness:
    """Host a JobServer on a side-thread event loop for sync tests."""

    def __init__(self, tmp_path, **config):
        self.address = str(tmp_path / "sock")
        self.server = JobServer(
            tmp_path / "state", self.address,
            ServerConfig(**{"heartbeat": 0.1, **config}),
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._host, daemon=True)

    def _host(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_until_complete(self.server.serve_forever())
        self.loop.close()

    def __enter__(self) -> "ServerHarness":
        self.thread.start()
        deadline = time.monotonic() + 10
        while not self.server.ready:
            if time.monotonic() > deadline:
                raise TimeoutError("server did not become ready")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop)
        future.result(timeout=10)
        self.thread.join(timeout=10)


class TestServerEndToEnd:
    def test_submit_execute_result(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                health = client.health()
                assert health["ready"]
                response = client.submit("sleep", {"seconds": 0.05})
                job = client.wait(response["job_id"], deadline=10)
                assert job["state"] == "done"
                result = client.result(response["job_id"])
                assert result["document"] == '{"slept":0.05}\n'

    def test_submission_is_idempotent(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                first = client.submit("sleep", {"seconds": 0.05})
                second = client.submit("sleep", {"seconds": 0.05})
                assert second["job_id"] == first["job_id"]
                assert second["deduplicated"]

    def test_forged_job_id_is_refused(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                with pytest.raises(ServiceError, match="mismatch"):
                    client.request(
                        "submit", tenant="default", kind="sleep",
                        spec={"seconds": 1}, job_id="deadbeef")

    def test_queue_full_rejects_with_retry_after(self, tmp_path):
        # capacity 1, runner busy on a long sleep: the second queued
        # job fills the queue, the third is backpressured.
        with ServerHarness(tmp_path, capacity=1, runners=1,
                           quota=10) as harness:
            with Client(harness.address) as client:
                client.submit("sleep", {"seconds": 5})
                deadline = time.monotonic() + 5
                while True:  # wait until the first job occupies the
                    jobs = client.jobs()  # runner, freeing the queue
                    if any(j["state"] == "running" for j in jobs):
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                client.submit("sleep", {"seconds": 5.1})
                with pytest.raises(ServiceRejected) as excinfo:
                    client.submit("sleep", {"seconds": 5.2})
                assert excinfo.value.retry_after >= MIN_RETRY_AFTER
                assert "full" in str(excinfo.value)

    def test_tenant_quota_rejects_with_retry_after(self, tmp_path):
        with ServerHarness(tmp_path, capacity=16, runners=1,
                           quota=2) as harness:
            with Client(harness.address) as client:
                client.submit("sleep", {"seconds": 3})
                client.submit("sleep", {"seconds": 3.1})
                with pytest.raises(ServiceRejected) as excinfo:
                    client.submit("sleep", {"seconds": 3.2})
                assert "quota" in str(excinfo.value)
                assert excinfo.value.retry_after > 0
                # another tenant is not affected
                other = Client(harness.address, tenant="other")
                with other:
                    accepted = other.submit("sleep",
                                            {"seconds": 0.01})
                    assert accepted["state"] == "queued"

    def test_cancel_queued_job(self, tmp_path):
        with ServerHarness(tmp_path, runners=1) as harness:
            with Client(harness.address) as client:
                client.submit("sleep", {"seconds": 5})
                queued = client.submit("sleep", {"seconds": 5.1})
                cancelled = client.cancel(queued["job_id"])
                assert not cancelled["cancelling"]
                job = client.status(queued["job_id"])
                assert job["state"] == "cancelled"

    def test_cancel_running_job(self, tmp_path):
        with ServerHarness(tmp_path, runners=1) as harness:
            with Client(harness.address) as client:
                running = client.submit("sleep", {"seconds": 30})
                deadline = time.monotonic() + 5
                while client.status(
                        running["job_id"])["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                client.cancel(running["job_id"])
                job = client.wait(running["job_id"], deadline=10)
                assert job["state"] == "cancelled"

    def test_job_deadline_fails_the_job(self, tmp_path):
        with ServerHarness(tmp_path, runners=1,
                           job_deadline=0.2) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 30})
                job = client.wait(response["job_id"], deadline=10)
                assert job["state"] == "cancelled"
                assert "deadline" in job["detail"]

    def test_failed_job_carries_detail(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit(
                    "run", {"workload": "no-such-kernel"})
                job = client.wait(response["job_id"], deadline=30)
                assert job["state"] == "failed"
                assert job["detail"]

    def test_tail_streams_the_full_lifecycle(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.1})
                states = [
                    event.get("state")
                    for event in Client(harness.address).tail(
                        response["job_id"])
                ]
                assert states[0] == "queued"
                assert states[-1] == "done"
                assert "running" in states

    def test_compile_job(self, tmp_path):
        from repro.mdl import shipped_specs
        source = shipped_specs()["umc"].read_text()
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit(
                    "compile",
                    {"source": source, "filename": "umc.mdl"})
                job = client.wait(response["job_id"], deadline=30)
                assert job["state"] == "done"
                result = client.result(response["job_id"])
                assert result["meta"]["name"]

    def test_run_job_document_is_deterministic(self, tmp_path):
        spec = {"workload": "crc32", "extension": "sec",
                "scale": 0.125}
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("run", spec)
                client.wait(response["job_id"], deadline=60)
                first = client.result(response["job_id"])["document"]
        with ServerHarness(tmp_path / "second") as harness:
            with Client(harness.address) as client:
                response = client.submit("run", spec)
                client.wait(response["job_id"], deadline=60)
                second = client.result(
                    response["job_id"])["document"]
                # "superblock" is an accepted alias of the fast
                # engine: same digest, and the document says "fast".
                response = client.submit(
                    "run", {**spec, "engine": "superblock"})
                client.wait(response["job_id"], deadline=60)
                alias = client.result(response["job_id"])["document"]
        assert first == second == alias
        assert json.loads(alias)["engine"] == "fast"


class TestSloTracker:
    def test_percentiles_over_window(self):
        tracker = SloTracker(window=100)
        for n in range(100):
            tracker.observe((n + 1) / 100)  # 0.01 .. 1.00
        snap = tracker.snapshot()
        assert snap["count"] == 100
        assert snap["window"] == 100
        assert snap["p50"] == pytest.approx(0.50, abs=0.02)
        assert snap["p95"] == pytest.approx(0.95, abs=0.02)
        assert snap["p99"] == pytest.approx(0.99, abs=0.02)
        assert snap["ok"]  # no target: vacuously ok

    def test_target_violation_flips_ok(self):
        tracker = SloTracker(target=0.1)
        tracker.observe(0.05)
        assert tracker.snapshot()["ok"]
        for _ in range(50):
            tracker.observe(1.0)
        snap = tracker.snapshot()
        assert not snap["ok"]
        assert snap["target"] == 0.1

    def test_window_is_bounded(self):
        tracker = SloTracker(window=8)
        for _ in range(100):
            tracker.observe(1.0)
        snap = tracker.snapshot()
        assert snap["window"] == 8
        assert snap["count"] == 100


class TestTraceContext:
    def test_minted_context_shape(self):
        context = mint_trace_context()
        assert len(context["trace_id"]) == 16
        assert len(context["span_id"]) == 8
        assert context != mint_trace_context()

    def test_ensure_accepts_and_completes(self):
        full = {"trace_id": "a" * 16, "span_id": "b" * 8}
        assert ensure_trace_context(full) == full
        partial = ensure_trace_context({"trace_id": "a" * 16})
        assert partial["trace_id"] == "a" * 16
        assert partial["span_id"]

    def test_ensure_rejects_malformed(self):
        with pytest.raises(ValueError, match="JSON object"):
            ensure_trace_context("not-a-dict")
        with pytest.raises(ValueError, match="trace_id"):
            ensure_trace_context({"trace_id": 7})

    def test_trace_does_not_change_job_identity(self):
        # Trace ids are excluded from the content address: retried
        # submissions with fresh trace contexts must still dedup.
        spec = {"seconds": 1}
        assert job_id_for("t", "sleep", spec) == \
            job_id_for("t", "sleep", spec)


class TestEwmaSeeding:
    def test_store_replays_service_times(self, tmp_path):
        store = JobStore(tmp_path)
        store.load()
        job = store.accept("j1", "default", "sleep", {"seconds": 1})
        store.transition(job, JobState.RUNNING)
        time.sleep(0.05)
        store.store_result(job, "doc\n")
        store.transition(job, JobState.DONE)
        store.close()

        replayed = JobStore(tmp_path)
        replayed.load()
        assert len(replayed.replayed_service_times) == 1
        assert replayed.replayed_service_times[0] >= 0.04

    def test_seeding_moves_the_retry_hint(self):
        fresh = AdmissionQueue(1, initial_service_time=1.0)
        seeded = AdmissionQueue(1, initial_service_time=1.0)
        seeded.seed_service_times([10.0] * 50)
        assert seeded.service_estimate() > \
            fresh.service_estimate()

    def test_server_restart_keeps_ewma_warm(self, tmp_path):
        # A restarted server must not reset its retry_after estimate
        # to the cold default: completed-job timings replayed from
        # the journal re-seed the EWMA.
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.05})
                client.wait(response["job_id"], deadline=10)
        with ServerHarness(tmp_path) as harness:
            estimate = harness.server.queue.service_estimate()
            # seeded from a ~0.05s completion, far from the 1.0s
            # cold-start default
            assert estimate < 0.9


class TestObservability:
    def test_metrics_op_exposes_prometheus_text(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.05})
                client.wait(response["job_id"], deadline=10)
                metrics = client.metrics()
        assert metrics["metrics"]["service.jobs.submitted"] == 1
        assert metrics["metrics"]["service.jobs.completed"] == 1
        text = metrics["prometheus"]
        assert text.endswith("\n")
        assert "repro_service_jobs_submitted 1" in text
        assert ("# TYPE repro_service_submit_to_result_seconds "
                "histogram") in text
        assert "repro_service_submit_to_result_seconds_count 1" \
            in text
        assert "repro_service_fleet_size" in text
        assert "repro_service_slo_p95" in text
        # every sample line uses a mangled name with the repro_ prefix
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            assert line.startswith("repro_"), line

    def test_health_carries_pool_and_slo(self, tmp_path):
        with ServerHarness(tmp_path, slo=5.0) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.05})
                client.wait(response["job_id"], deadline=10)
                health = client.health()
        assert health["pool"]["retries"] == 0
        assert not health["pool"]["degraded"]
        assert health["slo"]["count"] == 1
        assert health["slo"]["target"] == 5.0
        assert health["slo"]["ok"]
        from repro.telemetry.summary import format_service_health
        screen = format_service_health(health)
        assert "pool: 0 retries" in screen
        assert "target p95<=5s: ok" in screen

    def test_trace_op_requires_tracing(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.01})
                client.wait(response["job_id"], deadline=10)
                with pytest.raises(ServiceError, match="disabled"):
                    client.trace(response["job_id"])

    def test_trace_spans_cover_the_job_lifecycle(self, tmp_path):
        context = mint_trace_context()
        with ServerHarness(tmp_path, trace=True) as harness:
            with Client(harness.address) as client:
                response = client.submit(
                    "sleep", {"seconds": 0.05}, trace=context)
                client.wait(response["job_id"], deadline=10)
                traced = client.trace(response["job_id"])
        assert traced["trace"] == context
        events = traced["events"]
        tracks = {event["track"] for event in events}
        assert {"client", "queue", "fleet", "runner"} <= tracks
        # every hop is stamped with the submitter's trace id and the
        # root span as parent
        for event in events:
            assert event["args"]["trace"] == context["trace_id"]
            assert event["args"]["job"] == response["job_id"]
            assert event["args"]["parent"] == context["span_id"]
        # causal ordering on the shared timeline: submit happens
        # before the queue wait ends, which ends before the runner
        # span ends
        by_name = {event["name"]: event for event in events}
        submit = by_name["submit"]
        wait = by_name["queue.wait"]
        run = by_name["job.run"]
        assert submit["ts"] <= wait["ts"] + wait["dur"]
        assert wait["ts"] + wait["dur"] <= run["ts"] + run["dur"]

    def test_job_trace_written_to_trace_dir(self, tmp_path):
        trace_dir = tmp_path / "traces"
        with ServerHarness(tmp_path,
                           trace_dir=str(trace_dir)) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.05})
                client.wait(response["job_id"], deadline=10)
                deadline = time.monotonic() + 10
                path = trace_dir / f"{response['job_id']}.json"
                while not path.exists():
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
        document = json.loads(path.read_text())
        process_names = [
            event["args"]["name"]
            for event in document["traceEvents"]
            if event.get("name") == "process_name"
        ]
        assert process_names == ["repro-service"]
        assert "wall-clock" in document["otherData"]["time_unit"]
        names = {event["name"]
                 for event in document["traceEvents"]
                 if event.get("ph") in ("X", "i")}
        assert {"submit", "queue.wait", "job.run"} <= names
        # timestamps are monotone within each thread (Perfetto's
        # per-track requirement)
        per_track: dict = {}
        for event in document["traceEvents"]:
            if event.get("ph") not in ("X", "i"):
                continue
            last = per_track.get(event["tid"], -1.0)
            assert event["ts"] >= last
            per_track[event["tid"]] = event["ts"]

    def test_forensics_bundle_on_failed_job(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit(
                    "run", {"workload": "no-such-kernel"})
                job = client.wait(response["job_id"], deadline=30)
                assert job["state"] == "failed"
        forensics = sorted(
            (tmp_path / "state" / ".forensics").glob("*.json"))
        assert len(forensics) == 1
        bundle = json.loads(forensics[0].read_text())
        assert bundle["reason"] == "job-failed"
        assert bundle["job"]["id"] == response["job_id"]
        assert bundle["job"]["spec"] == \
            {"workload": "no-such-kernel"}
        assert bundle["pool"] is not None
        assert bundle["health"]["ready"]

    def test_no_forensics_bundle_for_clean_jobs(self, tmp_path):
        with ServerHarness(tmp_path) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.01})
                client.wait(response["job_id"], deadline=10)
        assert not (tmp_path / "state" / ".forensics").exists()

    def test_metrics_off_disables_the_registry(self, tmp_path):
        with ServerHarness(tmp_path, metrics=False) as harness:
            with Client(harness.address) as client:
                response = client.submit("sleep", {"seconds": 0.01})
                client.wait(response["job_id"], deadline=10)
                metrics = client.metrics()
        assert metrics["metrics"] == {}
        assert "repro_service_jobs_submitted" not in \
            metrics["prometheus"]

    def test_storm_metric_accounting(self, tmp_path):
        """A bursty 12-way submit storm against capacity 2: every
        admission decision lands in exactly one counter, and the
        quota ledger returns to zero once the dust settles."""
        with ServerHarness(tmp_path, capacity=2, runners=1,
                           quota=64) as harness:
            accepted: list[str] = []
            rejected: list[float] = []
            lock = threading.Lock()

            def stormer(n: int) -> None:
                with Client(harness.address) as client:
                    try:
                        response = client.submit(
                            "sleep", {"seconds": 0.05 + n / 1000})
                    except ServiceRejected as err:
                        with lock:
                            rejected.append(err.retry_after)
                    else:
                        with lock:
                            accepted.append(response["job_id"])

            threads = [threading.Thread(target=stormer, args=(n,))
                       for n in range(12)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(accepted) + len(rejected) == 12
            assert rejected

            with Client(harness.address) as client:
                for job_id in accepted:
                    final = client.wait(job_id, deadline=60)
                    assert final["state"] == "done"
                metrics = client.metrics()
            counters = metrics["metrics"]
            assert counters["service.jobs.submitted"] == \
                len(accepted)
            assert counters["service.jobs.rejected"] == \
                len(rejected)
            assert counters["service.jobs.completed"] == \
                len(accepted)
            # all quota holds released; the peak counts transient
            # holds during admission too, so its ceiling is the
            # storm size, not the accepted count
            assert metrics["quotas"] in ({}, {"default": 0})
            peak = metrics["quota_peaks"].get("default", 0)
            assert 1 <= peak <= 12
            text = metrics["prometheus"]
            assert (f"repro_service_jobs_rejected "
                    f"{len(rejected)}") in text
            # the wait histogram saw every admitted job
            assert (f"repro_service_queue_wait_seconds_count "
                    f"{len(accepted)}") in text
