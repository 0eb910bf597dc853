"""Submit→result latency of the job service, observability off/on.

Hosts a real :class:`~repro.service.server.JobServer` in-process
(thread-hosted event loop, Unix socket — the same harness the service
tests use) and drives a stream of small ``run`` jobs through it three
ways:

* **bare**    — ``metrics=False, forensics=False``: the registry is
  the null object, no tracing, no bundles;
* **metrics** — the default service configuration (metrics registry
  plus SLO tracking and forensics armed);
* **trace**   — full end-to-end tracing on top of metrics.

Each mode reports submit→done wall-clock percentiles and the mode's
overhead ratio versus *bare*.  A job's latency ends at the terminal
event of :meth:`Client.tail`, which the server pushes the moment the
job finishes; :meth:`Client.wait` polls every 0.1 s and would round
every latency up to that grid.  The result documents of all three
modes must be byte-identical — observability observes, never
perturbs; the script asserts it the same way CI's obs-smoke job does.

Run as a script to emit ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service_latency.py
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

from repro.service import Client, JobServer, ServerConfig

MODES = ("bare", "metrics", "trace")

#: one tiny spec for every job: the point is the service's per-job
#: overhead, not simulation time.  The service dedups identical
#: (tenant, kind, spec) triples, so each job submits under its own
#: tenant to get a fresh job id for the same work.
JOB_SPEC = {"workload": "crc32", "extension": "sec", "scale": 0.03125}


def _config(mode: str) -> ServerConfig:
    if mode == "bare":
        return ServerConfig(heartbeat=0.1, metrics=False,
                            forensics=False)
    if mode == "metrics":
        return ServerConfig(heartbeat=0.1, slo=30.0)
    return ServerConfig(heartbeat=0.1, slo=30.0, trace=True)


class HostedServer:
    """A JobServer on a side-thread event loop (benchmark-local)."""

    def __init__(self, root, mode: str):
        self.address = str(root / "sock")
        self.server = JobServer(root / "state", self.address,
                                _config(mode))
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._host, daemon=True)

    def _host(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self.loop.run_until_complete(self.server.serve_forever())
        self.loop.close()

    def __enter__(self) -> "HostedServer":
        self.thread.start()
        deadline = time.monotonic() + 30
        while not self.server.ready:
            if time.monotonic() > deadline:
                raise TimeoutError("server did not become ready")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop)
        future.result(timeout=30)
        self.thread.join(timeout=30)


def percentile(ordered: list[float], q: float) -> float:
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def tail_to_end(client: Client, job_id: str) -> None:
    """Follow the job's state stream to its terminal ``end`` event."""
    for event in client.tail(job_id):
        pass
    if event.get("state") != "done":
        raise RuntimeError(f"job {job_id} ended {event.get('state')!r}")


def measure(root, mode: str, jobs: int) -> dict:
    latencies: list[float] = []
    documents: list[str] = []
    with HostedServer(root / mode, mode) as hosted:
        # warm the toolchain caches outside the timed window
        with Client(hosted.address, tenant="warmup",
                    timeout=120) as client:
            warm = client.submit("run", JOB_SPEC)
            tail_to_end(client, warm["job_id"])
        for n in range(jobs):
            with Client(hosted.address, tenant=f"t{n}",
                        timeout=120) as client:
                start = time.perf_counter()
                response = client.submit("run", JOB_SPEC)
                tail_to_end(client, response["job_id"])
                latencies.append(time.perf_counter() - start)
                documents.append(
                    client.result(response["job_id"])["document"])
    ordered = sorted(latencies)
    return {
        "mode": mode,
        "jobs": jobs,
        "p50": round(percentile(ordered, 0.50), 4),
        "p95": round(percentile(ordered, 0.95), 4),
        "p99": round(percentile(ordered, 0.99), 4),
        "mean": round(sum(ordered) / len(ordered), 4),
        "documents": documents,
    }


def main(argv: list[str] | None = None) -> int:
    import tempfile
    from pathlib import Path

    args = argv if argv is not None else sys.argv[1:]
    jobs = int(args[0]) if args else 12

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        for mode in MODES:
            rows.append(measure(Path(scratch), mode, jobs))

    # the invariance gate: every mode produced byte-identical result
    # documents for the same specs
    for row in rows[1:]:
        if row["documents"] != rows[0]["documents"]:
            raise AssertionError(
                f"observability perturbed results: mode "
                f"{row['mode']!r} differs from bare"
            )
    for row in rows:
        del row["documents"]

    bare = rows[0]["mean"]
    document = {
        "benchmark": "service_latency",
        "jobs": jobs,
        "spec": JOB_SPEC,
        "target": "metrics+trace mean within ~1.05x of bare",
        "modes": rows,
        "overhead_vs_bare": {
            row["mode"]: round(row["mean"] / bare, 4) for row in rows
        },
        "documents_identical": True,
    }
    with open("BENCH_service.json", "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"{'mode':<10}{'p50':>9}{'p95':>9}{'p99':>9}{'mean':>9}"
          f"{'vs bare':>9}")
    for row in rows:
        ratio = document["overhead_vs_bare"][row["mode"]]
        print(f"{row['mode']:<10}{row['p50']:>8.3f}s"
              f"{row['p95']:>8.3f}s{row['p99']:>8.3f}s"
              f"{row['mean']:>8.3f}s{ratio:>8.2f}x")
    print("written: BENCH_service.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
