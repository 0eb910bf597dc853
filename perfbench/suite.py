"""The benchmark's four workloads, timed through repro's public API.

Each workload runs its operations -- sweep points, faulted runs or
served jobs -- in a seeded order until ``seconds`` have passed and its
fixed reference unit is done, checks every result against
``expected.json``, and returns a :class:`Result`.

Untraced runs report the end-to-end metrics (:data:`END_TO_END`).
Traced runs report the per-layer metrics (:data:`PER_LAYER`).  They
run every operation twice, once bare and once under the sampler and
span wrappers of :mod:`tracing`, alternating which goes first, so a
traced run measures its own overhead and checks that tracing changes
no output.

Every interval is converted to reference-host seconds by the
:class:`hostspeed.HostClock` watching the CPU the simulation runs on;
the unconverted wall-clock figures are kept beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import tracing
from hostspeed import DISPATCH, STARTUP, HostClock, WallClock, pinned

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

PAPER_KERNELS = ("sha", "gmac", "stringsearch", "fft", "basicmath",
                 "bitcount")
#: the service's short jobs: the paper kernels whose runs shrink with
#: ``scale`` (stringsearch and fft keep a minimum input size) plus the
#: repository's two extra kernels.
SERVICE_KERNELS = ("sha", "gmac", "basicmath", "bitcount", "crc32",
                   "qsort")
#: each extension at its paper fabric clock ratio (Table IV).
PAPER_MONITORS = (("umc", 0.5), ("dift", 0.5), ("bc", 0.5),
                  ("sec", 0.25))
UNMONITORED = ((None, 0.5),)
#: scale of the untimed warm-up runs.
WARM_UP_SCALE = 0.03125
#: cold starts per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: closed-loop service clients, one connection each.
CLIENTS = 2

#: name -> unit; every workload reports every one of them.
END_TO_END = {
    "setup_s": "s",
    "sim_kips": "kinst/s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "peak_rss_mb": "MB",
}
#: the outcome fields checked against ``expected.json`` per point.
POINT_FIELDS = ("digest", "instructions", "cycles")
EXTENSION_KEYS = ("none", "umc", "dift", "bc", "sec")
SPAN_NAMES = ("assemble", "construct", "full_run", "prefix_replay",
              "hooked_leg", "sprint_leg", "restore", "digest",
              "classify", "journal")
OUTCOMES = ("masked", "detected", "sdc", "crash", "hang")
SIM_COUNTS = ("instructions", "cycles", "fifo_stall_cycles",
              "meta_stall_cycles", "forwarded")
PER_LAYER = {
    **{f"host.{layer}_share": "share" for layer in tracing.LAYERS},
    "host.samples": "count",
    "trace_overhead": "x",
    "ops.completed": "count",
    **{f"span.{name}_share": "share" for name in SPAN_NAMES},
    **{f"ext.{key}_share": "share" for key in EXTENSION_KEYS},
    **{f"sim.{name}": "count" for name in SIM_COUNTS},
    "campaign.prefix_snapshots": "count",
    "campaign.warm_frac": "share",
    "campaign.sprint_frac": "share",
    **{f"campaign.{name}": "count" for name in OUTCOMES},
    "service.submit_ack_share": "share",
    "service.queue_wait_share": "share",
    "service.lease_share": "share",
    "service.fsync_share": "share",
    "service.fsyncs_per_job": "count",
    "service.rejected": "count",
    "service.deduplicated": "count",
}


# -- workload specifications ------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Table-IV grid points run through ``SweepRunner().run``; the
    reference unit is one pass over all of them."""

    monitors: tuple = UNMONITORED
    scale: float = 1.0
    kernels: tuple = PAPER_KERNELS

    def points(self) -> list:
        from repro.engine.sweep import SweepPoint
        return [SweepPoint(workload=kernel, extension=extension,
                           clock_ratio=ratio, scale=self.scale)
                for kernel in self.kernels
                for extension, ratio in self.monitors]


@dataclass(frozen=True)
class CampaignSpec:
    """The first ``faults`` faults of one journaled serial campaign
    (default: the 100-fault sha/DIFT campaign ROADMAP tracks, seed 1);
    the reference unit is one pass over them, in index order.

    The faults do not depend on the benchmark's seed: fault sets drawn
    by different seeds differ in cost by more than the regression
    bound, and so does the order of one set (see README.md).
    """

    extension: str = "dift"
    workload: str = "sha"
    scale: float = 0.125
    campaign_faults: int = 100
    campaign_seed: int = 1
    faults: int = 25

    def config(self):
        from repro.faultinject import CampaignConfig
        return CampaignConfig(extension=self.extension,
                              workload=self.workload, scale=self.scale,
                              faults=self.campaign_faults,
                              seed=self.campaign_seed)


@dataclass(frozen=True)
class ServiceSpec:
    """Closed-loop ``run`` jobs against a ``repro serve`` subprocess.

    Jobs come in rounds holding every kernel x monitor pair once, each
    round shuffled by the seed, so any run's mix is balanced.  An
    untraced run submits at least ``jobs`` of them; the reference unit
    is the first round.
    """

    kernels: tuple = SERVICE_KERNELS
    monitors: tuple = UNMONITORED + PAPER_MONITORS
    scale: float = 0.03125
    jobs: int = 200

    def round(self) -> list[dict]:
        specs = []
        for kernel in self.kernels:
            for extension, ratio in self.monitors:
                spec = {"workload": kernel, "scale": self.scale,
                        "clock_ratio": ratio}
                if extension is not None:
                    spec["extension"] = extension
                specs.append(spec)
        return specs


WORKLOADS = {
    "sweep-baseline": SweepSpec(),
    "sweep-monitored": SweepSpec(monitors=PAPER_MONITORS, scale=0.25),
    "campaign-sha-dift": CampaignSpec(),
    "service-mixed": ServiceSpec(),
}


# -- results ---------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: reference-host figures (the reported metrics).
    metrics: dict = field(default_factory=dict)
    #: the same figures in wall-clock seconds, unconverted.
    wall_metrics: dict = field(default_factory=dict)
    #: the run's median host slowness (see hostspeed.HostClock.factor).
    host_factor: float = 1.0
    #: sha256 over the reference unit's checked outputs.
    result_digest: str = ""
    #: deterministic counts of the reference unit (``sim.*`` etc.)
    #: and the other per-layer figures a workload measures itself.
    counts: dict = field(default_factory=dict)
    #: traced operation seconds per monitor (``none`` = unmonitored).
    by_extension: Counter = field(default_factory=Counter)
    #: layer -> sample count, when the samples come from elsewhere
    #: than the run's own tracer (the service's server).
    samples: dict | None = None
    #: wall-clock seconds of each served job (service workload).
    wall_latencies: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors and self.attempted > 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def payload(self, names: dict) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics.get(name, 0.0),
                               "unit": unit}
                        for name, unit in names.items()},
        }


@dataclass
class Op:
    """One timed operation: ``time.perf_counter()`` readings."""

    began: float
    ended: float
    instructions: int = 0


def point_key(workload: str, extension, clock_ratio, scale) -> str:
    return f"{workload}/{extension or 'none'}/{clock_ratio}/{scale}"


def digest_lines(lines) -> str:
    return hashlib.sha256(
        "\n".join(sorted(lines)).encode()).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, round(q * (len(ordered) - 1))))]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def both_clocks(clock: HostClock):
    """``(clock, metrics dict)`` pairs: reference seconds, then wall."""
    return ((clock, "metrics"), (WallClock(), "wall_metrics"))


def stream_metrics(ops: list[Op], windows, clock) -> dict:
    """Rates over the measured ``windows`` (``(began, ended)`` pairs),
    latency percentiles over the operations."""
    window = sum(clock.seconds(began, ended) for began, ended in windows)
    latencies = [clock.seconds(op.began, op.ended) for op in ops]
    return {
        "sim_kips": sum(op.instructions for op in ops) / window / 1e3,
        "ops_per_s": len(ops) / window,
        "latency_p50_s": statistics.median(latencies),
        "latency_p95_s": percentile(latencies, 0.95),
    }


def paired_overhead(spent: dict, clock: HostClock) -> float:
    """Traced over bare seconds, from ``{traced?: [(began, ended)]}``."""
    traced, bare = (sum(clock.seconds(a, b) for a, b in spent[mode])
                    for mode in (True, False))
    return traced / bare


# -- set-up time -------------------------------------------------------------


def measure_setup(name: str, spec, repeats: int,
                  cpu: int) -> list[tuple[float, float]]:
    """``(began, ended)`` of ``repeats`` cold starts of one workload."""
    intervals = []
    for _ in range(repeats):
        if isinstance(spec, ServiceSpec):
            with tempfile.TemporaryDirectory(prefix="setup-",
                                             dir=OUT) as scratch:
                with ServerProcess(scratch, cpu) as server:
                    intervals.append((server.spawned, server.ready))
            continue
        began = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "coldstart.py"), name],
            cwd=ROOT, env=child_env(), check=True,
            stdout=subprocess.DEVNULL)
        intervals.append((began, time.perf_counter()))
    return intervals


def set_up(spec) -> None:
    """What a user pays before a workload's first operation (run by
    ``coldstart.py`` in a fresh interpreter; the service's set-up is the
    server start, timed by :class:`ServerProcess`)."""
    if isinstance(spec, SweepSpec):
        from repro.engine.sweep import SweepRunner  # noqa: F401
        from repro.workloads import build_workload
        for kernel in spec.kernels:
            build_workload(kernel, spec.scale).build()
    elif isinstance(spec, CampaignSpec):
        from repro.faultinject import Campaign
        Campaign(spec.config())
    else:
        raise ValueError(f"no in-process set-up for {spec!r}")


# -- sweeps ------------------------------------------------------------------


def check_point(result: Result, key: str, document: dict,
                expected: dict) -> None:
    """Compare one point's digest and counts with ``expected.json``."""
    want = expected["points"].get(key)
    got = {name: document[name] for name in POINT_FIELDS}
    if want is None:
        result.fail(f"{key}: no reference outputs in expected.json")
    elif got != want:
        result.fail(f"{key}: got {got}, expected {want}")


def sim_counts(documents) -> dict:
    """``sim.*`` totals over sweep outcome payloads (one per point)."""
    documents = list(documents)
    return {
        "sim.instructions": sum(d["instructions"] for d in documents),
        "sim.cycles": sum(d["cycles"] for d in documents),
        "sim.fifo_stall_cycles": sum(d["fifo_stall_cycles"]
                                     for d in documents),
        "sim.meta_stall_cycles": sum(d["meta_stall_cycles"]
                                     for d in documents),
        "sim.forwarded": sum(
            round(d["forwarded_fraction"] * d["instructions"])
            for d in documents),
    }


def warm_up(points) -> None:
    """Run tiny points untimed, so lazy imports and first-use set-up of
    each monitor happen before the clock starts."""
    from repro.engine.sweep import SweepRunner
    SweepRunner().run(points)


def point_medians(ops: dict, clock) -> dict:
    """``key -> median seconds`` over each point's repeats."""
    return {key: statistics.median(clock.seconds(op.began, op.ended)
                                   for op in samples)
            for key, samples in ops.items()}


def alternate(index: int, traced: bool) -> tuple[bool, ...]:
    """The modes operation ``index`` runs in: bare only, or bare and
    traced in an order that flips from one operation to the next."""
    if not traced:
        return (False,)
    return (False, True) if index % 2 == 0 else (True, False)


def run_sweep(spec: SweepSpec, seed: int, seconds: float,
              expected: dict, clock: HostClock,
              tracer: tracing.Tracer | None = None) -> Result:
    """Shuffled passes over the grid through ``SweepRunner().run``,
    until ``seconds`` have passed and every point has run.

    The metrics use each point's median time, so a pass cut short by
    the clock biases nothing.  With a ``tracer`` every point runs bare
    and traced back to back.
    """
    from repro.engine.sweep import SweepRunner

    result = Result()
    points = spec.points()
    rng = random.Random(seed)
    runner = SweepRunner()
    ops = {False: defaultdict(list), True: defaultdict(list)}
    documents: dict = {}
    try:
        warm_up(SweepSpec(monitors=spec.monitors, scale=WARM_UP_SCALE,
                          kernels=("bitcount",)).points())
    except Exception as err:  # noqa: BLE001 - reported; points still run
        result.errors.append(f"warm-up: {type(err).__name__}: {err}")
    start = time.perf_counter()
    for index in itertools.count():
        if index >= len(points) and time.perf_counter() - start >= seconds:
            break
        if index % len(points) == 0:
            order = list(points)
            rng.shuffle(order)
        point = order[index % len(points)]
        key = point_key(point.workload, point.extension,
                        point.clock_ratio, point.scale)
        for traced in alternate(index, tracer is not None):
            result.attempted += 1
            began = time.perf_counter()
            try:
                with (tracer.active("point", key=key) if traced
                      else contextlib.nullcontext()):
                    [outcome] = runner.run([point])
            except Exception as err:  # noqa: BLE001 - counted, reported
                result.fail(f"{key}: {type(err).__name__}: {err}")
                continue
            ended = time.perf_counter()
            document = outcome.payload()
            ops[traced][key].append(Op(began, ended))
            if key not in documents:
                documents[key] = document
                check_point(result, key, document, expected)
            elif document["digest"] != documents[key]["digest"]:
                result.fail(f"{key}: digest changed between repeats")
    result.metrics["peak_rss_mb"] = own_peak_rss_mb()
    if not ops[False]:
        return result
    for timer, target in both_clocks(clock):
        medians = point_medians(ops[False], timer)
        busy = sum(medians.values())
        getattr(result, target).update({
            "sim_kips": sum(documents[key]["instructions"]
                            for key in medians) / busy / 1e3,
            "ops_per_s": len(medians) / busy,
            "latency_p50_s": statistics.median(medians.values()),
            "latency_p95_s": percentile(medians.values(), 0.95),
        })
    result.result_digest = digest_lines(
        f"{key} {document['digest']}"
        for key, document in documents.items())
    result.counts = sim_counts(documents.values())
    if tracer is not None and ops[True]:
        bare = point_medians(ops[False], clock)
        traced = point_medians(ops[True], clock)
        shared = bare.keys() & traced.keys()
        result.counts["trace_overhead"] = (
            sum(traced[key] for key in shared)
            / sum(bare[key] for key in shared))
        result.counts["ops.completed"] = len(traced)
        for key, seconds_taken in traced.items():
            result.by_extension[key.split("/")[1]] += seconds_taken
    return result


# -- fault campaign ----------------------------------------------------------


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def fault_digest(fault) -> str:
    """Short digest of one fault's full result record."""
    return hashlib.sha256(json.dumps(fault.as_dict(), sort_keys=True)
                          .encode()).hexdigest()[:16]


def check_faults(result: Result, faults, expected: dict,
                 report=None) -> None:
    """Count ``faults`` as attempted and fail the ones that ended
    ``infra_failed`` or differ from ``expected.json``; ``report``, the
    coverage report of a whole pass, is checked too."""
    from repro.faultinject.campaign import Outcome

    want = expected["campaign"]
    for fault in faults:
        result.attempted += 1
        if fault.outcome is Outcome.INFRA_FAILED:
            result.fail(f"fault {fault.index}: infra_failed "
                        f"({fault.detail})")
        elif fault_digest(fault) != want["faults"][fault.index]:
            result.fail(f"fault {fault.index}: {fault.as_dict()} "
                        f"differs from expected.json")
    if report is not None and report_digest(report) != want["report"]:
        # a wrong coverage report invalidates every fault in the run
        result.errors.append(f"report digest {report_digest(report)} != "
                             f"expected {want['report']}")
        result.failed = result.attempted


def run_campaign(spec: CampaignSpec, seed: int, seconds: float,
                 expected: dict, clock: HostClock,
                 tracer: tracing.Tracer | None = None) -> Result:
    """One pass over the campaign's first ``spec.faults`` faults; the
    seed and ``seconds`` do not change it.

    ``Campaign(config)`` is constructed first -- golden run included,
    untimed: that cost is ``setup_s``.  Each fault then runs with its
    own ``Campaign.run(indices=[index])`` call on one journal, the way
    adaptive sampling grows a campaign.  With a ``tracer`` a second
    campaign, with its own journal and prefix snapshots, repeats each
    fault traced, back to back with the bare one.
    """
    from repro.faultinject import Campaign

    result = Result()
    modes = (False,) if tracer is None else (False, True)
    campaigns = {mode: Campaign(spec.config()) for mode in modes}
    ops: dict = {False: [], True: []}
    faults: dict = {False: {}, True: {}}
    with tempfile.TemporaryDirectory(prefix="campaign-",
                                     dir=OUT) as scratch:
        journals = {mode: os.path.join(scratch, f"{mode}.jsonl")
                    for mode in modes}
        began = time.perf_counter()
        for index in range(spec.faults):
            for traced in alternate(index, tracer is not None):
                fresh: list = []
                start = time.perf_counter()
                with (tracer.active("fault_run", index=index) if traced
                      else contextlib.nullcontext()):
                    campaigns[traced].run(
                        indices=[index], journal_path=journals[traced],
                        resume=True, on_result=fresh.append)
                [fault] = fresh
                ops[traced].append(Op(start, time.perf_counter(),
                                      fault.instructions))
                faults[traced][index] = fault
        ended = time.perf_counter()
        for mode in modes:
            # replays the journal: the coverage report of the pass
            report = campaigns[mode].run(
                indices=range(spec.faults), journal_path=journals[mode],
                resume=True)
            check_faults(result, faults[mode].values(), expected, report)
    result.metrics["peak_rss_mb"] = own_peak_rss_mb()
    for timer, target in both_clocks(clock):
        getattr(result, target).update(
            stream_metrics(ops[False], [(began, ended)], timer))
    reference = [faults[False][index] for index in range(spec.faults)]
    outcomes = Counter(str(fault.outcome) for fault in reference)
    result.result_digest = digest_lines(
        f"{fault.index} {fault_digest(fault)}" for fault in reference)
    result.counts.update({
        "sim.instructions": sum(f.instructions for f in reference),
        "sim.cycles": sum(f.cycles for f in reference),
        **{f"campaign.{name}": outcomes.get(name, 0)
           for name in OUTCOMES},
    })
    if tracer is None:
        return result
    for index, fault in faults[False].items():
        if faults[True][index].as_dict() != fault.as_dict():
            result.fail(f"fault {index}: traced result differs from bare")
    spans = tracer.spans
    legs = [spans.child_names(span.ident) for span in spans.named("fault")]
    spent = {mode: [(op.began, op.ended) for op in ops[mode]]
             for mode in (False, True)}
    result.counts.update({
        "trace_overhead": paired_overhead(spent, clock),
        "ops.completed": len(ops[True]),
        "campaign.prefix_snapshots": len(spans.named("prefix_replay")),
        "campaign.warm_frac": (sum("restore" in names for names in legs)
                               / max(1, len(legs))),
        "campaign.sprint_frac": (sum("sprint_leg" in names
                                     for names in legs)
                                 / max(1, len(legs))),
    })
    result.by_extension[spec.extension] = 1.0
    return result


# -- job service -------------------------------------------------------------


class ServerProcess:
    """A ``repro serve`` subprocess on ``cpu``, listening on a socket in
    ``scratch``.

    With ``samples_path`` the server runs under the sampling profiler
    (``serve_sampled.py``), which writes its layer samples there on
    exit.  Entering waits for ``health.ready``; :attr:`spawned` and
    :attr:`ready` are the ``time.perf_counter()`` readings around that.
    """

    def __init__(self, scratch: str, cpu: int,
                 samples_path: str | None = None):
        os.makedirs(scratch, exist_ok=True)
        # Unix socket paths are short (108 bytes): address the socket
        # relative to the working directory both processes share.
        relative = os.path.relpath(scratch)
        self.address = "unix:" + os.path.join(relative, "serve.sock")
        serve = ["serve", "--state-dir", os.path.join(relative, "state"),
                 "--listen", self.address]
        if samples_path is None:
            self.command = [sys.executable, "-m", "repro", *serve]
        else:
            self.command = [sys.executable,
                            os.path.join(HERE, "serve_sampled.py"),
                            samples_path, *serve]
        self.cpu = cpu
        self.log_path = os.path.join(scratch, "serve.log")
        self.spawned = self.ready = 0.0
        self.process: subprocess.Popen | None = None

    def __enter__(self) -> "ServerProcess":
        with open(self.log_path, "wb") as log:
            self.spawned = time.perf_counter()
            self.process = subprocess.Popen(
                self.command, env=child_env(),
                stdout=subprocess.DEVNULL, stderr=log)
        try:
            os.sched_setaffinity(self.process.pid, {self.cpu})
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wait_ready(self, timeout: float = 60.0) -> None:
        from repro.service.client import Client, ServiceError

        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                with open(self.log_path) as log:
                    raise RuntimeError(
                        f"server exited with {self.process.returncode}:"
                        f" {log.read()[-2000:]}")
            try:
                with Client(self.address, timeout=5.0,
                            max_retries=0) as client:
                    if client.health().get("ready"):
                        return
            except (ServiceError, OSError):
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("server did not become ready")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for it to exit."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


@dataclass
class Job:
    spec: dict
    tenant: str
    began: float = 0.0
    #: seconds from the submit call to its acknowledgement.
    ack: float = 0.0
    #: ``time.perf_counter()`` at the tail's end event.
    ended: float = 0.0
    state: str = "unsent"
    deduplicated: bool = False
    document: dict | None = None


def job_specs(spec: ServiceSpec, seed: int):
    """Endless seeded rounds of job specs."""
    rng = random.Random(seed)
    while True:
        order = spec.round()
        rng.shuffle(order)
        yield from order


class JobSource:
    """Hands out jobs, in order, to the client threads until
    ``more(jobs taken so far)`` is false."""

    def __init__(self, specs, more, tenant: str):
        self._specs = iter(specs)
        self._more = more
        self._tenant = tenant
        self._lock = threading.Lock()
        self.jobs: list[Job] = []

    def take(self) -> Job | None:
        with self._lock:
            if not self._more(len(self.jobs)):
                return None
            # one tenant per job: identical specs never dedup
            job = Job(next(self._specs),
                      f"{self._tenant}-{len(self.jobs)}")
            self.jobs.append(job)
            return job


def _client_loop(address: str, source: JobSource, spans, errors: list
                 ) -> None:
    """One closed-loop client: submit, tail to the end event, fetch."""
    from repro.service.client import Client

    def span(name: str):
        return (contextlib.nullcontext() if spans is None
                else spans.span(name))

    try:
        with Client(address, timeout=120.0) as client:
            while (job := source.take()) is not None:
                client.tenant = job.tenant
                with span("job"):
                    job.began = time.perf_counter()
                    with span("submit"):
                        ack = client.submit("run", job.spec)
                    job.ack = time.perf_counter() - job.began
                    job.deduplicated = bool(ack.get("deduplicated"))
                    with span("tail"):
                        for event in client.tail(ack["job_id"]):
                            pass
                    job.ended = time.perf_counter()
                job.state = event["state"]
                if job.state == "done":
                    job.document = json.loads(
                        client.result(ack["job_id"])["document"])
    except Exception as err:  # noqa: BLE001 - counted, reported
        errors.append(f"client: {type(err).__name__}: {err}")


def run_clients(address: str, source: JobSource, spans, errors: list
                ) -> None:
    """Run :data:`CLIENTS` closed-loop clients until ``source`` stops."""
    clients = [threading.Thread(target=_client_loop,
                                args=(address, source, spans, errors))
               for _ in range(CLIENTS)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()


def _warm_up_server(address: str, spec: ServiceSpec) -> dict:
    """One untimed job per monitor, so the server's lazy imports are
    done before the clock starts; returns the metrics snapshot after."""
    from repro.service.client import Client

    with Client(address, tenant="warm-up", timeout=120.0) as client:
        for extension, ratio in spec.monitors:
            job = {"workload": "bitcount", "scale": WARM_UP_SCALE,
                   "clock_ratio": ratio}
            if extension is not None:
                job["extension"] = extension
            ack = client.submit("run", job)
            for _event in client.tail(ack["job_id"]):
                pass
        return client.metrics()["metrics"]


def _metrics_since(address: str, earlier: dict) -> dict:
    """Counter and histogram totals the server accrued after
    ``earlier`` (a ``metrics`` snapshot)."""
    from repro.service.client import Client

    with Client(address) as client:
        snapshot = client.metrics()["metrics"]
    delta = {}
    for name, value in snapshot.items():
        before = earlier.get(name)
        if isinstance(value, dict):
            before = before or {"total": 0.0, "count": 0}
            delta[name] = {"total": value["total"] - before["total"],
                           "count": value["count"] - before["count"]}
        else:
            delta[name] = value - (before or 0)
    return delta


def check_jobs(result: Result, jobs: list[Job], expected: dict) -> None:
    """Count ``jobs`` as attempted and fail the ones that did not end
    ``done``, were deduplicated, or returned a differing document."""
    for index, job in enumerate(jobs):
        result.attempted += 1
        if job.state != "done":
            result.fail(f"job {index} {job.spec}: {job.state}")
            job.document = None
            continue
        if job.deduplicated:
            result.fail(f"job {index}: deduplicated")
        point = job.document["point"]
        key = point_key(point["workload"], point["extension"],
                        point["clock_ratio"], point["scale"])
        check_point(result, key, job.document, expected)


def reference_jobs(result: Result, spec: ServiceSpec, jobs: list[Job]
                   ) -> None:
    """The run's digest and ``sim.*`` counts over the first round."""
    reference = jobs[:len(spec.round())]
    if all(job.document is not None for job in reference):
        result.counts.update(sim_counts(job.document for job in reference))
        result.result_digest = digest_lines(
            f"{index} {job.document['digest']}"
            for index, job in enumerate(reference))


def run_service(spec: ServiceSpec, seed: int, seconds: float,
                expected: dict, clock: HostClock) -> Result:
    """Closed loop of :data:`CLIENTS` clients against ``repro serve``
    on the clock's CPU, until ``seconds`` have passed and at least
    ``spec.jobs`` jobs were submitted.

    Each client owns one connection and submits its next job only
    after the previous one's ``tail`` end event; latency runs from the
    submit call to that event.  A job that fails, is refused or does
    not finish counts at the whole run's length.
    """
    result = Result()
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="service-",
                                     dir=OUT) as scratch:
        with ServerProcess(scratch, clock.cpu) as server:
            _warm_up_server(server.address, spec)
            start = time.perf_counter()
            deadline = start + seconds
            source = JobSource(
                job_specs(spec, seed),
                lambda taken: (taken < spec.jobs
                               or time.perf_counter() < deadline),
                f"bench-{seed}")
            run_clients(server.address, source, None, errors)
            result.metrics["peak_rss_mb"] = server.peak_rss_mb()
    result.errors.extend(errors)
    jobs = source.jobs
    check_jobs(result, jobs, expected)
    reference_jobs(result, spec, jobs)
    last = max((job.ended for job in jobs), default=start)
    ops = [Op(job.began, job.ended, job.document["instructions"])
           if job.document is not None else Op(start, last)
           for job in jobs]
    if ops:
        for timer, target in both_clocks(clock):
            getattr(result, target).update(
                stream_metrics(ops, [(start, last)], timer))
    result.wall_latencies = [op.ended - op.began for op in ops]
    return result


def trace_service(spec: ServiceSpec, seed: int, seconds: float,
                  expected: dict, clock: HostClock,
                  tracer: tracing.Tracer) -> Result:
    """Rounds of jobs, each sent by the closed-loop clients to two
    servers in turn -- one bare, one sampling itself
    (``serve_sampled.py``) -- until ``seconds`` have passed and one
    round is done."""
    result = Result()
    errors: list[str] = []
    jobs: dict = {False: [], True: []}
    spent: dict = {False: [], True: []}
    specs = job_specs(spec, seed)
    size = len(spec.round())
    with tempfile.TemporaryDirectory(prefix="service-",
                                     dir=OUT) as scratch:
        samples_path = os.path.join(scratch, "samples.json")
        with ServerProcess(os.path.join(scratch, "bare"),
                           clock.cpu) as bare, \
                ServerProcess(os.path.join(scratch, "traced"), clock.cpu,
                              samples_path) as sampled:
            servers = {False: bare, True: sampled}
            _warm_up_server(bare.address, spec)
            warmed = _warm_up_server(sampled.address, spec)
            start = time.perf_counter()
            for index in itertools.count():
                if index and time.perf_counter() - start >= seconds:
                    break
                batch = [next(specs) for _ in range(size)]
                for traced in alternate(index, True):
                    source = JobSource(batch, lambda taken: taken < size,
                                       f"bench-{seed}-{index}")
                    began = time.perf_counter()
                    run_clients(servers[traced].address, source,
                                tracer.spans if traced else None, errors)
                    spent[traced].append((began, time.perf_counter()))
                    jobs[traced].extend(source.jobs)
            snapshot = _metrics_since(sampled.address, warmed)
        with open(samples_path) as handle:
            result.samples = json.load(handle)
    result.errors.extend(errors)
    for mode in (False, True):
        check_jobs(result, jobs[mode], expected)
    for index, (plain, traced) in enumerate(zip(jobs[False], jobs[True])):
        if plain.document != traced.document:
            result.fail(f"job {index}: traced document differs from bare")
    reference_jobs(result, spec, jobs[False])
    traced_jobs = jobs[True]
    for job in traced_jobs:
        result.by_extension[job.spec.get("extension", "none")] += (
            clock.seconds(job.began, job.ended))
    latency_total = sum(job.ended - job.began for job in traced_jobs)

    def histogram(name: str) -> dict:
        return snapshot.get(name) or {"total": 0.0, "count": 0}

    served = histogram("service.submit_to_result_seconds")["total"] or 1.0
    fsync = histogram("service.journal.fsync_seconds")
    result.counts.update({
        "trace_overhead": paired_overhead(spent, clock),
        "ops.completed": len(traced_jobs),
        "service.submit_ack_share": (
            sum(job.ack for job in traced_jobs) / latency_total),
        "service.queue_wait_share": (
            histogram("service.queue.wait_seconds")["total"] / served),
        "service.lease_share": (
            histogram("service.fleet.lease_seconds")["total"] / served),
        "service.fsync_share": fsync["total"] / served,
        "service.fsyncs_per_job": fsync["count"] / max(1, len(traced_jobs)),
        "service.rejected": snapshot.get("service.jobs.rejected", 0),
        "service.deduplicated": snapshot.get(
            "service.jobs.deduplicated", 0),
    })
    return result


# -- entry point -------------------------------------------------------------

#: the benchmark's own operation spans (the roots of span accounting).
OP_SPANS = ("point", "fault_run", "job")
UNTRACED = {SweepSpec: run_sweep, CampaignSpec: run_campaign,
            ServiceSpec: run_service}
TRACED = {SweepSpec: run_sweep, CampaignSpec: run_campaign,
          ServiceSpec: trace_service}


def layer_metrics(result: Result, tracer: tracing.Tracer) -> dict:
    """The per-layer metrics of one traced run."""
    counts = (result.samples if result.samples is not None
              else dict(tracer.sampler.counts))
    metrics = {f"host.{layer}_share": share for layer, share
               in tracing.layer_shares(counts).items()}
    metrics["host.samples"] = sum(counts.values())
    spans = tracer.spans
    self_times = spans.self_times(OP_SPANS)
    op_time = sum(span.end - span.start for name in OP_SPANS
                  for span in spans.named(name)) or 1.0
    for name in SPAN_NAMES:
        metrics[f"span.{name}_share"] = self_times.get(name, 0.0) / op_time
    ext_total = sum(result.by_extension.values()) or 1.0
    for key in EXTENSION_KEYS:
        metrics[f"ext.{key}_share"] = (result.by_extension[key]
                                       / ext_total)
    for name in PER_LAYER:
        if name not in metrics:
            metrics[name] = result.counts.get(name, 0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 expected: dict, spec=None,
                 setup_repeats: int = SETUP_REPEATS) -> Result:
    """Run one workload; untraced runs fill :data:`END_TO_END`, traced
    runs :data:`PER_LAYER` and write ``out/<name>.trace.json``.

    The simulation -- this process, or the service's server -- runs on
    the lowest CPU this process may use, beside the probe of its
    :class:`HostClock`: the start-up loop while cold starts are timed,
    the dispatch loop while the workload runs.  The service's clients
    run on the highest, as a 2-CPU host places a server and its clients
    when nothing is pinned.
    """
    spec = spec if spec is not None else WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    own_cpu = cpus[-1] if isinstance(spec, ServiceSpec) else cpus[0]
    with pinned(own_cpu):
        if not trace:
            with HostClock(cpus[0], OUT, STARTUP) as startup:
                setup = measure_setup(name, spec, setup_repeats, cpus[0])
        with HostClock(cpus[0], OUT, DISPATCH) as clock:
            if trace:
                tracer = tracing.Tracer()
                result = TRACED[type(spec)](spec, seed, seconds, expected,
                                            clock, tracer)
            else:
                result = UNTRACED[type(spec)](spec, seed, seconds,
                                              expected, clock)
    result.host_factor = clock.factor
    if not trace:
        for timer, target in both_clocks(startup):
            getattr(result, target)["setup_s"] = statistics.median(
                timer.seconds(a, b) for a, b in setup)
        return result
    result.metrics.update(layer_metrics(result, tracer))
    trace_doc = tracer.spans.chrome_trace()
    trace_doc["otherData"] = {"workload": name, "seed": seed,
                              "host_samples": result.metrics["host.samples"]}
    with open(os.path.join(OUT, f"{name}.trace.json"), "w") as handle:
        json.dump(trace_doc, handle)
    return result
