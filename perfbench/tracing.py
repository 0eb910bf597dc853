"""Per-layer attribution for the benchmark's traced runs.

Two instruments, both stdlib-only and both kept in memory until the
run ends, switched on together for one operation at a time by
:class:`Tracer`:

* :class:`Sampler` -- a daemon thread that reads
  ``sys._current_frames()`` every few milliseconds and charges each
  busy thread's sample to the layer of its innermost ``repro`` frame.
  Deterministic profilers (``cProfile``) add a cost to every Python
  call and inflate this call-heavy simulator several-fold; a sampler
  costs one stack walk per tick.
* :class:`Spans` -- wraps the public names the simulator's callers look
  up (``FlexCoreSystem.run_bounded``, ``Campaign.classify``, ...) and
  records one span per call with its parent, so a layer's self time is
  its duration minus its children's.  :meth:`Spans.chrome_trace`
  writes them in Chrome trace-event format.

Neither changes which simulator code runs: the wrappers call straight
through and the sampler only reads frames.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

#: host-time layers, in report order.  Paths are relative to the
#: ``repro`` package; the first matching prefix wins.
LAYER_PREFIXES = (
    ("engine/fastloop.py", "engine"),
    ("engine/predecode.py", "engine"),
    ("core/", "core"),
    ("isa/", "isa"),
    ("memory/", "memory"),
    ("flexcore/system.py", "system"),
    ("flexcore/", "flexcore"),
    ("extensions/", "monitor"),
    ("mdl/", "monitor"),
    ("checkpoint/", "checkpoint"),
    ("faultinject/", "faultinject"),
    ("service/", "service"),
)
LAYERS = ("engine", "core", "isa", "memory", "flexcore", "system",
          "monitor", "checkpoint", "faultinject", "service", "other")

#: stdlib modules whose frames mean "this thread is blocked": a
#: sample whose innermost frame sits in one of them is idle time, not
#: host time of any layer.
_IDLE_SUFFIXES = tuple(
    os.sep + name for name in (
        "selectors.py", "threading.py", "queue.py", "socket.py",
        "subprocess.py", os.path.join("concurrent", "futures",
                                      "thread.py"),
    )
)


def _repro_root() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Sampler:
    """Statistical host-time profiler, charging samples to layers."""

    #: seconds between samples; the interpreter's 5 ms switch interval
    #: caps the real rate near 100-200 per second.
    INTERVAL = 0.005

    def __init__(self):
        self.counts: Counter = Counter()
        self._root = _repro_root()
        self._layer_cache: dict[str, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def layer_of(self, filename: str) -> str:
        layer = self._layer_cache.get(filename)
        if layer is None:
            relative = filename[len(self._root):].replace(os.sep, "/")
            layer = next((name for prefix, name in LAYER_PREFIXES
                          if relative.startswith(prefix)), "other")
            self._layer_cache[filename] = layer
        return layer

    def classify(self, frame) -> str | None:
        """The layer one thread's stack is charged to (None = idle or
        outside the simulator)."""
        if frame.f_code.co_filename.endswith(_IDLE_SUFFIXES):
            return None
        root = self._root
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename.startswith(root):
                return self.layer_of(filename)
            frame = frame.f_back
        return None

    def _loop(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.INTERVAL):
            for ident, frame in sys._current_frames().items():
                if ident == me:
                    continue
                layer = self.classify(frame)
                if layer is not None:
                    self.counts[layer] += 1

    def start(self) -> "Sampler":
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-sampler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None


def layer_shares(counts: dict) -> dict[str, float]:
    """Samples per layer as shares of all busy samples (sum to 1)."""
    total = sum(counts.values())
    if not total:
        return {layer: 0.0 for layer in LAYERS}
    return {layer: counts.get(layer, 0) / total for layer in LAYERS}


def run_leg(kwargs: dict) -> str:
    """Name one ``run_bounded`` call by how the caller configured it:
    the campaign's prefix replay, hooked window and hook-free sprint
    legs each have their own argument signature; everything else
    (sweep points, golden and cold faulted runs) is a full run."""
    sprint = kwargs.get("engine") == "superblock"
    hooked = kwargs.get("on_checkpoint") is not None
    if sprint and hooked:
        return "prefix_replay"
    if hooked:
        return "hooked_leg"
    if sprint:
        return "sprint_leg"
    return "full_run"


@dataclass
class Span:
    """One recorded call: times from ``time.perf_counter``."""

    ident: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float | None = None
    args: dict | None = None


class Spans:
    """In-memory span recorder with parent links.

    :meth:`instrument` patches the simulator's public entry points for
    the lifetime of a ``with`` block; :meth:`span` records the
    benchmark's own operations around them.  Each thread keeps its own
    stack of open spans, so concurrent client threads nest correctly.
    """

    def __init__(self):
        self.records: list[Span] = []
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, args: dict | None = None) -> int:
        stack = self._stack()
        with self._lock:
            ident = len(self.records)
            self.records.append(Span(
                ident, stack[-1] if stack else None, name,
                threading.get_ident(), time.perf_counter(), args=args))
        stack.append(ident)
        return ident

    def end(self, ident: int) -> None:
        self._stack().pop()
        self.records[ident].end = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **args):
        ident = self.begin(name, args or None)
        try:
            yield ident
        finally:
            self.end(ident)

    def _wrap(self, function, name_of):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            ident = self.begin(name_of(kwargs))
            try:
                return function(*args, **kwargs)
            finally:
                self.end(ident)

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the simulator's public names for the ``with`` block."""
        from repro.checkpoint.journal import ResultsJournal
        from repro.engine import sweep
        from repro.faultinject.campaign import Campaign
        from repro.flexcore.system import FlexCoreSystem
        from repro.workloads import base

        targets = [
            (FlexCoreSystem, "__init__", lambda kw: "construct"),
            (FlexCoreSystem, "run_bounded", run_leg),
            (FlexCoreSystem, "restore_state", lambda kw: "restore"),
            (base, "assemble", lambda kw: "assemble"),
            (sweep, "run_digest", lambda kw: "digest"),
            (Campaign, "run_one", lambda kw: "fault"),
            (Campaign, "classify", lambda kw: "classify"),
            (ResultsJournal, "append_result", lambda kw: "journal"),
        ]
        saved = []
        try:
            for owner, attr, name_of in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name_of))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def closed(self) -> list[Span]:
        return [span for span in self.records if span.end is not None]

    def self_times(self, roots: tuple[str, ...]) -> Counter:
        """Seconds per span name inside the spans named ``roots``, each
        span minus its children (a root's own self time included)."""
        inside: set[int] = set()
        spans = []
        for span in self.closed():  # parents always precede children
            if span.name in roots or span.parent in inside:
                inside.add(span.ident)
                spans.append(span)
        child_time: Counter = Counter()
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: Counter = Counter()
        for span in spans:
            totals[span.name] += ((span.end - span.start)
                                  - child_time[span.ident])
        return totals

    def named(self, name: str) -> list[Span]:
        return [span for span in self.closed() if span.name == name]

    def child_names(self, ident: int) -> set[str]:
        """Names of every closed span below ``ident``, transitively."""
        below = {ident}
        names = set()
        for span in self.closed():  # parents always precede children
            if span.parent in below:
                below.add(span.ident)
                names.add(span.name)
        return names

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace events (``ph: "X"``, microseconds
        from the recorder's creation, one track per thread)."""
        tracks: dict[int, int] = {}
        events = []
        for span in self.closed():
            events.append({
                "name": span.name, "ph": "X", "pid": os.getpid(),
                "tid": tracks.setdefault(span.thread, len(tracks)),
                "ts": round((span.start - self._origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "args": {"id": span.ident, "parent": span.parent,
                         **(span.args or {})},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Tracer:
    """A sampler and a span recorder, on only inside :meth:`active`.

    The benchmark's traced runs repeat each operation with and without
    tracing, so the sampler thread and the span wrappers must be off
    while the bare repeat runs.
    """

    def __init__(self):
        self.sampler = Sampler()
        self.spans = Spans()

    @contextlib.contextmanager
    def active(self, name: str, **args):
        """Trace one benchmark operation, recorded as span ``name``."""
        self.sampler.start()
        try:
            with self.spans.instrument(), self.spans.span(name, **args):
                yield
        finally:
            self.sampler.stop()
