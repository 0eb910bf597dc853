"""A clock that runs at a reference host's speed, for steady timings on
a shared host.

On the shared 2-vCPU VM where ``baseline.json`` was measured, a fixed
Python loop took between 0.55x and 2.2x its median time from one
half-second to the next, with plateaus of ten seconds or more.  Its CPU
time tracked its wall time, so the CPU itself ran slower (contention
below the VM), not less often: timing in CPU seconds does not help, and
medians inside a run cannot remove a plateau that covers the run.  So
the benchmark times, beside its own work, a fixed loop on the same CPU
and converts each interval it measures into the seconds the reference
host would have taken.

:class:`HostClock` runs a :class:`Probe` in a child interpreter pinned
to the CPU the timed work runs on.  Every :data:`PERIOD` seconds the
child times the probe's loop in its own thread's CPU time, so sharing
the CPU with the benchmark does not count, only how fast the CPU
executes.  The child is started with ``-I -S`` and imports nothing from
the repository, so a change to the code under test does not change the
loop; it does share the CPU and its caches with that code.

How much a piece of Python slows with the host depends on what it does,
so the loop mixes two kinds of work, in proportions measured against
the work it times (README.md, "The host clock"): :data:`DISPATCH` for
operations, :data:`STARTUP` for cold starts.

:meth:`HostClock.seconds` integrates the loop's speed over an interval:
a second in which the loop ran at half its reference speed counts as
half a reference second.  The reference times only fix the unit; a
comparison of two commits on one host does not depend on them.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

#: the child: samples ``loop()``'s thread CPU time until stdin closes,
#: writing ``<perf_counter midpoint> <CPU seconds>`` per sample.
SAMPLER = r"""
period = float(sys.argv[1])
while True:
    began = time.perf_counter()
    cpu = time.thread_time()
    loop()
    cpu = time.thread_time() - cpu
    print(repr((began + time.perf_counter()) / 2), repr(cpu), flush=True)
    if select.select([sys.stdin], [], [], period)[0]:
        break
"""
#: seconds between samples; one sample costs 3-4 ms of CPU.
PERIOD = 0.1


#: the two kinds of work a probe's loop mixes.
WORK = r"""
class Cell:
    def __init__(self):
        self.value = 0

    def step(self, i):
        self.value = (self.value * 31 + i) & 0xFFFFFFFF
        return self.value

def dispatch(steps):
    # method calls and small-dict updates, like the simulator's dispatch
    table = {}
    cell = Cell()
    counts = [0] * 64
    for i in range(steps):
        table[i & 255] = cell.step(i)
        counts[i & 63] += table.get((i * 7) & 255, 0) & 1

rng = random.Random(1)
records = [{"k": i, "v": [rng.random() for _ in range(4)], "s": str(i)}
           for i in range(3000)]
strings = [str(i) for i in range(300000)]
source = "\n".join(f"def f{i}(a, b):\n    return [a + b * {i}, {{'x': a}}]\n"
                   for i in range(5))

def startup(rounds):
    # compile/exec, JSON, sorting and scattered reads over a 20 MB heap,
    # like interpreter start-up and imports
    total = 0
    for _ in range(rounds):
        json.loads(json.dumps(records[:40]))
        exec(compile(source, "<probe>", "exec"), {})
        for i in range(400):
            total += len(strings[(i * 7919) % 300000])
        sorted(records[:80], key=lambda record: record["v"][1])
"""


@dataclass(frozen=True)
class Probe:
    """A fixed loop over :data:`WORK`, and its median CPU seconds
    during benchmark runs on the host where ``baseline.json`` was
    recorded (2-vCPU VM, Intel Xeon at 2.0 GHz, Python 3.11.7)."""

    loop: str
    reference_seconds: float

    def program(self) -> str:
        return ("import json, random, select, sys, time\n" + WORK
                + f"def loop():\n    {self.loop}\n" + SAMPLER)


#: about a quarter of its time on start-up-like work.
DISPATCH = Probe("dispatch(3750); startup(1)", 0.0030)
#: about half of its time on start-up-like work.
STARTUP = Probe("dispatch(2500); startup(2)", 0.0035)


@contextlib.contextmanager
def pinned(cpu: int):
    """Run the calling thread, and the threads and processes it starts,
    on ``cpu`` for the ``with`` block."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class WallClock:
    """Plain wall-clock seconds, for the unconverted figures."""

    def seconds(self, began: float, ended: float) -> float:
        return ended - began


class Timeline:
    """Reference seconds as a function of ``time.perf_counter()``,
    integrated from probe samples ``(midpoint, CPU seconds)``.

    Each sample's slowness (its CPU time over the probe's reference
    time) is the median of it and its neighbours, so one probe that a page
    fault or interrupt lengthened does not move the clock.  Between two
    samples the slowness is their mean; before the first and after the
    last it is theirs.
    """

    def __init__(self, samples: list[tuple[float, float]],
                 reference_seconds: float):
        if not samples:
            raise RuntimeError("the host-speed probe wrote no samples")
        self.times = [mid for mid, _cpu in samples]
        raw = [cpu / reference_seconds for _mid, cpu in samples]
        self.slowness = [statistics.median(raw[max(0, i - 1):i + 2])
                         for i in range(len(raw))]
        self._elapsed = [0.0]
        for i in range(1, len(self.times)):
            self._elapsed.append(self._elapsed[-1] + (
                (self.times[i] - self.times[i - 1]) / self._between(i - 1)))

    def _between(self, i: int) -> float:
        return (self.slowness[i] + self.slowness[i + 1]) / 2

    def at(self, moment: float) -> float:
        """Reference seconds from the first sample to ``moment``."""
        times, slowness = self.times, self.slowness
        i = bisect.bisect_right(times, moment) - 1
        if i < 0:
            return (moment - times[0]) / slowness[0]
        if i == len(times) - 1:
            return self._elapsed[i] + (moment - times[i]) / slowness[i]
        return self._elapsed[i] + (moment - times[i]) / self._between(i)


class HostClock:
    """Reference-host seconds, from ``probe`` running pinned to ``cpu``.

    Use it as a ``with`` block around the timed work; :meth:`seconds`
    may be called inside the block, once the intervals it converts have
    ended, or after it.
    """

    def __init__(self, cpu: int, directory: str, probe: Probe = DISPATCH):
        self.cpu = cpu
        self.probe = probe
        self._directory = directory
        self._path = ""
        self._child: subprocess.Popen | None = None
        self._loaded_at = float("-inf")
        self._timeline: Timeline | None = None

    def __enter__(self) -> "HostClock":
        handle, self._path = tempfile.mkstemp(prefix="probe-", suffix=".txt",
                                              dir=self._directory)
        with os.fdopen(handle, "w") as output:
            self._child = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", self.probe.program(),
                 str(PERIOD)],
                stdin=subprocess.PIPE, stdout=output)
        os.sched_setaffinity(self._child.pid, {self.cpu})
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        self._child.wait()
        self._load()
        os.remove(self._path)

    def _load(self) -> None:
        """Read the samples written so far."""
        self._loaded_at = time.perf_counter()
        with open(self._path) as handle:
            # the text after the last newline may be a line in writing
            lines = handle.read().split("\n")[:-1]
        self._timeline = Timeline([tuple(map(float, line.split()))
                                   for line in lines],
                                  self.probe.reference_seconds)

    def seconds(self, began: float, ended: float) -> float:
        """Reference-host seconds between two ``time.perf_counter()``
        readings."""
        if ended > self._loaded_at and self._child.poll() is None:
            self._load()
        return self._timeline.at(ended) - self._timeline.at(began)

    @property
    def factor(self) -> float:
        """The run's median slowness (1.2 = 20 % slower than the
        reference host)."""
        return statistics.median(self._timeline.slowness)
