"""Top-level FlexCore system: core + interface + fabric extension.

:class:`FlexCoreSystem` assembles the whole prototype of Section IV:
the Leon3-like core with its L1 caches, the shared bus to SDRAM, and
(optionally) one monitoring extension behind the core-fabric
interface.  ``clock_ratio=1.0`` models the full-ASIC comparison point
of Table IV (the extension keeps up with the core clock);
``clock_ratio=0.5 / 0.25`` model the synthesised fabric frequencies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.executor import CpuState, SimulationError
from typing import TYPE_CHECKING

from repro.core.timing import CoreTiming, CoreTimingConfig, CoreTimingStats
from repro.flexcore.fifo import FifoStats
from repro.flexcore.interface import (
    CoreFabricInterface,
    InterfaceConfig,
    InterfaceStats,
)
from repro.isa.assembler import Program
from repro.memory.backing import SparseMemory
from repro.memory.bus import BusStats, SharedBus
from repro.memory.cache import CacheStats
from repro.telemetry.summary import publish_metrics

if TYPE_CHECKING:
    from repro.extensions.base import MonitorExtension, MonitorTrap
    from repro.telemetry import Telemetry

DEFAULT_STACK_TOP = 0x7FFFF0
DEFAULT_MAX_INSTRUCTIONS = 50_000_000

#: Default cost, in core cycles, of one monitor-triggered rollback:
#: flush the pipeline and FIFO, reload the architectural state from
#: the last on-chip checkpoint.  This extends the paper's exception
#: model (Section III-C) from terminate-on-TRAP to recover-on-TRAP.
DEFAULT_RECOVERY_LATENCY = 128

#: Give up after this many rollbacks of one run: a persistent fault
#: (e.g. a configuration upset captured *inside* the checkpoint)
#: re-traps forever, and recovery must degrade into detection.
DEFAULT_RECOVERY_LIMIT = 3

#: Valid execution engines.  ``fast`` predecodes each PC into a fused
#: handler closure (see :mod:`repro.engine`); ``reference`` is the
#: original step/advance/on_commit path.  ``superblock`` names an
#: engine that has since been folded into ``fast`` and is accepted as
#: an alias of it, so old flags, configs and journals stay valid.
#: Results are bit-identical — the differential and golden tests
#: enforce it — and the fast engine silently falls back to the
#: reference path whenever record hooks or a tracer need to observe
#: every commit record.  Metrics alone keep the fast engine: they are
#: published from the run's stats when it ends.
ENGINES = ("fast", "superblock", "reference")


class Termination(str, enum.Enum):
    """Why a (bounded) run ended."""

    HALTED = "halted"  # the program executed `ta 0`
    TRAP = "trap"  # the monitoring extension raised TRAP
    INSTRUCTION_LIMIT = "instruction-limit"  # watchdog: instret budget
    CYCLE_LIMIT = "cycle-limit"  # watchdog: cycle budget
    DEADLINE = "deadline"  # watchdog: wall-clock timeout
    ERROR = "error"  # the simulated program crashed

    def __str__(self) -> str:  # report-friendly ("halted", not enum repr)
        return self.value


#: Termination reasons the fault-injection watchdog treats as a hang.
WATCHDOG_TERMINATIONS = frozenset(
    {Termination.INSTRUCTION_LIMIT, Termination.CYCLE_LIMIT,
     Termination.DEADLINE}
)


@dataclass
class RunResult:
    """Everything a run produces."""

    cycles: int
    instructions: int
    halted: bool
    trap: MonitorTrap | None
    core_stats: CoreTimingStats
    interface_stats: InterfaceStats | None
    memory: SparseMemory
    program: Program
    #: why the run ended (always set; ``HALTED`` for a clean exit).
    termination: Termination = Termination.HALTED
    #: the structured crash, when ``termination`` is ``ERROR`` or
    #: ``INSTRUCTION_LIMIT`` (bounded runs never raise).
    error: SimulationError | None = None
    #: monitor-triggered rollbacks performed (``--recover`` mode).
    recoveries: int = 0
    #: total cycles spent detecting, rolling back and re-executing.
    recovery_cycles: int = 0
    #: decoupling-FIFO accounting (peak occupancy, full-stall cycles,
    #: drops); ``None`` when no monitoring extension is attached.
    fifo_stats: FifoStats | None = None
    #: configured forward-FIFO depth, for high-water-vs-depth reports.
    fifo_depth: int | None = None
    #: hit/miss accounting per cache ("icache", "dcache", "mcache").
    cache_stats: dict[str, CacheStats] = field(default_factory=dict)
    #: shared-bus accounting per requester.
    bus_stats: BusStats | None = None
    #: which engine actually ran ("fast" or "reference").  Deliberately
    #: excluded from the result fingerprint/digest: digests must be
    #: engine-independent, that is the whole observational contract.
    engine: str = "reference"

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def word(self, symbol: str, offset: int = 0) -> int:
        """Read a result word from memory by data-symbol name."""
        return self.memory.read_word(self.program.symbol(symbol) + offset)


@dataclass
class SystemConfig:
    """Configuration for one simulated system.

    Parameters are validated at construction so a bad value fails
    with a clear ``ValueError`` instead of a downstream mystery.
    """

    core: CoreTimingConfig = field(default_factory=CoreTimingConfig)
    interface: InterfaceConfig = field(default_factory=InterfaceConfig)
    nwindows: int = 8
    stack_top: int = DEFAULT_STACK_TOP
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    #: stop the simulation when the extension raises TRAP (the paper's
    #: extensions terminate the program); if False, record and continue.
    stop_on_trap: bool = True
    #: execution engine: "fast" (predecoded handler closures) or
    #: "reference" (original step path); "superblock" is an alias of
    #: "fast".  Bit-identical results any way.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.nwindows < 2:
            raise ValueError(
                f"nwindows must be >= 2, got {self.nwindows}"
            )
        if self.stack_top <= 0 or self.stack_top & 3:
            raise ValueError(
                f"stack_top must be positive and word-aligned, "
                f"got {self.stack_top:#x}"
            )
        if self.max_instructions <= 0:
            raise ValueError(
                f"max_instructions must be positive, "
                f"got {self.max_instructions}"
            )


class FlexCoreSystem:
    """One assembled program running on one system configuration."""

    def __init__(
        self,
        program: Program,
        extension: MonitorExtension | None = None,
        config: SystemConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.program = program
        self.config = config or SystemConfig()
        #: observability bundle; ``None`` (the default) is the
        #: zero-overhead path — no component emits anything, and the
        #: timing result is bit-identical either way (telemetry only
        #: ever observes).
        self.telemetry = telemetry
        self.memory = SparseMemory()
        self.memory.load_program(program)
        self.bus = SharedBus(self.config.core.bus)
        if telemetry is not None:
            self.bus.attach_telemetry(telemetry)
        self.cpu = CpuState(
            self.memory,
            entry=program.entry,
            nwindows=self.config.nwindows,
            stack_top=self.config.stack_top,
        )
        self.core_timing = CoreTiming(self.config.core, self.bus,
                                      telemetry=telemetry)
        self.extension = extension
        self.interface: CoreFabricInterface | None = None
        if extension is not None:
            extension.attach(self.cpu.regs.num_physical)
            extension.on_program_load(program, self.config.stack_top)
            if telemetry is not None and telemetry.metrics.enabled:
                extension.metrics = telemetry.metrics
            self.interface = CoreFabricInterface(
                extension, self.bus, self.config.interface,
                telemetry=telemetry,
            )
            self.cpu.coprocessor_read = self.interface.read_status
        #: hooks applied to every commit record before forwarding —
        #: used for fault injection in the SEC example/tests.
        self.record_hooks: list = []
        #: callables ``wrap(instr, handler) -> handler`` the fast
        #: engine applies to each PC's handler once, when it builds it
        #: (the campaign's golden-run profile counters).  Not state,
        #: like ``record_hooks``; unlike them they keep the fast
        #: engine, and the reference engine does not apply them.
        self.handler_wraps: list = []
        #: simulation time (core cycles, fractional while the fabric
        #: clock divides them).  Promoted to system state so snapshots
        #: can freeze and resume a run mid-flight.
        self.now: float = 0.0
        # Pristine program image, built lazily for memory-delta
        # snapshots (shared baseline for every checkpoint of this run).
        self._baseline_memory_cache: SparseMemory | None = None

    # ------------------------------------------------------------------
    # Snapshot/restore (crash-safe checkpointing).

    def _baseline_memory(self) -> SparseMemory:
        if self._baseline_memory_cache is None:
            baseline = SparseMemory()
            baseline.load_program(self.program)
            self._baseline_memory_cache = baseline
        return self._baseline_memory_cache

    def snapshot_state(self) -> dict:
        """Capture the *complete* system state as plain data.

        Covers architectural state (PC/nPC, windowed registers, icc),
        pipeline timing state, both L1s and the meta-data cache,
        backing memory (as a sparse delta against the program image),
        the decoupling FIFO, the CFGR, and the attached monitor's
        meta-data.  ``restore_state`` of this dict is bit-exact: a run
        restored at cycle N and run to completion produces a
        :class:`RunResult` identical to the uninterrupted run.

        ``record_hooks`` are deliberately *not* state: they model
        external stimuli (fault injectors, profilers), not machine
        state, so a transient fault does not re-fire after a rollback.
        """
        return {
            "now": self.now,
            "cpu": self.cpu.snapshot_state(),
            "memory": self.memory.snapshot_state(self._baseline_memory()),
            "bus": self.bus.snapshot_state(),
            "core_timing": self.core_timing.snapshot_state(),
            "interface": (
                self.interface.snapshot_state()
                if self.interface is not None else None
            ),
            "extension": (
                self.extension.snapshot_state()
                if self.extension is not None else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot in place (objects are mutated, never
        replaced, so aliases held by callers stay valid).  The same
        snapshot may be restored repeatedly (rollback retries)."""
        self.now = state["now"]
        self.cpu.restore_state(state["cpu"])
        self.memory.restore_state(state["memory"], self._baseline_memory())
        self.bus.restore_state(state["bus"])
        self.core_timing.restore_state(state["core_timing"])
        if self.interface is not None:
            if state["interface"] is None:
                raise ValueError(
                    "snapshot was taken without a monitoring extension"
                )
            self.interface.restore_state(state["interface"])
            self.extension.restore_state(state["extension"])
        elif state["interface"] is not None:
            raise ValueError(
                "snapshot was taken with a monitoring extension attached"
            )

    def run(
        self,
        max_instructions: int | None = None,
        checkpoint_every: int | None = None,
        recover: bool = False,
        engine: str | None = None,
    ) -> RunResult:
        """Run to completion (ta 0), trap, or the instruction limit.

        Raises :class:`SimulationError` on a crash or when the
        instruction limit trips; :meth:`run_bounded` is the
        non-raising variant.
        """
        result = self.run_bounded(
            max_instructions=max_instructions,
            checkpoint_every=checkpoint_every,
            recover=recover,
            engine=engine,
        )
        if result.error is not None:
            raise result.error
        return result

    def _fast_loop_supported(self) -> bool:
        """Whether the fast engine can run without losing observers.

        Record hooks must see every :class:`CommitRecord`, and a
        tracer records events the fused closures skip, so either
        forces the reference engine.  Metrics do not: they are
        published from the stats when the run ends.  Nor do
        ``handler_wraps``: they are not record hooks but wrap each
        fused handler when it is built, and only the fast engine
        applies them.  The *results* are bit-identical regardless —
        this only preserves the observers' view.
        """
        return not self.record_hooks and (
            self.telemetry is None or self.telemetry.tracer is None
        )

    #: check the wall-clock deadline every this many instructions.
    DEADLINE_STRIDE = 4096

    def run_bounded(
        self,
        max_instructions: int | None = None,
        max_cycles: int | None = None,
        deadline: float | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        recover: bool = False,
        recovery_limit: int = DEFAULT_RECOVERY_LIMIT,
        recovery_latency: int = DEFAULT_RECOVERY_LATENCY,
        engine: str | None = None,
    ) -> RunResult:
        """Run under a watchdog; never raise for in-simulation faults.

        The result's ``termination`` records why the run ended:
        ``HALTED``/``TRAP`` for clean exits, ``INSTRUCTION_LIMIT`` /
        ``CYCLE_LIMIT`` / ``DEADLINE`` when a watchdog budget trips
        (the fault-injection campaign classifies these as hangs), and
        ``ERROR`` with the structured :class:`SimulationError` when
        the simulated program crashes.  ``deadline`` is an absolute
        ``time.monotonic()`` timestamp, checked periodically.

        ``checkpoint_every=N`` captures a full system snapshot every N
        committed instructions; each one is handed to ``on_checkpoint
        (system, state)`` if given, which may return the absolute
        instret of the next snapshot (``None`` keeps the N stride).
        With ``recover=True``, a monitor TRAP no longer terminates the
        run: the system rolls back to the last checkpoint (or the
        run's initial state), charges the wasted cycles plus
        ``recovery_latency``, and re-executes — the paper's exception
        model extended to recovery.  After ``recovery_limit``
        rollbacks the trap is delivered normally.

        The run resumes from ``self.now`` (zero for a fresh system, a
        restored timestamp after ``restore_state``), so a snapshot
        restored at cycle N continues bit-exactly.

        ``engine`` overrides the config's engine for this run
        (``"superblock"`` runs, and reports, as ``"fast"``); the fast
        engine transparently falls back to the reference path when
        hooks or a tracer need every commit record (see
        :meth:`_fast_loop_supported`).  Both share one run loop,
        :func:`repro.engine.fastloop.run_loop`.  With live metrics,
        the finished result's stats are published once, as gauges
        (:func:`~repro.telemetry.summary.publish_metrics`).
        """
        if engine is None:
            engine = self.config.engine
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if engine == "superblock":
            engine = "fast"
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        limit = max_instructions or self.config.max_instructions
        cpu = self.cpu
        core_timing = self.core_timing
        interface = self.interface

        from repro.engine.fastloop import ReferenceTable, run_loop
        from repro.engine.predecode import HandlerTable

        if engine == "fast" and self._fast_loop_supported():
            table_class = HandlerTable
        else:
            engine, table_class = "reference", ReferenceTable
        (now, trap, termination, error, recoveries,
         recovery_cycles) = run_loop(
            self, table_class, limit, max_cycles, deadline,
            checkpoint_every, on_checkpoint, recover, recovery_limit,
            recovery_latency,
        )

        # Wait for the co-processor to drain (the EMPTY signal) and
        # the store buffer to flush before declaring the run over.
        if interface is not None:
            if trap is None and interface.pending_trap is not None:
                trap = interface.pending_trap
                if termination == Termination.HALTED:
                    termination = Termination.TRAP
            now = max(now, interface.drain_time())
        now = max(now, core_timing.store_buffer.drain_time())
        self.now = now

        cache_stats = {
            "icache": core_timing.icache.stats,
            "dcache": core_timing.dcache.stats,
        }
        if interface is not None:
            cache_stats["mcache"] = interface.meta_cache.stats

        result = RunResult(
            cycles=int(now),
            instructions=cpu.instret,
            halted=cpu.halted,
            trap=trap,
            core_stats=core_timing.stats,
            interface_stats=interface.stats if interface else None,
            memory=self.memory,
            program=self.program,
            termination=termination,
            error=error,
            recoveries=recoveries,
            recovery_cycles=int(recovery_cycles),
            fifo_stats=interface.fifo.stats if interface else None,
            fifo_depth=(self.config.interface.fifo_depth
                        if interface else None),
            cache_stats=cache_stats,
            bus_stats=self.bus.stats,
            engine=engine,
        )
        if self.telemetry is not None and self.telemetry.metrics.enabled:
            publish_metrics(result, self.telemetry.metrics)
        return result


def run_program(
    program: Program,
    extension: MonitorExtension | None = None,
    clock_ratio: float = 0.5,
    fifo_depth: int = 64,
    config: SystemConfig | None = None,
    max_instructions: int | None = None,
    checkpoint_every: int | None = None,
    recover: bool = False,
    telemetry: Telemetry | None = None,
    engine: str | None = None,
) -> RunResult:
    """Convenience entry point: build a system and run it.

    This is the main public API used by the examples and benchmarks::

        result = run_program(program)                         # baseline
        result = run_program(program, create_extension("dift"))
        result = run_program(program, SoftErrorCheck(), clock_ratio=0.25)

    ``engine`` selects the execution engine ("fast"/"reference"); the
    default is the config's engine (``fast`` unless overridden).
    """
    if config is None:
        config = SystemConfig()
        config.interface.clock_ratio = clock_ratio
        config.interface.fifo_depth = fifo_depth
    system = FlexCoreSystem(program, extension, config,
                            telemetry=telemetry)
    return system.run(
        max_instructions,
        checkpoint_every=checkpoint_every,
        recover=recover,
        engine=engine,
    )
