"""Deterministic fault-injection campaigns over FlexCore systems.

A :class:`Campaign` measures a monitor's detection coverage the way
simulation-based fault injection tools (DAVOS SBFI, MEFISTO) do:

1. run the workload once fault-free (the *golden run*), profiling the
   dynamic stream and recording the output signature;
2. for each of N faults, derive an independent per-run rng from
   ``(seed, run index)``, draw a fault model and a concrete
   :class:`~repro.faultinject.models.FaultSpec`, arm it in a fresh
   system, and execute under a watchdog (instruction budget, cycle
   budget and a wall-clock deadline) so hangs and crashes become
   *results* instead of killing the campaign;
3. classify each run — MASKED, DETECTED (monitor trap), SDC (silent
   data corruption: clean exit, wrong output), CRASH, or HANG — and
   aggregate everything into a :class:`~repro.faultinject.report.
   CoverageReport`.

Runs are independent, so the campaign optionally fans out over a
``multiprocessing`` pool; results are identical (and bit-reproducible
for a given seed) regardless of ``jobs``.

Infrastructure failures are kept strictly apart from simulated
failures: a *simulated* crash or hang is a result (that is the whole
point of the campaign), while a *worker-process* death or deadline
overrun is retried by the supervised pool
(:mod:`repro.engine.supervisor`) and, if it keeps recurring for the
same index, quarantined as an :attr:`Outcome.INFRA_FAILED` result
carrying the fault spec and seed so it can be reproduced and re-run
later.  Quarantined indices are reported — never silently dropped —
are excluded from the detection-coverage denominator, and a
``--resume`` re-runs them ("resume heals quarantine").
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import math
import random
import signal
import time
from dataclasses import dataclass, replace

from repro.checkpoint import (
    GoldenCache,
    JournalMismatchError,
    ResultsJournal,
    pack_state,
    program_digest,
    state_digest,
    unpack_state,
)
from repro.core.executor import SimulationError
from repro.engine.pool import PoolPolicy, PoolStats
from repro.extensions import create_extension
from repro.faultinject.models import (
    MAX_PROFILE_ADDRESSES,
    MODEL_CLASSES,
    FaultModel,
    FaultSpec,
    GoldenProfile,
    ProfileMark,
    create_model,
)
from repro.flexcore.interface import InterfaceConfig
from repro.flexcore.system import (
    WATCHDOG_TERMINATIONS,
    FlexCoreSystem,
    RunResult,
    SystemConfig,
    Termination,
)
from repro.isa.assembler import Program, assemble
from repro.isa.opcodes import (
    ALU_CLASSES,
    LOAD_CLASSES,
    NUM_INSTR_CLASSES,
    STORE_CLASSES,
)
from repro.telemetry.profiler import PhaseProfiler
from repro.util.rng import derive_rng
from repro.workloads import build_workload


#: landmark cadence: one :class:`ProfileMark` every this many
#: committed instructions of the golden run ...
MARK_STRIDE = 256
#: ... until the landmark list would exceed twice this cap, at which
#: point every other landmark is dropped and the stride doubles (so
#: the list length stays below ``2 * MAX_PROFILE_MARKS`` however long
#: the run is, while late faults keep nearby fork points).
MAX_PROFILE_MARKS = 64
#: a 32-bit effective address's word: ``& MASK32 & ~3`` in one mask.
_WORD_ADDRESS = 0xFFFFFFFC


class CampaignError(Exception):
    """The campaign itself (not a faulted run) is broken — e.g. the
    golden run crashes or no fault model applies."""


class CampaignInterrupted(Exception):
    """The campaign was stopped early (SIGINT/SIGTERM) after
    terminating its workers cleanly.  Carries everything needed to
    render a partial report and point at the resume path."""

    def __init__(self, config: "CampaignConfig", profile,
                 results: tuple["FaultResult", ...],
                 journal_path=None, infra: dict | None = None):
        self.config = config
        self.profile = profile
        self.results = results
        self.journal_path = journal_path
        self.infra = infra
        super().__init__(
            f"campaign interrupted after {len(results)}/"
            f"{config.faults} runs"
        )

    def partial_report(self):
        from repro.faultinject.report import CoverageReport
        return CoverageReport.build(self.config, self.profile,
                                    self.results, infra=self.infra)


class _Rejoined(Exception):
    """Raised from a sprint leg's checkpoint callback to stop a run
    whose state has rejoined the golden run (never escapes
    :meth:`Campaign._run_warm`)."""


class RejoinedRun(RunResult):
    """A faulted run whose outcome provably is the golden run's, so its
    outcome fields (termination, trap, instructions, cycles, output)
    are the golden run's final ones.  Either it stopped where its
    whole state equalled the golden run's at a landmark, and its stats
    and memory are the stopped system's as they stood there; or its
    fault was :meth:`~repro.faultinject.models.FaultModel.inert`, it
    was never simulated, and its stats and memory are ``None``."""


class Outcome(str, enum.Enum):
    """DAVOS-style failure-mode dictionary for one faulted run."""

    MASKED = "masked"  # clean exit, output matches the golden run
    DETECTED = "detected"  # the monitoring extension raised TRAP
    RECOVERED = "recovered"  # detected, rolled back, clean re-execution
    SDC = "sdc"  # clean exit, silently corrupted output
    CRASH = "crash"  # the simulated program crashed
    HANG = "hang"  # a watchdog budget tripped
    #: the *infrastructure* failed, not the simulation: the run's
    #: worker process died or overran its deadline repeatedly and the
    #: index was quarantined.  Reported but excluded from coverage;
    #: ``--resume`` re-runs these indices.
    INFRA_FAILED = "infra_failed"

    def __str__(self) -> str:
        return self.value


#: report order (fixed, so reports are stable).
OUTCOME_ORDER = (Outcome.DETECTED, Outcome.RECOVERED, Outcome.MASKED,
                 Outcome.SDC, Outcome.CRASH, Outcome.HANG,
                 Outcome.INFRA_FAILED)


@dataclass(frozen=True)
class FaultResult:
    """Classification of one faulted run (picklable, JSON-able)."""

    index: int
    spec: FaultSpec
    outcome: Outcome
    termination: str
    trap: str | None
    detail: str  # crash diagnosis / watchdog note, "" otherwise
    instructions: int
    cycles: int
    recoveries: int = 0
    recovery_cycles: int = 0

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "fault": self.spec.as_dict(),
            "outcome": self.outcome.value,
            "termination": self.termination,
            "trap": self.trap,
            "detail": self.detail,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "recoveries": self.recoveries,
            "recovery_cycles": self.recovery_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultResult":
        """Inverse of :meth:`as_dict` — exact, so a journal replay
        reconstructs bit-identical results."""
        fault = dict(data["fault"])
        model = fault.pop("model")
        return cls(
            index=data["index"],
            spec=FaultSpec.make(model, **fault),
            outcome=Outcome(data["outcome"]),
            termination=data["termination"],
            trap=data["trap"],
            detail=data["detail"],
            instructions=data["instructions"],
            cycles=data["cycles"],
            recoveries=data.get("recoveries", 0),
            recovery_cycles=data.get("recovery_cycles", 0),
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a campaign bit-for-bit."""

    extension: str
    #: exactly one of ``workload`` (a registered kernel name) or
    #: ``source`` (raw assembly text) selects the program.
    workload: str | None = None
    source: str | None = None
    entry: str = "start"
    scale: float = 0.125
    faults: int = 100
    seed: int = 1
    #: fault-model names to draw from; ``None`` = every model that
    #: applies to this extension/workload pair.
    models: tuple[str, ...] | None = None
    clock_ratio: float = 0.5
    fifo_depth: int = 64
    #: watchdog: a faulted run may use at most ``hang_multiplier`` x
    #: the golden run's instructions/cycles plus ``hang_slack`` before
    #: it is declared hung.
    hang_multiplier: float = 4.0
    hang_slack: int = 10_000
    #: wall-clock backstop per faulted run, seconds (``None`` = off);
    #: only fires if the *simulator* wedges, so results stay
    #: deterministic in practice.
    wallclock_limit: float | None = 60.0
    #: worker processes (1 = in-process serial).
    jobs: int = 1
    #: instruction budget for the golden run (None = system default).
    max_instructions: int | None = None
    #: periodic checkpoint interval (committed instructions) for the
    #: faulted runs; required for ``recover``.
    checkpoint_every: int | None = None
    #: roll back to the last checkpoint on a monitor TRAP instead of
    #: terminating — measures recovery instead of mere detection.
    recover: bool = False
    #: directory for the golden-run profile cache (None = no cache).
    cache_dir: str | None = None
    #: fork each faulted run from the golden run's state at the last
    #: landmark before its trigger instead of re-simulating the
    #: fault-free prefix from reset.  For a CFGR upset (``lut-config``)
    #: the trigger is the golden run's first commit of the upset class;
    #: an upset of a class the golden run never commits is decided from
    #: the golden profile without simulating.  A pure accelerant:
    #: results are bit-identical to cold runs (the equivalence suite
    #: enforces it), any warm-path failure degrades to a cold run with
    #: a warning, and rollback recovery (``recover=True``) always runs
    #: cold because its checkpoint cadence is anchored at reset.
    warm_start: bool = True
    #: MDL monitor specs as ``(filename, source)`` pairs.  The sources
    #: ride along *inside* the config (not as paths) so a pickled
    #: config rebuilt in a worker process — or replayed from a journal
    #: on another machine — compiles the exact same monitors.  The
    #: campaign builds its extension from them, and registers none.
    mdl: tuple[tuple[str, str], ...] = ()
    #: supervised-pool deadline per task, seconds (``None`` derives
    #: one from ``wallclock_limit``: the pool deadline must outlast
    #: the in-simulation watchdog or healthy slow runs get reaped).
    task_timeout: float | None = None
    #: infra retries per fault index before quarantine.
    max_retries: int = 2
    #: pool degradation policy: "auto" falls back to in-process serial
    #: execution when the pool is irrecoverably broken, "never" raises
    #: instead, "force" skips the pool entirely (debugging aid).
    serial_fallback: str = "auto"

    def __post_init__(self) -> None:
        from repro.extensions import extension_names
        mdl_names = set()
        if self.mdl:
            from repro.mdl import MdlError, compile_spec
            for filename, spec_source in self.mdl:
                try:
                    mdl_names.add(
                        compile_spec(spec_source, filename).name.lower()
                    )
                except MdlError as err:
                    raise ValueError(str(err)) from None
        known_names = set(extension_names()) | mdl_names
        if self.extension.lower() not in known_names:
            known = ", ".join(sorted(known_names))
            raise ValueError(
                f"unknown extension {self.extension!r} (known: {known})"
            )
        if (self.workload is None) == (self.source is None):
            raise ValueError(
                "specify exactly one of workload= or source="
            )
        if self.faults < 1:
            raise ValueError(f"faults must be >= 1, got {self.faults}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.hang_multiplier <= 1:
            raise ValueError("hang_multiplier must be > 1")
        if self.hang_slack < 0:
            raise ValueError("hang_slack must be >= 0")
        if self.models is not None:
            for name in self.models:
                if name not in MODEL_CLASSES:
                    known = ", ".join(MODEL_CLASSES)
                    raise ValueError(
                        f"unknown fault model {name!r} (known: {known})"
                    )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, "
                f"got {self.checkpoint_every}"
            )
        if self.recover and self.checkpoint_every is None:
            raise ValueError(
                "recover=True requires checkpoint_every="
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be > 0, got {self.task_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.serial_fallback not in ("auto", "never", "force"):
            raise ValueError(
                f"serial_fallback must be auto, never or force, "
                f"got {self.serial_fallback!r}"
            )

    def journal_identity(self) -> dict:
        """The fields a resumable journal is keyed on: everything that
        influences per-index results.  ``jobs`` (scheduling only),
        ``wallclock_limit`` (an environment backstop), ``cache_dir``
        and ``warm_start`` (pure accelerants) and the pool-robustness
        knobs
        (``task_timeout``, ``max_retries``, ``serial_fallback`` — they
        decide *whether* an index completes here-and-now, never what
        its result is) are deliberately excluded — a campaign may be
        resumed with different parallelism on a different machine and
        still produce the bit-identical report."""
        identity = {
            "extension": self.extension,
            "workload": self.workload,
            "source": self.source,
            "entry": self.entry,
            "scale": self.scale,
            "faults": self.faults,
            "seed": self.seed,
            "models": list(self.models) if self.models else None,
            "clock_ratio": self.clock_ratio,
            "fifo_depth": self.fifo_depth,
            "hang_multiplier": self.hang_multiplier,
            "hang_slack": self.hang_slack,
            "max_instructions": self.max_instructions,
            "checkpoint_every": self.checkpoint_every,
            "recover": self.recover,
        }
        # Only campaigns that actually carry MDL specs key on them —
        # journals written before the field existed keep replaying.
        if self.mdl:
            identity["mdl"] = [list(pair) for pair in self.mdl]
        return identity


class Campaign:
    """One fault-injection campaign: golden run + N faulted runs."""

    def __init__(self, config: CampaignConfig, *,
                 profile: GoldenProfile | None = None):
        """Build the program and get the golden profile: ``profile``
        when given (a pool worker's copy of its parent's, computed for
        this same config), else from the golden cache, else by running
        the golden run."""
        self.config = config
        #: the config's MDL monitors by lowercase name (a later spec
        #: of the same name wins), which ``_build_system`` prefers to
        #: the process-wide registry.  Compiled here and registered
        #: nowhere, so a campaign leaves later runs in the same
        #: process untouched; every pool worker rebuilds its
        #: ``Campaign`` from the config, and so these programs.
        self.mdl_programs = {}
        if config.mdl:
            from repro.mdl import compile_spec
            for filename, spec_source in config.mdl:
                program = compile_spec(spec_source, filename)
                self.mdl_programs[program.name.lower()] = program
        #: wall-clock phase timers for the campaign pipeline
        #: (assemble / golden-run / faulted-runs / report).  Purely
        #: diagnostic: never written into the bit-reproducible report.
        self.profiler = PhaseProfiler()
        with self.profiler.phase("assemble"):
            self.program = self._build_program()
        #: why the golden cache could not be used (None on a hit or
        #: when no cache is configured) — surfaced by the CLI.
        self.cache_diagnostic: str | None = None
        #: infra-robustness telemetry from the most recent :meth:`run`
        #: (retries, respawns, quarantines, degraded mode).  Purely
        #: diagnostic: never part of the bit-reproducible report.
        self.pool_stats = PoolStats()
        #: structured degradation warnings (cache/journal unwritable,
        #: pool fell back to serial, ...) — surfaced by the CLI.
        self.warnings: list[str] = []
        #: the golden RunResult; None when the profile was handed in
        #: or came from the cache, and the golden run was skipped.
        self.golden: RunResult | None = None
        cache = (GoldenCache(config.cache_dir)
                 if config.cache_dir and profile is None else None)
        if cache is not None:
            profile, self.cache_diagnostic = cache.load(config)
            if (profile is not None
                    and profile.program != program_digest(self.program)):
                # e.g. the workload generator changed under the same
                # name: every recorded fact belongs to another image.
                profile = None
                self.cache_diagnostic = (
                    f"golden cache entry {cache.path_for(config)} was "
                    f"built from a different program image; recomputing"
                )
        if profile is None:
            with self.profiler.phase("golden-run"):
                self.golden, profile = self._golden_run()
            if cache is not None:
                cache.store(config, profile)
                if cache.disabled_reason is not None:
                    self._warn(cache.disabled_reason)
        self.profile = profile
        self.models = self._select_models()
        #: warm-started runs this process stopped early because their
        #: state rejoined the golden run (not counted in pool workers).
        self.converged_exits = 0
        budget = config.hang_multiplier
        self._instr_budget = (
            int(self.profile.instructions * budget) + config.hang_slack
        )
        self._cycle_budget = (
            int(self.profile.cycles * budget) + 4 * config.hang_slack
        )

    # -- setup --------------------------------------------------------------

    def _build_program(self) -> Program:
        config = self.config
        if config.workload is not None:
            return build_workload(config.workload, config.scale).build()
        return assemble(config.source, entry=config.entry)

    def _system_config(self) -> SystemConfig:
        return SystemConfig(
            interface=InterfaceConfig(
                clock_ratio=self.config.clock_ratio,
                fifo_depth=self.config.fifo_depth,
            ),
        )

    def _build_system(self) -> FlexCoreSystem:
        name = self.config.extension
        program = self.mdl_programs.get(name.lower())
        return FlexCoreSystem(
            self.program,
            create_extension(name) if program is None else program.create(),
            self._system_config(),
        )

    def _golden_run(self) -> tuple[RunResult, GoldenProfile]:
        """Run the workload fault-free on the fast engine and profile
        it into the :class:`GoldenProfile` every faulted run is judged
        against.

        The profile is counted per PC: a wrap in the system's
        ``handler_wraps`` puts counters around each PC's fused handler
        when the engine builds it.  A wrapped handler counts only when
        it runs, so an annulled delay slot, whose handler is built but
        never called, counts nowhere.  It reads ``cpu.instret`` for a
        class's first commit after the instruction committed, and a
        store's word address from the registers before it executed.
        So the profile equals what a record hook on the reference
        engine sees of the non-annulled commits (the tests hold the
        two side by side).  Every ``MARK_STRIDE`` commits a landmark
        is kept.
        """
        system = self._build_system()
        cpu = system.cpu
        read = cpu.regs.read
        # Non-annulled commits per instruction class, and the instret
        # of each class's first one (None = never committed).
        commits = [0] * NUM_INSTR_CLASSES
        first: list[int | None] = [None] * NUM_INSTR_CLASSES
        addresses: dict[int, None] = {}  # insertion-ordered set
        marks: list[ProfileMark] = []
        stride = MARK_STRIDE

        def count(instr, handler):
            klass = instr.instr_class
            if not instr.is_store:
                def counted(now):
                    now = handler(now)
                    commits[klass] += 1
                    if first[klass] is None:
                        first[klass] = cpu.instret
                    return now

                return counted
            rs1, rs2 = instr.rs1, instr.rs2
            use_imm, imm = instr.use_imm, instr.imm

            def counted_store(now):
                addr = (read(rs1) + (imm if use_imm else read(rs2))
                        ) & _WORD_ADDRESS
                now = handler(now)
                commits[klass] += 1
                if first[klass] is None:
                    first[klass] = cpu.instret
                if len(addresses) < MAX_PROFILE_ADDRESSES:
                    addresses[addr] = None
                return now

            return counted_store

        def landmark(_system, state):
            # Every ``stride`` commits (annulled slots included,
            # matching instret), remember how far the ALU and
            # forwarded-packet counters have advanced, digest the
            # whole state and keep it packed for warm forks.  When the
            # run outgrows the cap, halve the resolution (a state goes
            # with its mark) — long runs get coarser but never
            # unbounded landmark lists.
            nonlocal stride
            instret = state["cpu"]["instret"]
            forwarded = (system.interface.stats.forwarded
                         if system.interface else 0)
            alu = sum(commits[klass] for klass in ALU_CLASSES)
            marks.append(ProfileMark(instret, alu, forwarded,
                                     *pack_state(state)))
            if len(marks) == 2 * MAX_PROFILE_MARKS:
                del marks[::2]
                stride *= 2
            return instret + stride

        system.handler_wraps.append(count)
        deadline = None
        if self.config.wallclock_limit is not None:
            deadline = time.monotonic() + self.config.wallclock_limit
        result = system.run_bounded(
            max_instructions=self.config.max_instructions,
            deadline=deadline,
            checkpoint_every=MARK_STRIDE,
            on_checkpoint=landmark,
        )
        if result.engine != "fast":
            raise CampaignError(
                f"golden run fell back to the {result.engine} engine, "
                f"which does not apply its profile counters"
            )
        if result.termination != Termination.HALTED:
            raise CampaignError(
                f"golden run did not halt cleanly "
                f"(termination={result.termination}, "
                f"trap={result.trap}, error={result.error})"
            )

        extension = system.extension
        program = self.program
        profile = GoldenProfile(
            instructions=result.instructions,
            cycles=result.cycles,
            alu_commits=sum(commits[klass] for klass in ALU_CLASSES),
            load_commits=sum(commits[klass] for klass in LOAD_CLASSES),
            store_commits=sum(commits[klass] for klass in STORE_CLASSES),
            forwarded=result.interface_stats.forwarded,
            store_addresses=tuple(addresses),
            text_base=program.text_base,
            text_size=4 * len(program.text),
            data_base=program.data_base,
            data_size=len(program.data),
            has_memory_tags=extension.mem_tags is not None,
            has_shadow_tags=extension.shadow is not None,
            memory_tag_bits=extension.memory_tag_bits,
            register_tag_bits=extension.register_tag_bits,
            num_physical_registers=system.cpu.regs.num_physical,
            output=self._signature(result),
            program=program_digest(program),
            marks=tuple(marks),
            first_commits=tuple(first),
        )
        return result, profile

    def _select_models(self) -> tuple[FaultModel, ...]:
        if self.config.models is not None:
            models = tuple(
                create_model(name) for name in self.config.models
            )
            inapplicable = [
                model.name for model in models
                if not model.applicable(self.profile)
            ]
            if inapplicable:
                raise CampaignError(
                    f"fault model(s) {', '.join(inapplicable)} do not "
                    f"apply to {self.config.extension} on this workload"
                )
            return models
        models = tuple(
            cls() for cls in MODEL_CLASSES.values()
            if cls().applicable(self.profile)
        )
        if not models:
            raise CampaignError("no applicable fault models")
        return models

    # -- per-run machinery --------------------------------------------------

    def _signature(self, result: RunResult) -> str:
        """Output signature used for the golden-run SDC diff: a digest
        of the program's whole data section after the run."""
        program = self.program
        if not program.data:
            return "no-data"
        data = result.memory.read_bytes(program.data_base,
                                        len(program.data))
        return hashlib.sha256(data).hexdigest()[:16]

    def rng_for(self, index: int) -> random.Random:
        """Independent, platform-stable rng for run ``index``."""
        return derive_rng(self.config.seed, index)

    def plan(self, index: int) -> tuple[FaultModel, FaultSpec]:
        """Deterministically choose the fault for run ``index``."""
        rng = self.rng_for(index)
        model = rng.choice(self.models)
        return model, model.plan(rng, self.profile)

    # -- warm start ---------------------------------------------------------

    def _warm_eligible(self) -> bool:
        return self.config.warm_start and not self.config.recover

    def _warm_mark(self, model: FaultModel,
                   spec: FaultSpec) -> ProfileMark | None:
        """Latest golden-run landmark whose ``model.warm_unit`` counter
        (``instret``, ``alu_commits`` or ``forwarded``) is still below
        :meth:`FaultModel.warm_bound`, i.e. the last one before the
        fault's trigger (``None`` = no usable landmark: fault too
        early, or the model can matter from reset).  For an ``"alu"`` or
        ``"forwarded"`` trigger the next landmark is the one
        :meth:`_warm_settle` picks, so the hooked window spans at most
        one landmark stride."""
        bound = model.warm_bound(spec, self.profile)
        if not bound:
            return None
        unit = model.warm_unit
        best = None
        for mark in self.profile.marks:
            if mark.count(unit) >= bound:
                break
            best = mark
        return best

    def _warm_settle(self, model: FaultModel, spec: FaultSpec) -> int:
        """Absolute instret by which the armed fault has provably
        fired (``0`` = unknown: the whole suffix stays hooked).

        ``"commits"``-indexed models know this statically.  For
        ``"alu"``/``"forwarded"``-indexed models the golden landmarks
        supply the bound: the faulted run is identical to the golden
        run until its trigger fires (the fault is the first
        divergence), so the first landmark whose counter has reached
        the index is an instret by which the trigger fired — past it
        the hook is an inert counter and the rest of the run can go
        hook-free on a fused engine."""
        settle = model.warm_settle(spec)
        if settle:
            return settle
        unit = model.warm_unit
        if unit not in ("alu", "forwarded"):
            return 0
        index = int(spec.get("index", 0))
        for mark in self.profile.marks:
            if mark.count(unit) >= index:
                return mark.instret
        return 0

    def _warm_plan(self, system: FlexCoreSystem, spec: FaultSpec,
                   model: FaultModel) -> tuple[int, int] | None:
        """Restore the golden state kept at the fork landmark into
        ``system``, arm ``spec`` there (:meth:`FaultModel.arm_warm`:
        an indexed fault rebased past the skipped prefix, a CFGR upset
        applied to the restored CFGR), and return
        ``(fork_instret, settle_instret)`` (``None`` = no usable
        landmark, or its state could not be packed; caller arms and
        runs cold).  Inert faults never get here: :meth:`run_spec`
        decides them from the profile."""
        mark = self._warm_mark(model, spec)
        if mark is None or mark.state is None:
            return None
        system.restore_state(unpack_state(mark.state))
        model.arm_warm(system, spec, mark)
        return mark.instret, self._warm_settle(model, spec)

    def _run_warm(self, system: FlexCoreSystem, fork: int, settle: int,
                  deadline: float | None,
                  active: list | None = None) -> RunResult:
        """Run a warm-armed system to completion.

        When the fault's injection window provably closes at
        ``settle``, the run splits in two legs: the hooked reference
        window ``fork..settle``, paused by an artificial instruction
        limit right after capturing the state at ``settle``, and a
        hook-free fused-engine run from that state to completion
        under the real watchdog budgets.  If the run terminates inside
        the window (the fault trapped or crashed it), that result is
        final and the second leg never happens.  Without a static
        settle point the whole suffix runs in one leg.

        The second leg also stops early, as a :class:`RejoinedRun`,
        at the first golden landmark (settle or later) where its state
        digest equals the golden run's — see :meth:`_sprint`.
        """
        config = self.config
        if not settle or settle <= fork:
            return system.run_bounded(
                max_instructions=self._instr_budget,
                max_cycles=self._cycle_budget,
                deadline=deadline,
                checkpoint_every=config.checkpoint_every,
            )
        captured: dict = {}

        def grab(_system, state):
            if "state" not in captured:
                captured["state"] = state

        window = system.run_bounded(
            max_instructions=settle + 1,
            max_cycles=self._cycle_budget,
            deadline=deadline,
            checkpoint_every=settle - fork,
            on_checkpoint=grab,
        )
        state = captured.get("state")
        if (window.termination != Termination.INSTRUCTION_LIMIT
                or state is None
                or state["cpu"]["instret"] != settle):
            return window
        remainder = self._build_system()
        if active is not None:
            active[0] = remainder  # crashes now belong to this system
        remainder.restore_state(state)
        return self._sprint(remainder, settle, deadline)

    def _sprint(self, system: FlexCoreSystem, settle: int,
                deadline: float | None) -> RunResult:
        """The hook-free leg of a warm run: ``system`` was just
        restored from the faulted run's state at ``settle``.

        At ``settle``, if it is a landmark, and at every later golden
        landmark, the leg digests its own state; on a match with the
        golden digest it stops and returns a :class:`RejoinedRun`.
        That is sound because nothing but its snapshot state steers
        this system: it carries no fault hooks, its decode and handler
        tables are built from its own restored memory (stores into
        text invalidate them), and ``snapshot_state`` promises that
        restore-and-run reproduces the uninterrupted run.  A system
        whose state equals the golden state at a landmark therefore
        runs on exactly as the golden run did, to the golden outcome.
        """
        marks = self.profile.marks
        digests = {mark.instret: mark.digest for mark in marks}
        ahead = [mark.instret for mark in marks if mark.instret > settle]
        if (settle in digests and digests[settle]
                == state_digest(system.snapshot_state())):
            return self._rejoined(system)

        def watch(_system, state):
            instret = state["cpu"]["instret"]
            if digests.get(instret) == state_digest(state):
                raise _Rejoined
            following = bisect.bisect_right(ahead, instret)
            return (ahead[following] if following < len(ahead)
                    else math.inf)

        try:
            return system.run_bounded(
                max_instructions=self._instr_budget,
                max_cycles=self._cycle_budget,
                deadline=deadline,
                checkpoint_every=ahead[0] - settle if ahead else None,
                on_checkpoint=watch if ahead else None,
                # An alias of "fast"; the benchmark's tracer names this
                # leg by it (perfbench/tracing.py:run_leg).
                engine="superblock",
            )
        except _Rejoined:
            return self._rejoined(system)

    def _rejoined(self, system: FlexCoreSystem | None) -> RejoinedRun:
        """The golden outcome for a run that rejoined the golden run in
        ``system``, or (``None``) never left it and was not simulated."""
        core_stats = interface_stats = memory = None
        if system is not None:
            self.converged_exits += 1
            core_stats = system.core_timing.stats
            if system.interface:
                interface_stats = system.interface.stats
            memory = system.memory
        profile = self.profile
        return RejoinedRun(
            cycles=profile.cycles,
            instructions=profile.instructions,
            halted=True,
            trap=None,
            core_stats=core_stats,
            interface_stats=interface_stats,
            memory=memory,
            program=self.program,
            engine="fast",
        )

    def run_spec(
        self, spec: FaultSpec, model: FaultModel | None = None
    ) -> RunResult:
        """Execute one faulted run under the watchdog (never raises
        for in-simulation failures).  On the warm path a fault the
        golden profile proves inert is not simulated at all: its result
        is the golden run's, a :class:`RejoinedRun` with no system."""
        if model is None:
            model = create_model(spec.model)
        warm = self._warm_eligible()
        if warm and model.inert(spec, self.profile):
            return self._rejoined(None)
        system = self._build_system()
        plan = None
        if warm:
            try:
                plan = self._warm_plan(system, spec, model)
            except Exception as err:  # noqa: BLE001 — accelerant only
                self._warn(
                    f"warm start failed for {spec} "
                    f"({type(err).__name__}: {err}); running cold"
                )
                system = self._build_system()  # drop partial restore
                plan = None
        if plan is None:
            model.arm(system, spec)
        deadline = None
        if self.config.wallclock_limit is not None:
            deadline = time.monotonic() + self.config.wallclock_limit
        # A warm run's suffix leg executes in a *second* system (built
        # inside _run_warm); the sandbox below must attribute a crash
        # to whichever system was actually running, or warm crash
        # reports would diverge from cold ones.
        active = [system]
        try:
            if plan is not None:
                return self._run_warm(system, plan[0], plan[1],
                                      deadline, active)
            return system.run_bounded(
                max_instructions=self._instr_budget,
                max_cycles=self._cycle_budget,
                deadline=deadline,
                checkpoint_every=self.config.checkpoint_every,
                recover=self.config.recover,
            )
        except Exception as err:  # noqa: BLE001 — sandbox boundary
            # An injected fault can violate invariants far beyond the
            # simulated program (e.g. a config upset wedging the
            # fabric model).  The sandbox turns *any* escape into a
            # structured crash result instead of killing the campaign.
            crashed = active[0]
            error = SimulationError(
                f"simulator fault escaped the run: "
                f"{type(err).__name__}: {err}",
                pc=crashed.cpu.pc, instret=crashed.cpu.instret,
            )
            return RunResult(
                cycles=0,
                instructions=crashed.cpu.instret,
                halted=False,
                trap=None,
                core_stats=crashed.core_timing.stats,
                interface_stats=(
                    crashed.interface.stats
                    if crashed.interface else None
                ),
                memory=crashed.memory,
                program=self.program,
                termination=Termination.ERROR,
                error=error,
            )

    def classify(self, spec: FaultSpec, index: int,
                 result: RunResult) -> FaultResult:
        """Map one run's termination + output onto the outcome
        dictionary."""
        detail = ""
        if result.termination == Termination.ERROR:
            outcome = Outcome.CRASH
            error = result.error or SimulationError("unknown crash")
            detail = error.diagnosis()
        elif result.termination in WATCHDOG_TERMINATIONS:
            outcome = Outcome.HANG
            detail = (
                f"watchdog: {result.termination} after "
                f"{result.instructions} instructions"
            )
        elif result.trap is not None:
            outcome = Outcome.DETECTED
        elif (not isinstance(result, RejoinedRun)
              and self._signature(result) != self.profile.output):
            outcome = Outcome.SDC
        elif result.recoveries > 0:
            # The monitor trapped, the system rolled back and the
            # re-execution produced the golden output: the fault was
            # not merely detected but survived.
            outcome = Outcome.RECOVERED
            detail = (
                f"{result.recoveries} rollback(s), "
                f"{result.recovery_cycles} recovery cycles"
            )
        else:
            outcome = Outcome.MASKED
        return FaultResult(
            index=index,
            spec=spec,
            outcome=outcome,
            termination=str(result.termination),
            trap=str(result.trap) if result.trap is not None else None,
            detail=detail,
            instructions=result.instructions,
            cycles=result.cycles,
            recoveries=result.recoveries,
            recovery_cycles=result.recovery_cycles,
        )

    def run_one(self, index: int) -> FaultResult:
        """Plan, arm, execute and classify run ``index``."""
        model, spec = self.plan(index)
        result = self.run_spec(spec, model)
        return self.classify(spec, index, result)

    # -- the campaign -------------------------------------------------------

    def _warn(self, message: str) -> None:
        """Collect a degradation warning (deduplicated: the same
        condition may be reported once per item by its source)."""
        if message not in self.warnings:
            self.warnings.append(message)

    def run(self, progress=None, journal_path=None, resume=False,
            on_result=None, indices=None):
        """Execute every faulted run and build the coverage report.

        ``progress`` is an optional callable ``(done, total)`` invoked
        after each completed run, serial or parallel.

        ``indices`` restricts this call to a subset of the campaign's
        fault indices (each must be in ``range(config.faults)``); the
        default ``None`` means all of them.  This is the batch-
        extension hook behind adaptive sampling
        (:class:`repro.explore.sampling.AdaptiveCampaign`): the sampler
        declares its fault *budget* up front — keeping the journal
        identity stable — and then grows the executed prefix batch by
        batch through repeated ``run(indices=range(n), resume=True)``
        calls against one journal.  Per-index seeding makes the result
        of an index independent of which call executed it, so the
        grown journal is bit-identical to a straight-through run.

        ``on_result`` is an optional callable invoked with each
        freshly-executed :class:`FaultResult` (replayed results from a
        resumed journal are *not* re-announced).  It is an observation
        hook — the job service's tracer hangs per-fault trace events
        off it — and must not mutate the result.

        With ``journal_path`` every result is durably appended to a
        crash-tolerant journal the moment it exists; ``resume=True``
        replays a prior journal first and only executes the missing
        fault indices, producing a report bit-identical to an
        uninterrupted campaign.  Replayed indices whose *latest*
        record is :attr:`Outcome.INFRA_FAILED` are re-run — resume
        heals quarantine, because infra failures say nothing about
        the fault itself.  SIGINT/SIGTERM terminate the workers
        cleanly and raise :class:`CampaignInterrupted` with the
        partial results (everything already journaled is safe).

        Journaled campaigns also persist their supervised-pool
        tallies: each session appends one ``infra`` frame (only when
        something actually went wrong), and the report's ``infra.*``
        metrics are the deterministic sum of those frames — so a
        resumed campaign reports the infra history it lived through,
        while un-journaled campaigns keep live stats on stderr only
        and report all-zero ``infra.*`` (preserving bit-identical
        reports across jobs/chaos).
        """
        from repro.faultinject.report import CoverageReport, sum_infra

        total = self.config.faults
        results: list[FaultResult] = []
        if indices is None:
            pending = list(range(total))
        else:
            pending = sorted({int(index) for index in indices})
            out_of_range = [i for i in pending if not 0 <= i < total]
            if out_of_range:
                raise CampaignError(
                    f"fault indices out of range [0, {total}): "
                    f"{', '.join(map(str, out_of_range[:8]))}"
                )
        self.pool_stats = PoolStats()
        infra_records: list[dict] = []
        journal: ResultsJournal | None = None
        if journal_path is not None:
            journal = ResultsJournal(journal_path)
            identity = self.config.journal_identity()
            if resume and journal.exists():
                stored, records, infra_records = journal.read_full()
                if stored is None:
                    # Zero-byte or torn-before-the-header journal (the
                    # campaign died inside its very first write):
                    # nothing to replay, restart it cleanly.
                    journal.start(identity)
                elif stored != identity:
                    raise JournalMismatchError(
                        f"journal {journal_path} records a different "
                        f"campaign configuration; refusing to mix "
                        f"results (delete it to start over)"
                    )
                else:
                    by_index: dict[int, FaultResult] = {}
                    for raw in records:
                        replayed = FaultResult.from_dict(raw)
                        by_index[replayed.index] = replayed  # last wins
                    healing = sorted(
                        index for index, r in by_index.items()
                        if r.outcome is Outcome.INFRA_FAILED
                    )
                    if healing:
                        self._warn(
                            f"resume: re-running {len(healing)} "
                            f"previously quarantined (infra_failed) "
                            f"fault index(es): "
                            f"{', '.join(map(str, healing))}"
                        )
                    results = [
                        r for r in by_index.values()
                        if r.outcome is not Outcome.INFRA_FAILED
                    ]
                    done = {r.index for r in results}
                    pending = [i for i in pending if i not in done]
                    journal.open_append()
            else:
                journal.start(identity)
            if journal.disabled_reason is not None:
                self._warn(journal.disabled_reason)

        def record(result: FaultResult) -> None:
            results.append(result)
            if journal is not None:
                journal.append_result(result.as_dict())
                if journal.disabled_reason is not None:
                    self._warn(journal.disabled_reason)
            if on_result is not None:
                on_result(result)
            if progress is not None:
                progress(len(results), total)

        interrupted = False
        previous_sigterm = None
        try:
            # Make SIGTERM (the polite kill) interrupt exactly like
            # Ctrl-C, so both paths flush the journal and report the
            # partial results.  Only possible from the main thread.
            previous_sigterm = signal.signal(
                signal.SIGTERM, _raise_keyboard_interrupt
            )
        except ValueError:
            pass
        try:
            with self.profiler.phase("faulted-runs"):
                if self.config.jobs == 1:
                    for index in pending:
                        record(self.run_one(index))
                else:
                    self._run_parallel(pending, record)
        except KeyboardInterrupt:
            interrupted = True
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            if journal is not None:
                # Persist this session's pool tallies next to its
                # results: the report's infra.* counters are a pure
                # replay of these frames, so they survive kill -9 the
                # same way the results do (at worst the final,
                # not-yet-written session frame is lost — its
                # quarantined *results* are already journaled).
                if self.pool_stats.interesting():
                    journal.append_infra(self.pool_stats.as_dict())
                    if journal.disabled_reason is None:
                        infra_records.append(self.pool_stats.as_dict())
                    else:
                        self._warn(journal.disabled_reason)
                journal.close()

        infra = sum_infra(infra_records)
        results.sort(key=lambda r: r.index)
        if interrupted:
            raise CampaignInterrupted(
                self.config, self.profile, tuple(results),
                journal_path=journal_path, infra=infra,
            )
        with self.profiler.phase("report"):
            return CoverageReport.build(self.config, self.profile,
                                        tuple(results), infra=infra)

    def _run_parallel(self, indices, record) -> None:
        """Fan the runs out over the supervised process pool.

        Each worker rebuilds the campaign once from this campaign's
        golden profile, so the golden run is never repeated there, and
        then runs one fault index per task.  Per-index seeding makes
        each result independent of the scheduling.

        Pool mechanics (worker signal setup, deadlines, retries,
        terminate-on-interrupt) live in
        :func:`repro.engine.pool.fan_out`.  An index that keeps
        killing its worker is quarantined here as an
        :attr:`Outcome.INFRA_FAILED` result carrying the planned
        fault spec, so nothing ever silently disappears from the
        report.
        """
        from repro.engine.pool import fan_out

        worker_config = replace(self.config, jobs=1)
        timeout = self.config.task_timeout
        if timeout is None and self.config.wallclock_limit is not None:
            # The pool deadline must comfortably outlast the
            # in-simulation watchdog, or healthy-but-slow runs would be
            # reaped as hung.
            timeout = 2.0 * self.config.wallclock_limit + 30.0
        policy = PoolPolicy(
            task_timeout=timeout,
            max_retries=self.config.max_retries,
            fallback=self.config.serial_fallback,
        )

        def quarantine(index, error):
            _model, spec = self.plan(index)
            record(FaultResult(
                index=index,
                spec=spec,
                outcome=Outcome.INFRA_FAILED,
                termination="infra-failure",
                trap=None,
                detail=str(error),
                instructions=0,
                cycles=0,
            ))

        self.pool_stats = fan_out(
            indices, _worker_run, record, jobs=self.config.jobs,
            initializer=_init_worker,
            initargs=(worker_config, self.profile),
            policy=policy, on_quarantine=quarantine, warn=self._warn,
        )


def _raise_keyboard_interrupt(signum, frame):
    raise KeyboardInterrupt


#: per-process campaign instance for pool workers.
_WORKER_CAMPAIGN: Campaign | None = None


def _init_worker(config: CampaignConfig, profile: GoldenProfile) -> None:
    from repro.engine.pool import worker_signals

    worker_signals()
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = Campaign(config, profile=profile)


def _worker_run(index: int) -> FaultResult:
    return _WORKER_CAMPAIGN.run_one(index)


def run_campaign(config: CampaignConfig, progress=None,
                 journal_path=None, resume=False):
    """Convenience one-call entry point."""
    return Campaign(config).run(progress=progress,
                                journal_path=journal_path,
                                resume=resume)
