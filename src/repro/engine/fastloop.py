"""The one run loop behind every execution engine.

:func:`run_loop` owns the control flow of a bounded run — the
instruction-limit watchdog, the cycle cap, the wall-clock deadline
stride, periodic checkpoints, monitor-triggered rollback, trap
delivery and crash wrapping — and returns the ``(now, trap,
termination, error, recoveries, recovery_cycles)`` tuple
``FlexCoreSystem.run_bounded``'s shared result tail consumes.

The three instret-driven watchdogs (limit, deadline stride,
checkpoint) fold into one bound, ``next_event``, so a step tests
``instret >= next_event`` and the cycle cap and nothing else; when
either trips, every watchdog is checked in its fixed order — limit,
cycle cap, deadline, checkpoint — and the bound is recomputed, as it
is after a rollback.

What a committed instruction *does* comes from the engine's table, a
``handlers`` dict of PC -> ``step(now) -> now`` filled lazily by
``build(pc)``, plus an ``annulled(now)`` step the loop calls only
when the pending delay slot is annulled:

* :class:`~repro.engine.predecode.HandlerTable` (``engine="fast"``)
  installs one fused closure per PC;
* :class:`ReferenceTable` (``engine="reference"``) installs one shared
  step for every PC — ``CpuState.step``, ``CoreTiming.advance``, the
  record hooks, ``on_commit`` — the original unfused path, which is
  also its ``annulled`` step.

Which table runs is decided by ``FlexCoreSystem.run_bounded``
(:meth:`~repro.flexcore.system.FlexCoreSystem._fast_loop_supported`):
record hooks or a tracer force the reference table, because hooks see
every ``CommitRecord`` and a tracer records events the fused closures
deliberately skip.  Metrics do not: ``run_bounded`` publishes them
from the stats once the loop returns.  Nor do the system's
``handler_wraps``, which are not record hooks: ``HandlerTable.build``
wraps each PC's fused handler once, when it builds it, and the loop
calls the wrapped handler like any other.  ``ReferenceTable`` does not
apply them.
"""

from __future__ import annotations

import time

from repro.core.executor import SimulationError
from repro.isa.registers import WindowOverflow, WindowUnderflow
from repro.memory.backing import MemoryFault

_INFINITY = float("inf")


class ReferenceTable:
    """The reference engine in the run loop's table shape."""

    def __init__(self, system):
        cpu_step = system.cpu.step
        advance = system.core_timing.advance
        iface = system.interface
        if iface is None:
            def step(now):
                return advance(cpu_step(), int(now))
        else:
            hooks = system.record_hooks
            on_commit = iface.on_commit

            def step(now):
                record = cpu_step()
                now = advance(record, int(now))
                for hook in hooks:
                    hook(record)
                return on_commit(record, now)

        self._step = step
        self.annulled = step
        self.handlers: dict[int, object] = {}

    def build(self, pc: int):
        self.handlers[pc] = self._step
        return self._step


def run_loop(
    system,
    table_class,
    limit: int,
    max_cycles: int | None,
    deadline: float | None,
    checkpoint_every: int | None,
    on_checkpoint,
    recover: bool,
    recovery_limit: int,
    recovery_latency: int,
):
    """Run ``system`` to a stop condition on a fresh ``table_class``
    table; see module docstring."""
    from repro.flexcore.system import Termination

    cpu = system.cpu
    iface = system.interface
    stop_on_trap = system.config.stop_on_trap
    stride = system.DEADLINE_STRIDE
    tracer = (system.telemetry.tracer
              if system.telemetry is not None else None)

    table = table_class(system)
    handlers = table.handlers
    build = table.build
    annulled = table.annulled

    now = system.now
    trap = None
    termination = Termination.HALTED
    error: SimulationError | None = None
    recoveries = 0
    recovery_cycles = 0.0

    max_c = _INFINITY if max_cycles is None else max_cycles
    next_deadline = (_INFINITY if deadline is None
                     else cpu.instret + stride)
    next_checkpoint = (_INFINITY if checkpoint_every is None
                       else cpu.instret + checkpoint_every)
    #: the first instret at which the limit, the deadline stride or a
    #: checkpoint is due; recompute it whenever any of the three moves.
    next_event = min(limit, next_deadline, next_checkpoint)
    watch_traps = iface is not None and stop_on_trap
    checkpoint: dict | None = None
    #: when the current attempt from ``checkpoint`` started — the
    #: capture time until a rollback, then the resume time.  Wasted
    #: work is measured from here, so repeated rollbacks to one
    #: checkpoint never charge an earlier attempt twice.
    replay_from = now
    if recover:
        # The rollback target before the first periodic checkpoint is
        # the run's entry state.
        system.now = now
        checkpoint = system.snapshot_state()

    while not cpu.halted:
        if cpu.instret >= next_event or now >= max_c:
            instret = cpu.instret
            if instret >= limit:
                termination = Termination.INSTRUCTION_LIMIT
                error = SimulationError(
                    f"instruction limit {limit} exceeded at "
                    f"pc={cpu.pc:#x} — runaway program?",
                    pc=cpu.pc, instret=instret, cycle=int(now),
                )
                break
            if now >= max_c:
                termination = Termination.CYCLE_LIMIT
                break
            if instret >= next_deadline:
                next_deadline = instret + stride
                if time.monotonic() >= deadline:
                    termination = Termination.DEADLINE
                    break
            if instret >= next_checkpoint:
                next_checkpoint = instret + checkpoint_every
                system.now = now
                checkpoint = system.snapshot_state()
                replay_from = now
                if on_checkpoint is not None:
                    next_checkpoint = (on_checkpoint(system, checkpoint)
                                       or next_checkpoint)
            next_event = min(limit, next_deadline, next_checkpoint)

        pc = cpu.pc
        try:
            if cpu._annul_next:
                now = annulled(now)
            else:
                try:
                    handler = handlers[pc]
                except KeyError:
                    handler = build(pc)
                now = handler(now)
        except SimulationError as err:
            cpu._attach_context(err, pc)
            if err.cycle is None:
                err.cycle = int(now)
            termination = Termination.ERROR
            error = err
            break
        except (MemoryFault, WindowOverflow, WindowUnderflow) as err:
            wrapped = SimulationError(str(err))
            cpu._attach_context(wrapped, pc)
            wrapped.cycle = int(now)
            termination = Termination.ERROR
            error = wrapped
            break

        if watch_traps and iface.pending_trap is not None:
            if (recover and checkpoint is not None
                    and recoveries < recovery_limit):
                # Roll back and re-execute.  The restored state
                # predates the trap, so pending_trap comes back clear;
                # time keeps moving forward — detection, rollback and
                # replay all cost real cycles.
                trap_at = max(now, iface.trap_time)
                wasted = trap_at - replay_from + recovery_latency
                if tracer is not None:
                    tracer.span(trap_at, recovery_latency, "monitor",
                                "monitor.rollback", wasted=wasted)
                system.restore_state(checkpoint)
                now = replay_from = trap_at + recovery_latency
                recoveries += 1
                recovery_cycles += wasted
                if checkpoint_every is not None:
                    next_checkpoint = cpu.instret + checkpoint_every
                next_event = min(limit, next_deadline, next_checkpoint)
                # The rollback rewound memory (possibly text), so the
                # old table may be stale; rebuild lazily.
                table = table_class(system)
                handlers = table.handlers
                build = table.build
                annulled = table.annulled
                continue
            trap = iface.pending_trap
            now = max(now, iface.trap_time)
            termination = Termination.TRAP
            break

    return now, trap, termination, error, recoveries, recovery_cycles
