"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run      assemble and simulate a .s file, optionally with a monitor
trace    simulate with full telemetry; export a Perfetto trace
inject   run a fault-injection campaign against a monitor
sweep    run an evaluation sweep grid across the worker pool
compile  compile an MDL monitor spec; synthesize or run it
disasm   assemble a .s file and print the disassembly listing
table3   print the Table III area/power/frequency report
synth    synthesize one extension for the fabric and the ASIC flow
serve    run the crash-safe campaign job server
submit   submit a job to a running job server
tail     stream a job's state transitions from the server
status   show server/job status; fetch result documents

``run``/``trace``/``inject``/``synth`` accept ``--mdl SPEC.mdl``
(repeatable): each spec is compiled and registered, making its
monitor a valid ``--extension`` name for that invocation.

Examples::

    python -m repro run prog.s --extension dift --ratio 0.5 --stats
    python -m repro run prog.s --mdl examples/redzone.mdl \\
        --extension redzone
    python -m repro trace prog.s --extension dift --perfetto out.json
    python -m repro trace --workload crc32 --extension sec \\
        --perfetto crc32.json
    python -m repro inject --extension sec --workload crc32 \\
        --faults 200 --seed 1 --metrics
    python -m repro compile examples/redzone.mdl --table3
    python -m repro compile umc --run sha --scale 0.125
    python -m repro disasm prog.s
    python -m repro table3
    python -m repro synth umc
"""

from __future__ import annotations

import argparse
import sys

from repro.core.executor import SimulationError
from repro.extensions import create_extension
from repro.flexcore import run_program
from repro.flexcore.system import ENGINES
from repro.isa import assemble, disassemble_program

#: exit codes: 0 ok, 2 monitor trap / usage error (argparse's own
#: convention), 3 simulation error, 130 campaign interrupted
#: (128 + SIGINT, shell convention).
EXIT_TRAP = 2
EXIT_USAGE = 2
EXIT_SIMULATION_ERROR = 3
#: ``repro inject`` measured nothing: every non-masked run was an
#: infrastructure failure, so the detection-coverage denominator is
#: empty and the printed 100.0% is vacuous.  Shares the "the tool ran
#: but the answer is unusable" exit space with simulation errors.
EXIT_NO_COVERAGE = 3
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    """A CLI-level mistake (unknown extension, bad spec path).  The
    message is printed to stderr and the process exits 2 — never a
    raw traceback."""


def _load(path: str, entry: str):
    with open(path) as handle:
        source = handle.read()
    return assemble(source, entry=entry)


def _register_mdl(paths) -> None:
    """Compile and register every ``--mdl`` spec for this invocation.

    Diagnostics (syntax errors, unknown fields, width mismatches) are
    rendered with source locations; a bad spec exits 2."""
    if not paths:
        return
    from repro.mdl import MdlError, load_spec, register_program

    for path in paths:
        try:
            register_program(load_spec(path), replace=True)
        except OSError as err:
            raise _UsageError(f"mdl error: {err}") from None
        except MdlError as err:
            raise _UsageError(str(err)) from None


def _make_extension(name: str | None):
    """``create_extension`` under the CLI contract: an unknown name
    prints the known-name list (including any monitors registered via
    ``--mdl``) and exits 2."""
    if name is None:
        return None
    try:
        return create_extension(name)
    except ValueError as err:
        raise _UsageError(f"error: {err}") from None


def _build_workload(name: str, scale: float):
    """``build_workload`` under the same CLI contract as
    ``--extension``: an unknown name prints the known-name list and
    exits 2 instead of raising a traceback."""
    from repro.workloads import build_workload

    try:
        return build_workload(name, scale)
    except ValueError as err:
        raise _UsageError(f"error: {err}") from None


def cmd_run(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        Telemetry,
        format_run_summary,
        run_digest,
    )

    if (args.source is None) == (args.workload is None):
        print("run error: give exactly one of SOURCE or --workload",
              file=sys.stderr)
        return 1
    if args.workload is not None:
        program = _build_workload(args.workload, args.scale).build()
    else:
        program = _load(args.source, args.entry)
    _register_mdl(args.mdl)
    extension = _make_extension(args.extension)
    telemetry = Telemetry.enabled() if args.metrics else None
    try:
        result = run_program(
            program,
            extension,
            clock_ratio=args.ratio,
            fifo_depth=args.fifo,
            max_instructions=args.max_instructions,
            checkpoint_every=args.checkpoint_every,
            recover=args.recover,
            telemetry=telemetry,
            engine=args.engine,
        )
    except SimulationError as err:
        # One-line triage instead of a traceback: the structured
        # context pinpoints the faulting instruction.
        print(f"simulation error: {err.diagnosis()}", file=sys.stderr)
        return EXIT_SIMULATION_ERROR
    if args.stats:
        print(format_run_summary(result))
    else:
        print(f"instructions : {result.instructions}")
        print(f"cycles       : {result.cycles}")
        print(f"CPI          : {result.cpi:.2f}")
        print(f"halted       : {result.halted}")
        if result.recoveries:
            print(f"recoveries   : {result.recoveries} rollback(s), "
                  f"{result.recovery_cycles} cycles")
        if result.interface_stats is not None:
            stats = result.interface_stats
            print(f"forwarded    : {stats.forwarded} "
                  f"({stats.forwarded_fraction:.1%} of commits)")
            print(f"fifo stalls  : {stats.fifo_stall_cycles} cycles")
            print(f"meta stalls  : {stats.meta_stall_cycles:.0f} cycles")
    if telemetry is not None:
        dump = telemetry.metrics.format()
        if dump:
            print()
            print(dump)
    if args.digest:
        print(f"digest       : {run_digest(result)}")
    if result.trap is not None:
        print(f"TRAP         : {result.trap}")
        return EXIT_TRAP
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Fully-telemetered run: metrics + cycle trace + exports."""
    from repro.telemetry import (
        Telemetry,
        format_run_summary,
        run_digest,
    )

    if (args.source is None) == (args.workload is None):
        print("trace error: give exactly one of SOURCE or --workload",
              file=sys.stderr)
        return 1
    telemetry = Telemetry.enabled(trace=True, capacity=args.buffer)
    with telemetry.profiler.phase("assemble"):
        if args.workload is not None:
            program = _build_workload(args.workload, args.scale).build()
        else:
            program = _load(args.source, args.entry)
    _register_mdl(args.mdl)
    extension = _make_extension(args.extension)
    try:
        with telemetry.profiler.phase("run"):
            result = run_program(
                program,
                extension,
                clock_ratio=args.ratio,
                fifo_depth=args.fifo,
                max_instructions=args.max_instructions,
                telemetry=telemetry,
                engine=args.engine,
            )
    except SimulationError as err:
        print(f"simulation error: {err.diagnosis()}", file=sys.stderr)
        return EXIT_SIMULATION_ERROR

    tracer = telemetry.tracer
    with telemetry.profiler.phase("export"):
        if args.perfetto is not None:
            tracer.write_perfetto(args.perfetto)
        if args.jsonl is not None:
            tracer.write_jsonl(args.jsonl)

    if args.stats:
        print(format_run_summary(result))
        print()
    note = (f" ({tracer.overwritten} older events overwritten)"
            if tracer.overwritten else "")
    print(f"trace        : {len(tracer)} events{note}")
    if args.perfetto is not None:
        print(f"perfetto     : {args.perfetto} "
              f"(open in ui.perfetto.dev)")
    if args.jsonl is not None:
        print(f"jsonl        : {args.jsonl}")
    print(f"digest       : {run_digest(result)}")
    print(telemetry.profiler.format(), file=sys.stderr)
    if result.trap is not None:
        print(f"TRAP         : {result.trap}")
        return EXIT_TRAP
    return 0


def _print_campaign_health(campaign) -> None:
    """Surface degradation warnings and infra counters on stderr
    (never on stdout: the report there must stay bit-reproducible)."""
    for warning in campaign.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if campaign.pool_stats.interesting():
        print(f"pool: {campaign.pool_stats.summary()}", file=sys.stderr)


def cmd_inject(args: argparse.Namespace) -> int:
    from repro.checkpoint import JournalError
    from repro.faultinject import (
        Campaign,
        CampaignConfig,
        CampaignError,
        CampaignInterrupted,
    )

    source = None
    if args.source is not None:
        with open(args.source) as handle:
            source = handle.read()
    if args.resume and args.journal is None:
        print("campaign error: --resume requires --journal",
              file=sys.stderr)
        return 1
    # MDL specs travel into the config as (filename, source) pairs so
    # worker processes and journal replays see the same monitors.
    mdl_pairs = []
    for path in args.mdl or ():
        try:
            with open(path) as handle:
                mdl_pairs.append((path, handle.read()))
        except OSError as err:
            raise _UsageError(f"mdl error: {err}") from None
    _register_mdl(args.mdl)
    _make_extension(args.extension)  # unknown names exit 2 with the list
    try:
        config = CampaignConfig(
            extension=args.extension,
            workload=args.workload,
            source=source,
            entry=args.entry,
            scale=args.scale,
            faults=args.faults,
            seed=args.seed,
            models=tuple(args.models.split(",")) if args.models else None,
            clock_ratio=args.ratio,
            fifo_depth=args.fifo,
            jobs=args.jobs,
            warm_start=not args.no_warm_start,
            checkpoint_every=args.checkpoint_every,
            recover=args.recover,
            cache_dir=args.cache_dir,
            mdl=tuple(mdl_pairs),
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            serial_fallback=args.serial_fallback,
        )
        campaign = Campaign(config)
    except (CampaignError, ValueError) as err:
        print(f"campaign error: {err}", file=sys.stderr)
        return 1
    if campaign.cache_diagnostic is not None:
        print(campaign.cache_diagnostic, file=sys.stderr)
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"\r  {done}/{total} runs", end="", file=sys.stderr,
                  flush=True)
    try:
        report = campaign.run(progress=progress,
                              journal_path=args.journal,
                              resume=args.resume)
    except JournalError as err:
        print(f"\ncampaign error: {err}", file=sys.stderr)
        return 1
    except CampaignInterrupted as stop:
        if args.progress:
            print(file=sys.stderr)
        _print_campaign_health(campaign)
        partial = stop.partial_report()
        print(partial.format(details=args.details,
                             metrics=args.metrics))
        print(
            f"\ninterrupted after {len(stop.results)}/"
            f"{config.faults} runs", file=sys.stderr,
        )
        if args.journal is not None:
            print(
                f"resume with: --journal {args.journal} --resume",
                file=sys.stderr,
            )
        else:
            print(
                "(re-run with --journal PATH to make campaigns "
                "resumable)", file=sys.stderr,
            )
        return EXIT_INTERRUPTED
    if args.progress:
        print(file=sys.stderr)
    _print_campaign_health(campaign)
    print(report.format(details=args.details, metrics=args.metrics))
    if args.metrics:
        print(campaign.profiler.format(), file=sys.stderr)
    if args.json is not None:
        report.write_json(args.json)
        print(f"\nJSON report written to {args.json}")
    if report.no_coverage:
        from repro.faultinject.campaign import Outcome
        counts = report.counts()
        print(
            f"campaign error: no coverage measured — all "
            f"{counts[Outcome.INFRA_FAILED]}/{report.total} non-masked "
            f"run(s) were quarantined infrastructure failures "
            f"(pool: {campaign.pool_stats.summary()}); "
            f"resume with --journal/--resume to retry them",
            file=sys.stderr,
        )
        return EXIT_NO_COVERAGE
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run an evaluation sweep grid across the supervised pool.

    Prints one deterministic line per grid point — stable ordering and
    content, so two sweeps of the same grid can be compared with
    ``cmp``/``diff`` regardless of ``--jobs``, caching, chaos or
    serial fallback.  Interrupts (SIGINT/SIGTERM) tear the pool down
    cleanly and exit 130; everything already cached stays cached.
    """
    import signal as signal_module

    from repro.engine.pool import PoolPolicy, Quarantined
    from repro.engine.sweep import SweepRunner, table4_points
    from repro.evaluation.config import CLOCK_RATIOS
    from repro.extensions import EXTENSION_NAMES
    from repro.workloads import workload_names

    benchmarks = (
        args.benchmarks.split(",") if args.benchmarks
        else list(workload_names())
    )
    known_workloads = workload_names(include_extras=True)
    for bench in benchmarks:
        if bench not in known_workloads:
            known = ", ".join(known_workloads)
            raise _UsageError(
                f"sweep error: unknown workload {bench!r} "
                f"(known: {known})"
            )
    extensions = (
        tuple(args.extensions.split(",")) if args.extensions
        else EXTENSION_NAMES
    )
    for name in extensions:
        if name not in EXTENSION_NAMES:
            known = ", ".join(EXTENSION_NAMES)
            raise _UsageError(
                f"sweep error: unknown extension {name!r} "
                f"(known: {known})"
            )
    ratios = (
        tuple(float(r) for r in args.ratios.split(","))
        if args.ratios else CLOCK_RATIOS
    )
    points = table4_points(scale=args.scale, benchmarks=benchmarks,
                           extensions=extensions, ratios=ratios)
    policy = PoolPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        fallback=args.serial_fallback,
    )
    runner = SweepRunner(jobs=args.jobs, engine=args.engine,
                         cache_dir=args.cache_dir, policy=policy)

    def diagnostics(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    on_infra = None
    if args.skip_infra_failures:
        def on_infra(point, error) -> None:
            print(f"sweep: quarantined {point.stem()} "
                  f"ratio={point.clock_ratio} — {error}",
                  file=sys.stderr)

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal_module.signal(
            signal_module.SIGTERM, _sigterm)
    except ValueError:
        pass
    try:
        outcomes = runner.run(points, diagnostics=diagnostics,
                              on_infra_failure=on_infra)
    except Quarantined as err:
        print(f"sweep error: {err} (use --skip-infra-failures to "
              f"report-and-continue)", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("\nsweep interrupted; completed points are cached — "
              "re-run the same command to continue", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if previous_sigterm is not None:
            signal_module.signal(signal_module.SIGTERM,
                                 previous_sigterm)

    for point, outcome in zip(points, outcomes):
        label = (f"{point.workload:<10} "
                 f"{point.extension or 'baseline':<10} "
                 f"ratio={point.clock_ratio:<5} "
                 f"fifo={point.fifo_depth}")
        if outcome is None:
            print(f"{label} INFRA-FAILED")
        else:
            print(f"{label} cycles={outcome.cycles} "
                  f"digest={outcome.digest}")
    if runner.stats.interesting():
        print(f"pool: {runner.stats.summary()}", file=sys.stderr)
    for point, reason in runner.failures:
        print(f"quarantined: {point.stem()} "
              f"ratio={point.clock_ratio} — {reason}", file=sys.stderr)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Search the design space for Pareto-optimal monitor configs.

    Deterministic end to end: the same space/seed/budgets print the
    identical report and JSON whether run cold, resumed after kill -9
    (``--journal DIR --resume``), or as a served ``explore`` job.
    """
    import signal as signal_module

    from repro.checkpoint import JournalError
    from repro.engine.pool import PoolPolicy
    from repro.explore import (
        AdaptiveConfig,
        EvolveConfig,
        ExplorationReport,
        PointEvaluator,
        evolve,
        fractional_factorial,
        full_factorial,
        load_space,
    )
    from repro.explore.space import SpaceError
    from repro.faultinject.campaign import (
        CampaignError,
        CampaignInterrupted,
    )

    try:
        space = load_space(args.space)
    except SpaceError as err:
        raise _UsageError(f"explore error: {err}") from None
    if args.resume and args.journal is None:
        raise _UsageError("explore error: --resume requires --journal")
    if args.faults and args.ci_target is not None:
        raise _UsageError(
            "explore error: --faults (fixed-size campaigns) and "
            "--ci-target (adaptive campaigns) are mutually exclusive")
    adaptive = None
    if args.ci_target is not None:
        try:
            adaptive = AdaptiveConfig(
                batch=args.batch,
                min_faults=args.min_faults,
                max_faults=args.budget,
                target_half_width=args.ci_target,
            )
        except ValueError as err:
            raise _UsageError(f"explore error: {err}") from None
    if args.evolve:
        mode = "evolve"
    elif args.max_points is not None:
        mode = "fractional"
    else:
        mode = "factorial"
        if space.size > 512:
            raise _UsageError(
                f"explore error: full factorial over {space.size} "
                f"points is unreasonable; cap it with --max-points "
                f"or search with --evolve")

    def log(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    policy = PoolPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        fallback=args.serial_fallback,
    )
    evaluator = PointEvaluator(
        space,
        jobs=args.jobs,
        engine=args.engine,
        state_dir=args.journal,
        seed=args.seed,
        faults=args.faults,
        adaptive=adaptive,
        resume=args.resume,
        policy=policy,
        diagnostics=log,
        log=log,
    )

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    previous_sigterm = None
    try:
        previous_sigterm = signal_module.signal(
            signal_module.SIGTERM, _sigterm)
    except ValueError:
        pass
    try:
        if mode == "evolve":
            try:
                evolve_config = EvolveConfig(
                    population=args.population,
                    generations=args.generations,
                )
            except ValueError as err:
                raise _UsageError(
                    f"explore error: {err}") from None
            coverage = evaluator.coverage_enabled

            def objective_key(evaluation):
                if (not evaluation.feasible
                        or evaluation.slowdown is None
                        or (coverage and evaluation.coverage is None)):
                    return None
                return evaluation.objectives(coverage)

            evaluations = list(evolve(
                space, evaluator.evaluate, evolve_config,
                objective_key, seed=args.seed, log=log,
            ).values())
        else:
            if mode == "fractional":
                points = fractional_factorial(
                    space, args.max_points, seed=args.seed)
            else:
                points = full_factorial(space)
            log(f"{mode}: {len(points)} of {space.size} point(s)")
            evaluations = evaluator.evaluate(points)
    except (CampaignError, JournalError) as err:
        print(f"explore error: {err}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, CampaignInterrupted):
        print("\nexplore interrupted; completed work is cached"
              + (f" under {args.journal} — re-run with --resume to "
                 f"continue" if args.journal else
                 " in memory only — re-run with --journal DIR to "
                 "make exploration resumable"),
              file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if previous_sigterm is not None:
            signal_module.signal(signal_module.SIGTERM,
                                 previous_sigterm)

    report = ExplorationReport.build(
        space, mode, evaluations, evaluator.coverage_enabled)
    print(report.format(details=args.details))
    if evaluator.runner.stats.interesting():
        print(f"pool: {evaluator.runner.stats.summary()}",
              file=sys.stderr)
    if args.json is not None:
        report.write_json(args.json)
        print(f"\nJSON report written to {args.json}")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    program = _load(args.source, args.entry)
    print(disassemble_program(program))
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from repro.evaluation import format_table3, run_table3
    print(format_table3(run_table3(), compare=not args.no_compare))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    from repro.fabric import synthesize_asic, synthesize_fabric
    _register_mdl(args.mdl)
    extension = _make_extension(args.extension)
    fabric = synthesize_fabric(extension)
    asic = synthesize_asic(extension)
    print(f"{extension.name}: {extension.description}")
    print(f"  fabric: {fabric.luts} LUTs, {fabric.area_um2:,.0f} um^2, "
          f"{fabric.power_mw:.0f} mW, {fabric.fmax_mhz:.0f} MHz "
          f"(sustains a {fabric.clock_ratio}x fabric clock)")
    print(f"  ASIC:   {asic.area_um2 - 835_525:,.0f} um^2 over the "
          f"baseline, {asic.power_mw:.0f} mW total, "
          f"{asic.fmax_mhz:.0f} MHz")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile an MDL spec; report its hardware cost; optionally run
    it on a workload or print its Table-III rows."""
    from pathlib import Path

    from repro.fabric.mapping import map_network
    from repro.mdl import (
        MdlError,
        compile_spec,
        register_program,
        shipped_specs,
    )

    path = Path(args.spec)
    if not path.exists():
        shipped = shipped_specs()
        if args.spec in shipped:
            path = shipped[args.spec]
        else:
            names = ", ".join(sorted(shipped))
            raise _UsageError(
                f"compile error: {args.spec!r} is neither a file nor "
                f"a shipped spec (shipped: {names})"
            )
    try:
        source = path.read_text()
    except OSError as err:
        raise _UsageError(f"compile error: {err}") from None
    try:
        program = compile_spec(source, str(path))
    except MdlError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE

    monitor = program.ir
    mapping = map_network(program.hardware())
    flex_rules = sum(1 for r in monitor.rules if r.flex_opfs)
    class_rules = len(monitor.rules) - flex_rules
    meta = []
    if monitor.register_tag_bits:
        meta.append(f"{monitor.register_tag_bits}-bit register tags")
    if monitor.memory_tag_bits:
        meta.append(f"{monitor.memory_tag_bits}-bit memory tags")
    print(f"{program.name}: {monitor.description}")
    print(f"  meta    : {', '.join(meta) if meta else 'none'}")
    print(f"  rules   : {len(monitor.rules)} "
          f"({class_rules} instruction-class, {flex_rules} flex-op)")
    print(f"  forward : "
          f"{', '.join(sorted(c.name for c in monitor.forward_classes))}")
    print(f"  mapping : {mapping.luts} LUTs, {mapping.flipflops} FFs, "
          f"{mapping.pipeline_stages} pipeline stages")

    if args.table3:
        from repro.evaluation import format_table3, run_table3
        register_program(program, replace=True)
        print()
        print(format_table3(run_table3(extensions=(program.name,)),
                            compare=not args.no_compare))

    if args.run is not None:
        from repro.telemetry import run_digest
        from repro.workloads import build_workload
        try:
            workload = build_workload(args.run, args.scale).build()
        except (KeyError, ValueError) as err:
            raise _UsageError(f"compile error: {err}") from None
        try:
            result = run_program(
                workload,
                program.create(),
                clock_ratio=args.ratio,
                fifo_depth=args.fifo,
            )
        except SimulationError as err:
            print(f"simulation error: {err.diagnosis()}",
                  file=sys.stderr)
            return EXIT_SIMULATION_ERROR
        print()
        print(f"run {args.run}:")
        print(f"  instructions : {result.instructions}")
        print(f"  cycles       : {result.cycles}")
        print(f"  CPI          : {result.cpi:.2f}")
        print(f"  digest       : {run_digest(result)}")
        if result.trap is not None:
            print(f"  TRAP         : {result.trap}")
            return EXIT_TRAP
    return 0


def _add_pool_robustness_args(cmd: argparse.ArgumentParser) -> None:
    """The supervised-pool knobs shared by ``inject`` and ``sweep``.

    None of these affect results (only whether/when an item completes
    here-and-now), so they are free to vary between a run and its
    resume."""
    cmd.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="pool deadline per task; a worker past it is presumed "
             "hung, killed and its task retried (default: derived "
             "from the wall-clock watchdog, or unlimited)",
    )
    cmd.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="infra retries per item before quarantining it as "
             "infra-failed (default: 2)",
    )
    cmd.add_argument(
        "--serial-fallback", choices=("auto", "never", "force"),
        default="auto",
        help="when the pool is irrecoverably broken: 'auto' degrades "
             "to in-process serial execution (bit-identical results), "
             "'never' fails instead, 'force' skips the pool entirely",
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import JobServer, ServerConfig

    config = ServerConfig(
        capacity=args.capacity,
        runners=args.runners,
        quota=args.quota,
        fleet=args.fleet,
        heartbeat=args.heartbeat,
        job_deadline=args.job_deadline,
        trace=args.trace,
        trace_dir=args.trace_dir,
        slo=args.slo,
        forensics=not args.no_forensics,
        metrics=not args.no_metrics,
    )
    server = JobServer(args.state_dir, args.listen, config)

    async def run() -> None:
        await server.start()
        print(
            f"repro job server: listening on {args.listen} "
            f"(state: {args.state_dir}, capacity {config.capacity}, "
            f"{config.runners} runner(s), fleet {config.fleet})",
            file=sys.stderr, flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    return 0


def _service_client(args: argparse.Namespace,
                    timeout: float | None = 30.0):
    from repro.service import Client
    return Client(args.connect,
                  tenant=getattr(args, "tenant", "default"),
                  timeout=timeout)


def cmd_submit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service.client import ServiceError, ServiceRejected
    from repro.service.protocol import ProtocolError

    if args.spec is not None:
        raw = args.spec
    else:
        with open(args.spec_file) as handle:
            raw = handle.read()
    try:
        spec = json_module.loads(raw)
    except ValueError as err:
        raise _UsageError(f"spec is not valid JSON: {err}") from None
    try:
        with _service_client(args) as client:
            try:
                response = client.submit(
                    args.kind, spec,
                    wait_on_backpressure=args.backpressure_retries)
            except ServiceRejected as err:
                print(
                    f"rejected: {err} (retry after "
                    f"{err.retry_after:g}s)", file=sys.stderr)
                return 1
            job_id = response["job_id"]
            note = (" (deduplicated)"
                    if response.get("deduplicated") else "")
            print(f"{job_id} {response['state']}{note}")
            if not args.wait:
                return 0
            job = client.wait(job_id, deadline=args.deadline)
            print(f"{job_id} {job['state']}"
                  + (f" {job['detail']}" if job["detail"] else ""))
            return 0 if job["state"] == "done" else 1
    except (ProtocolError, ServiceError, OSError) as err:
        print(f"submit error: {err}", file=sys.stderr)
        return 1


def cmd_tail(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    try:
        # no socket timeout: a tailed campaign may be silent for
        # minutes between state transitions
        with _service_client(args, timeout=None) as client:
            exit_code = 0
            for event in client.tail(args.job_id, since=args.since):
                if event.get("event") == "end":
                    detail = event.get("detail", "")
                    print(f"end {event['state']}"
                          + (f" {detail}" if detail else ""))
                    exit_code = 0 if event["state"] == "done" else 1
                    break
                detail = event.get("detail", "")
                print(f"v{event['version']} {event['state']}"
                      + (f" {detail}" if detail else ""),
                      flush=True)
            if args.trace is not None:
                _write_job_trace(client, args.job_id, args.trace)
            return exit_code
    except (ServiceError, OSError) as err:
        print(f"tail error: {err}", file=sys.stderr)
        return 1


def _write_job_trace(client, job_id: str, path: str) -> None:
    """Fetch a job's trace events and write a merged Perfetto doc."""
    import json as json_module

    from repro.telemetry.trace import TraceEvent, events_to_perfetto

    response = client.trace(job_id)
    events = [TraceEvent.from_dict(raw)
              for raw in response.get("events", [])]
    document = events_to_perfetto(
        events,
        process_name="repro-service",
        time_unit="wall-clock microseconds since server start",
    )
    with open(path, "w") as handle:
        json_module.dump(document, handle, sort_keys=True)
        handle.write("\n")
    print(f"trace ({len(events)} events) written to {path}",
          file=sys.stderr)


def cmd_status(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    try:
        with _service_client(args) as client:
            if args.job_id is None:
                if args.metrics:
                    response = client.metrics()
                    print(response["prometheus"], end="")
                    return 0
                health = client.health()
                from repro.telemetry.summary import (
                    format_service_health,
                )
                print(format_service_health(health))
                return 0
            job = client.status(args.job_id)
            print(f"{job['id']} {job['kind']} {job['state']}"
                  + (f" {job['detail']}" if job["detail"] else ""))
            if args.result is not None:
                if job["state"] != "done":
                    print(
                        f"status error: job is {job['state']}, no "
                        f"result to fetch", file=sys.stderr)
                    return 1
                document = client.result(job["id"])["document"]
                # Byte-exact: CI `cmp`s this file against a locally
                # computed reference report.
                with open(args.result, "w", newline="") as handle:
                    handle.write(document)
                print(f"result written to {args.result}")
            return 0 if job["state"] != "failed" else 1
    except (ServiceError, OSError) as err:
        print(f"status error: {err}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FlexCore reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser("run", help="simulate a .s program")
    run_cmd.add_argument(
        "source", nargs="?", default=None,
        help="assembly source file (or use --workload)",
    )
    run_cmd.add_argument(
        "--workload", default=None,
        help="registered workload kernel to run (e.g. crc32, sha)",
    )
    run_cmd.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale (default: the fast test variant)",
    )
    run_cmd.add_argument("--entry", default="start")
    run_cmd.add_argument(
        "--extension", default=None,
        help="monitoring extension to attach (built-in or --mdl name)",
    )
    run_cmd.add_argument(
        "--mdl", action="append", default=[], metavar="SPEC",
        help="compile and register an MDL monitor spec (repeatable)",
    )
    run_cmd.add_argument("--ratio", type=float, default=0.5,
                         help="fabric:core clock ratio")
    run_cmd.add_argument("--fifo", type=int, default=64,
                         help="forward FIFO depth")
    run_cmd.add_argument("--max-instructions", type=int, default=None)
    run_cmd.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint the full system state every N instructions",
    )
    run_cmd.add_argument(
        "--recover", action="store_true",
        help="on a monitor TRAP, roll back to the last checkpoint "
             "and re-execute instead of stopping",
    )
    run_cmd.add_argument(
        "--stats", action="store_true",
        help="print the one-screen metrics summary (CPI, stall "
             "breakdown, cache hit rates, FIFO high-water mark)",
    )
    run_cmd.add_argument(
        "--metrics", action="store_true",
        help="publish the run's stats as metrics at run end and dump "
             "them",
    )
    run_cmd.add_argument(
        "--digest", action="store_true",
        help="print the canonical RunResult digest (CI golden check)",
    )
    run_cmd.add_argument(
        "--engine", choices=ENGINES,
        default=None,
        help="execution engine (default fast, with or without "
             "--metrics; superblock is an alias of fast; all are "
             "bit-identical)",
    )
    run_cmd.set_defaults(handler=cmd_run)

    trace_cmd = commands.add_parser(
        "trace",
        help="simulate with full telemetry and export a cycle trace",
    )
    trace_cmd.add_argument(
        "source", nargs="?", default=None,
        help="assembly source file (or use --workload)",
    )
    trace_cmd.add_argument(
        "--workload", default=None,
        help="registered workload kernel to trace (e.g. crc32, sha)",
    )
    trace_cmd.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale (default: the fast test variant)",
    )
    trace_cmd.add_argument("--entry", default="start")
    trace_cmd.add_argument(
        "--extension", default=None,
        help="monitoring extension to attach (built-in or --mdl name)",
    )
    trace_cmd.add_argument(
        "--mdl", action="append", default=[], metavar="SPEC",
        help="compile and register an MDL monitor spec (repeatable)",
    )
    trace_cmd.add_argument("--ratio", type=float, default=0.5,
                           help="fabric:core clock ratio")
    trace_cmd.add_argument("--fifo", type=int, default=64,
                           help="forward FIFO depth")
    trace_cmd.add_argument("--max-instructions", type=int, default=None)
    trace_cmd.add_argument(
        "--buffer", type=int, default=65_536, metavar="N",
        help="trace ring-buffer capacity in events (oldest events "
             "are overwritten when full)",
    )
    trace_cmd.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="write a Chrome/Perfetto trace_event JSON here",
    )
    trace_cmd.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write one JSON event per line here",
    )
    trace_cmd.add_argument(
        "--stats", action="store_true",
        help="also print the one-screen metrics summary",
    )
    trace_cmd.add_argument(
        "--engine", choices=ENGINES,
        default=None,
        help="execution engine (tracing forces the reference engine)",
    )
    trace_cmd.set_defaults(handler=cmd_trace)

    inject_cmd = commands.add_parser(
        "inject",
        help="run a fault-injection campaign against a monitor",
    )
    inject_cmd.add_argument(
        "--extension", required=True,
        help="monitoring extension under evaluation "
             "(built-in or --mdl name)",
    )
    inject_cmd.add_argument(
        "--mdl", action="append", default=[], metavar="SPEC",
        help="compile and register an MDL monitor spec (repeatable)",
    )
    target = inject_cmd.add_mutually_exclusive_group(required=True)
    target.add_argument(
        "--workload", default=None,
        help="registered workload kernel to run (e.g. crc32, sha)",
    )
    target.add_argument(
        "--source", default=None,
        help="assembly source file to run instead of a workload",
    )
    inject_cmd.add_argument("--entry", default="start")
    inject_cmd.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale (default: the fast test variant)",
    )
    inject_cmd.add_argument("--faults", type=int, default=100,
                            help="number of faulted runs")
    inject_cmd.add_argument("--seed", type=int, default=1,
                            help="campaign seed (bit-reproducible)")
    inject_cmd.add_argument(
        "--models", default=None,
        help="comma-separated fault models (default: all applicable)",
    )
    inject_cmd.add_argument("--ratio", type=float, default=0.5,
                            help="fabric:core clock ratio")
    inject_cmd.add_argument("--fifo", type=int, default=64,
                            help="forward FIFO depth")
    inject_cmd.add_argument("--jobs", type=int, default=1,
                            help="worker processes")
    inject_cmd.add_argument(
        "--no-warm-start", action="store_true",
        help="run every fault from reset to the end instead of "
             "forking from the golden run's landmark states or "
             "deciding CFGR upsets of never-committed classes from "
             "the golden profile",
    )
    inject_cmd.add_argument("--json", default=None, metavar="PATH",
                            help="also write the JSON report here")
    inject_cmd.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append every result to a crash-tolerant journal",
    )
    inject_cmd.add_argument(
        "--resume", action="store_true",
        help="replay the journal and only run the missing faults",
    )
    inject_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache golden-run profiles here across campaigns",
    )
    inject_cmd.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="periodic checkpoint interval for faulted runs",
    )
    inject_cmd.add_argument(
        "--recover", action="store_true",
        help="roll back + re-execute on monitor traps "
             "(requires --checkpoint-every)",
    )
    inject_cmd.add_argument(
        "--metrics", action="store_true",
        help="print the per-outcome metric aggregation and the "
             "campaign's wall-clock phase profile",
    )
    inject_cmd.add_argument("--details", action="store_true",
                            help="list every run in the report")
    inject_cmd.add_argument("--progress", action="store_true",
                            help="show run progress on stderr")
    _add_pool_robustness_args(inject_cmd)
    inject_cmd.set_defaults(handler=cmd_inject)

    sweep_cmd = commands.add_parser(
        "sweep",
        help="run an evaluation sweep grid across the worker pool",
    )
    sweep_cmd.add_argument(
        "--benchmarks", default=None,
        help="comma-separated workload subset (default: all)",
    )
    sweep_cmd.add_argument(
        "--extensions", default=None,
        help="comma-separated extension subset (default: all)",
    )
    sweep_cmd.add_argument(
        "--ratios", default=None,
        help="comma-separated fabric clock ratios "
             "(default: the paper's 1.0,0.5,0.25)",
    )
    sweep_cmd.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale (default: the fast test variant)",
    )
    sweep_cmd.add_argument("--jobs", type=int, default=1,
                           help="worker processes")
    sweep_cmd.add_argument(
        "--engine", choices=ENGINES,
        default="fast",
        help="execution engine (superblock is an alias of fast; all "
             "are bit-identical)",
    )
    sweep_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache per-point outcomes here; an interrupted sweep "
             "resumes from the cache on re-run",
    )
    sweep_cmd.add_argument(
        "--skip-infra-failures", action="store_true",
        help="report points whose workers keep dying as INFRA-FAILED "
             "and continue, instead of failing the sweep",
    )
    sweep_cmd.add_argument("--verbose", action="store_true",
                           help="print cache/pool diagnostics")
    _add_pool_robustness_args(sweep_cmd)
    sweep_cmd.set_defaults(handler=cmd_sweep)

    explore_cmd = commands.add_parser(
        "explore",
        help="search the design space for Pareto-optimal monitor "
             "configurations (coverage vs slowdown vs LUT area)",
    )
    explore_cmd.add_argument(
        "space",
        help="space description: a preset name (smoke, table4, "
             "paper) or a .toml file with workloads/extensions/"
             "fifo_depths/clock_ratios[/meta_cache_sizes] axes",
    )
    explore_cmd.add_argument(
        "--evolve", action="store_true",
        help="seeded evolutionary search instead of factorial "
             "enumeration (for spaces too big to brute-force)",
    )
    explore_cmd.add_argument(
        "--population", type=int, default=8,
        help="evolutionary population size (default: 8)",
    )
    explore_cmd.add_argument(
        "--generations", type=int, default=4,
        help="evolutionary generations (default: 4)",
    )
    explore_cmd.add_argument(
        "--max-points", type=int, default=None, metavar="N",
        help="deterministic fractional factorial: evaluate a seeded "
             "N-point sample of the grid",
    )
    explore_cmd.add_argument(
        "--faults", type=int, default=0, metavar="N",
        help="score coverage with fixed-size campaigns of N faults "
             "per configuration (default: no coverage objective)",
    )
    explore_cmd.add_argument(
        "--ci-target", type=float, default=None, metavar="HW",
        help="score coverage with adaptive campaigns: inject until "
             "every outcome rate's Wilson 95%% half-width is <= HW",
    )
    explore_cmd.add_argument(
        "--budget", type=int, default=400, metavar="N",
        help="adaptive campaigns: hard fault budget cap "
             "(default: 400)",
    )
    explore_cmd.add_argument(
        "--batch", type=int, default=50, metavar="N",
        help="adaptive campaigns: faults per batch; the stopping "
             "rule runs at batch boundaries (default: 50)",
    )
    explore_cmd.add_argument(
        "--min-faults", type=int, default=50, metavar="N",
        help="adaptive campaigns: never stop before N faults "
             "(default: 50)",
    )
    explore_cmd.add_argument(
        "--seed", type=int, default=1,
        help="seed for campaigns and the evolutionary/fractional "
             "draw (default: 1)",
    )
    explore_cmd.add_argument("--jobs", type=int, default=1,
                             help="worker processes")
    explore_cmd.add_argument(
        "--engine", choices=ENGINES,
        default="fast",
        help="execution engine (superblock is an alias of fast; all "
             "are bit-identical)",
    )
    explore_cmd.add_argument(
        "--journal", default=None, metavar="DIR",
        help="exploration state directory (sweep cache, campaign "
             "journals, golden cache); makes kill -9 resumable",
    )
    explore_cmd.add_argument(
        "--resume", action="store_true",
        help="resume campaign journals under --journal instead of "
             "restarting them",
    )
    explore_cmd.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full report as JSON",
    )
    explore_cmd.add_argument(
        "--details", action="store_true",
        help="list dominated and infeasible points too",
    )
    explore_cmd.add_argument("--verbose", action="store_true",
                             help="print sweep/campaign progress")
    _add_pool_robustness_args(explore_cmd)
    explore_cmd.set_defaults(handler=cmd_explore)

    disasm_cmd = commands.add_parser("disasm",
                                     help="disassemble a .s program")
    disasm_cmd.add_argument("source")
    disasm_cmd.add_argument("--entry", default="start")
    disasm_cmd.set_defaults(handler=cmd_disasm)

    table3_cmd = commands.add_parser("table3",
                                     help="print the Table III report")
    table3_cmd.add_argument("--no-compare", action="store_true",
                            help="omit the paper's reference numbers")
    table3_cmd.set_defaults(handler=cmd_table3)

    synth_cmd = commands.add_parser(
        "synth", help="synthesize one extension (fabric + ASIC)"
    )
    synth_cmd.add_argument(
        "extension",
        help="extension to synthesize (built-in or --mdl name)",
    )
    synth_cmd.add_argument(
        "--mdl", action="append", default=[], metavar="SPEC",
        help="compile and register an MDL monitor spec (repeatable)",
    )
    synth_cmd.set_defaults(handler=cmd_synth)

    compile_cmd = commands.add_parser(
        "compile",
        help="compile an MDL monitor spec; synthesize or run it",
    )
    compile_cmd.add_argument(
        "spec",
        help="an .mdl file, or a shipped spec name (umc, bc)",
    )
    compile_cmd.add_argument(
        "--table3", action="store_true",
        help="print the monitor's Table-III rows (ASIC + fabric)",
    )
    compile_cmd.add_argument(
        "--no-compare", action="store_true",
        help="omit the paper's reference numbers from --table3",
    )
    compile_cmd.add_argument(
        "--run", default=None, metavar="WORKLOAD",
        help="run the compiled monitor on a registered workload",
    )
    compile_cmd.add_argument(
        "--scale", type=float, default=0.125,
        help="workload scale for --run (default: fast test variant)",
    )
    compile_cmd.add_argument("--ratio", type=float, default=0.5,
                             help="fabric:core clock ratio for --run")
    compile_cmd.add_argument("--fifo", type=int, default=64,
                             help="forward FIFO depth for --run")
    compile_cmd.set_defaults(handler=cmd_compile)

    serve_cmd = commands.add_parser(
        "serve", help="run the crash-safe campaign job server"
    )
    serve_cmd.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="durable service state (job journal, results, "
             "campaign journals)",
    )
    serve_cmd.add_argument(
        "--listen", required=True, metavar="ADDR",
        help="unix:/path, /path, or host:port",
    )
    serve_cmd.add_argument("--capacity", type=int, default=64,
                           help="admission queue capacity")
    serve_cmd.add_argument("--runners", type=int, default=2,
                           help="concurrent job runner threads")
    serve_cmd.add_argument("--quota", type=int, default=8,
                           help="per-tenant live-job quota")
    serve_cmd.add_argument("--fleet", type=int, default=4,
                           help="shared worker-process budget for "
                                "job fan-out")
    serve_cmd.add_argument("--heartbeat", type=float, default=1.0,
                           metavar="SECONDS",
                           help="heartbeat period")
    serve_cmd.add_argument("--job-deadline", type=float, default=None,
                           metavar="SECONDS",
                           help="cooperative wall-clock deadline "
                                "per job (default: unlimited)")
    serve_cmd.add_argument("--trace", action="store_true",
                           help="enable end-to-end job tracing into "
                                "an in-memory ring (serve it via the "
                                "trace op / repro tail --trace)")
    serve_cmd.add_argument("--trace-dir", default=None, metavar="DIR",
                           help="export each finished job's merged "
                                "Perfetto trace here (implies "
                                "--trace)")
    serve_cmd.add_argument("--slo", type=float, default=None,
                           metavar="SECONDS",
                           help="submit-to-result p95 SLO target "
                                "reflected in health (default: track "
                                "latencies without a threshold)")
    serve_cmd.add_argument("--no-forensics", action="store_true",
                           help="disable post-mortem bundles under "
                                "<state-dir>/.forensics/")
    serve_cmd.add_argument("--no-metrics", action="store_true",
                           help="disable the metrics registry "
                                "entirely (overhead comparison; the "
                                "metrics op returns empty snapshots)")
    serve_cmd.set_defaults(handler=cmd_serve)

    submit_cmd = commands.add_parser(
        "submit", help="submit a job to a running job server"
    )
    submit_cmd.add_argument("--connect", required=True, metavar="ADDR",
                            help="server address (unix:/path, /path "
                                 "or host:port)")
    submit_cmd.add_argument("--tenant", default="default",
                            help="tenant name for quota accounting")
    submit_cmd.add_argument(
        "kind",
        choices=("inject", "sweep", "explore", "run", "compile",
                 "sleep"),
        help="job kind",
    )
    spec_source = submit_cmd.add_mutually_exclusive_group(
        required=True)
    spec_source.add_argument("--spec", default=None, metavar="JSON",
                             help="job spec as inline JSON")
    spec_source.add_argument("--spec-file", default=None,
                             metavar="PATH",
                             help="job spec from a JSON file")
    submit_cmd.add_argument(
        "--backpressure-retries", type=int, default=0, metavar="N",
        help="on reject-with-retry-after, sleep the hint and retry "
             "up to N times (default: fail immediately)",
    )
    submit_cmd.add_argument("--wait", action="store_true",
                            help="block until the job is terminal")
    submit_cmd.add_argument("--deadline", type=float, default=None,
                            metavar="SECONDS",
                            help="give up on --wait after this long")
    submit_cmd.set_defaults(handler=cmd_submit)

    tail_cmd = commands.add_parser(
        "tail", help="stream a job's state transitions"
    )
    tail_cmd.add_argument("--connect", required=True, metavar="ADDR")
    tail_cmd.add_argument("job_id")
    tail_cmd.add_argument("--since", type=int, default=-1,
                          metavar="VERSION",
                          help="only events after this version")
    tail_cmd.add_argument(
        "--trace", default=None, metavar="PATH",
        help="after the job ends, fetch its end-to-end trace and "
             "write a merged Perfetto JSON here (requires a server "
             "started with --trace/--trace-dir)",
    )
    tail_cmd.set_defaults(handler=cmd_tail)

    status_cmd = commands.add_parser(
        "status", help="show server health or one job's status"
    )
    status_cmd.add_argument("--connect", required=True,
                            metavar="ADDR")
    status_cmd.add_argument("job_id", nargs="?", default=None)
    status_cmd.add_argument(
        "--result", default=None, metavar="PATH",
        help="write the job's result document (byte-exact) here",
    )
    status_cmd.add_argument(
        "--metrics", action="store_true",
        help="print the server's Prometheus text exposition "
             "(server-level status only)",
    )
    status_cmd.set_defaults(handler=cmd_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
