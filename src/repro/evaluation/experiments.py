"""Experiment runners: one function per table/figure of the paper.

Every function returns plain data structures so the benchmark harness,
the tests and the report generator can share them.  Formatting lives
in :mod:`repro.evaluation.tables`.

Every simulation runs through :mod:`repro.engine.sweep` on the fast
engine: the sweeps (Table IV, Figures 4 and 5) through
:class:`~repro.engine.sweep.SweepRunner`, which accepts ``jobs=`` to
fan grid points across a process pool, and the single runs of the
software comparison and the decode ablation through
:func:`~repro.engine.sweep.run_point`.  Both check each workload's
checksum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.evaluation.config import (
    CLOCK_RATIOS,
    FIFO_SWEEP,
    FLEXCORE_RATIOS,
    experiment_system_config,
)
from repro.extensions import EXTENSION_NAMES, create_extension
from repro.fabric import fifo_area_um2
from repro.fabric.synthesis import (
    SynthesisReport,
    baseline_report,
    synthesize_asic,
    synthesize_common,
    synthesize_fabric,
)
from repro.flexcore.packet import PACKET_BITS
from repro.software.instrumentation import SOFTWARE_TOOLS, run_instrumented
from repro.workloads import build_workload, workload_names


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Table III.


@dataclass
class Table3Result:
    baseline: SynthesisReport
    asic: dict[str, SynthesisReport]
    common: SynthesisReport
    fabric: dict[str, SynthesisReport]
    #: row order; defaults to the paper's four prototypes.
    extensions: tuple[str, ...] = EXTENSION_NAMES


def run_table3(extensions=EXTENSION_NAMES) -> Table3Result:
    """Area, power, and frequency of every implementation target.

    ``extensions`` defaults to the paper's four prototypes but accepts
    any registered extension names — including MDL-compiled monitors —
    so ``repro compile --table3`` can price a single new monitor.
    """
    asic, fabric = {}, {}
    for name in extensions:
        extension = create_extension(name)
        asic[name] = synthesize_asic(extension)
        fabric[name] = synthesize_fabric(extension)
    return Table3Result(
        baseline=baseline_report(),
        asic=asic,
        common=synthesize_common(),
        fabric=fabric,
        extensions=tuple(extensions),
    )


# ---------------------------------------------------------------------------
# Table IV.


@dataclass
class Table4Cell:
    benchmark: str
    extension: str
    clock_ratio: float
    normalized_time: float
    forwarded_fraction: float
    fifo_stall_cycles: int
    meta_stall_cycles: float


@dataclass
class Table4Result:
    cells: list[Table4Cell] = field(default_factory=list)
    baseline_cycles: dict[str, int] = field(default_factory=dict)

    def cell(self, benchmark: str, extension: str, ratio: float
             ) -> Table4Cell:
        for cell in self.cells:
            if (cell.benchmark == benchmark
                    and cell.extension == extension
                    and cell.clock_ratio == ratio):
                return cell
        raise KeyError((benchmark, extension, ratio))

    def geomean(self, extension: str, ratio: float) -> float:
        return geomean(
            cell.normalized_time
            for cell in self.cells
            if cell.extension == extension and cell.clock_ratio == ratio
        )


def run_table4(
    scale: int = 1,
    benchmarks=None,
    extensions=EXTENSION_NAMES,
    ratios=CLOCK_RATIOS,
    jobs: int = 1,
) -> Table4Result:
    """Normalized execution time per benchmark/extension/clock ratio.

    Ratio 1.0 is the full-ASIC comparison point; 0.5/0.25 are the
    FlexCore fabric clocks of Table IV.
    """
    # Imported here (not at module level): the sweep module imports
    # this package's config, so a top-level import would be circular.
    from repro.engine.sweep import SweepPoint, SweepRunner, table4_points

    benchmarks = benchmarks or workload_names()
    points = table4_points(scale, benchmarks, extensions, ratios)
    outcomes = SweepRunner(jobs=jobs).run(points)
    by_point = {o.point: o for o in outcomes}
    result = Table4Result()
    for bench in benchmarks:
        base = SweepPoint(workload=bench, scale=scale)
        baseline_cycles = by_point[base].cycles
        result.baseline_cycles[bench] = baseline_cycles
        for extension in extensions:
            for ratio in ratios:
                outcome = by_point[replace(base, extension=extension,
                                           clock_ratio=ratio)]
                result.cells.append(Table4Cell(
                    benchmark=bench,
                    extension=extension,
                    clock_ratio=ratio,
                    normalized_time=outcome.cycles / baseline_cycles,
                    forwarded_fraction=outcome.forwarded_fraction,
                    fifo_stall_cycles=outcome.fifo_stall_cycles,
                    meta_stall_cycles=outcome.meta_stall_cycles,
                ))
    return result


# ---------------------------------------------------------------------------
# Figure 4.


def run_figure4(
    scale: int = 1,
    benchmarks=None,
    jobs: int = 1,
) -> dict[str, dict[str, float]]:
    """Fraction of committed instructions forwarded to the fabric.

    Returns ``{benchmark: {extension: fraction}}``.
    """
    from repro.engine.sweep import SweepPoint, SweepRunner

    benchmarks = benchmarks or workload_names()
    points = [
        SweepPoint(workload=bench, extension=extension,
                   clock_ratio=FLEXCORE_RATIOS[extension], scale=scale)
        for bench in benchmarks
        for extension in EXTENSION_NAMES
    ]
    outcomes = SweepRunner(jobs=jobs).run(points)
    fractions: dict[str, dict[str, float]] = {b: {} for b in benchmarks}
    for outcome in outcomes:
        point = outcome.point
        fractions[point.workload][point.extension] = (
            outcome.forwarded_fraction
        )
    return fractions


# ---------------------------------------------------------------------------
# Figure 5.


@dataclass
class Figure5Result:
    #: {extension: {fifo_depth: average normalized time}}
    times: dict[str, dict[int, float]]
    #: {fifo_depth: forward-FIFO silicon area} (the ~10% growth claim)
    fifo_area_um2: dict[int, float]


def run_figure5(
    scale: int = 1,
    depths=FIFO_SWEEP,
    benchmarks=None,
    jobs: int = 1,
) -> Figure5Result:
    """Average normalized execution time vs forward-FIFO size.

    Each extension runs at its Table IV fabric clock (0.5X; SEC 0.25X).
    """
    from repro.engine.sweep import SweepPoint, SweepRunner

    benchmarks = benchmarks or workload_names()
    points = [SweepPoint(workload=bench, scale=scale)
              for bench in benchmarks]
    points += [
        SweepPoint(workload=bench, extension=extension,
                   clock_ratio=FLEXCORE_RATIOS[extension],
                   fifo_depth=depth, scale=scale)
        for extension in EXTENSION_NAMES
        for depth in depths
        for bench in benchmarks
    ]
    outcomes = SweepRunner(jobs=jobs).run(points)
    by_point = {o.point: o for o in outcomes}
    baselines = {
        b: by_point[SweepPoint(workload=b, scale=scale)].cycles
        for b in benchmarks
    }
    times: dict[str, dict[int, float]] = {}
    for extension in EXTENSION_NAMES:
        ratio = FLEXCORE_RATIOS[extension]
        times[extension] = {}
        for depth in depths:
            normalized = [
                by_point[SweepPoint(
                    workload=b, extension=extension, clock_ratio=ratio,
                    fifo_depth=depth, scale=scale,
                )].cycles / baselines[b]
                for b in benchmarks
            ]
            times[extension][depth] = geomean(normalized)
    areas = {d: fifo_area_um2(d, PACKET_BITS) for d in depths}
    return Figure5Result(times=times, fifo_area_um2=areas)


# ---------------------------------------------------------------------------
# Section V-C: software monitoring comparison.


def run_software(scale: int = 1, benchmarks=None) -> dict[str, dict[str, float]]:
    """Software-instrumentation slowdowns: {tool: {benchmark: x}}."""
    from repro.engine.sweep import SweepPoint, run_point

    benchmarks = benchmarks or workload_names()
    config = experiment_system_config(clock_ratio=1.0)
    slowdowns: dict[str, dict[str, float]] = {}
    baselines = {}
    for bench in benchmarks:
        workload = build_workload(bench, scale)
        base = run_point(SweepPoint(workload=bench, scale=scale),
                         workload=workload)
        baselines[bench] = (workload, base.cycles)
    for tool, factory in SOFTWARE_TOOLS.items():
        spec = factory()
        slowdowns[tool] = {}
        for bench in benchmarks:
            workload, base_cycles = baselines[bench]
            run = run_instrumented(workload.build(), spec, config)
            slowdowns[tool][bench] = run.cycles / base_cycles
    return slowdowns


# ---------------------------------------------------------------------------
# Section III-C ablation: core-side pre-decoding.


def run_decode_ablation(
    scale: int = 1, extension: str = "dift", benchmarks=None
) -> dict[str, tuple[float, float]]:
    """Normalized time with and without core-side instruction
    decoding (the paper: DIFT runs ~30% faster with pre-decoding).

    Returns {benchmark: (with_predecode, without)}.
    """
    from repro.engine.sweep import SweepPoint, run_point

    benchmarks = benchmarks or workload_names()
    ratio = FLEXCORE_RATIOS[extension]
    out = {}
    for bench in benchmarks:
        workload = build_workload(bench, scale)
        point = SweepPoint(workload=bench, scale=scale)
        base = run_point(point, workload=workload).cycles
        point = replace(point, extension=extension, clock_ratio=ratio)
        with_decode = run_point(point, workload=workload).cycles / base
        point = replace(point, predecode=False)
        without = run_point(point, workload=workload).cycles / base
        out[bench] = (with_decode, without)
    return out
