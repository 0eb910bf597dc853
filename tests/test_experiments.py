"""Experiment harness: small-scale shape checks of every table/figure."""

import pytest

from repro.evaluation import (
    FLEXCORE_RATIOS,
    format_figure4,
    format_figure5,
    format_software,
    format_table3,
    format_table4,
    geomean,
    run_decode_ablation,
    run_figure4,
    run_figure5,
    run_software,
    run_table3,
    run_table4,
)

SCALE = 0.125
FAST_BENCHES = ("sha", "basicmath", "bitcount")


class TestTable3:
    def test_runs_and_formats(self):
        result = run_table3()
        text = format_table3(result)
        assert "Baseline" in text and "FlexCore" in text
        assert "umc" in text

    def test_flexcore_ratios_derived_from_synthesis(self):
        result = run_table3()
        for name, ratio in FLEXCORE_RATIOS.items():
            assert result.fabric[name].clock_ratio == ratio


@pytest.fixture(scope="module")
def table4():
    return run_table4(scale=SCALE, benchmarks=FAST_BENCHES)


class TestTable4:
    def test_all_cells_present(self, table4):
        assert len(table4.cells) == len(FAST_BENCHES) * 4 * 3

    def test_normalized_times_at_least_one(self, table4):
        for cell in table4.cells:
            assert cell.normalized_time >= 0.999

    def test_slower_clock_never_faster(self, table4):
        for bench in FAST_BENCHES:
            for ext in ("umc", "dift", "bc", "sec"):
                t1 = table4.cell(bench, ext, 1.0).normalized_time
                t2 = table4.cell(bench, ext, 0.5).normalized_time
                t3 = table4.cell(bench, ext, 0.25).normalized_time
                assert t1 <= t2 + 1e-9 <= t3 + 2e-9

    def test_umc_is_cheapest_extension(self, table4):
        for ratio in (0.5, 0.25):
            umc = table4.geomean("umc", ratio)
            for other in ("dift", "sec"):
                assert umc <= table4.geomean(other, ratio)

    def test_sha_nearly_free_under_umc(self, table4):
        """DESIGN.md: sha is nearly free for UMC (1.002 at this scale;
        UMC's geomean 1.001)."""
        assert table4.cell("sha", "umc", 0.5).normalized_time < 1.02
        assert table4.geomean("umc", 0.5) < 1.03

    def test_asic_point_near_one(self, table4):
        """At 1X (the ASIC comparison) overheads stay under ~10%."""
        for ext in ("umc", "dift", "bc", "sec"):
            assert table4.geomean(ext, 1.0) < 1.10

    def test_formatting(self, table4):
        text = format_table4(table4)
        assert "geomean" in text and "umc" in text

    def test_missing_cell_raises(self, table4):
        with pytest.raises(KeyError):
            table4.cell("sha", "umc", 0.33)


class TestFigure4:
    def test_fraction_shapes(self):
        fractions = run_figure4(scale=SCALE, benchmarks=("sha",
                                                         "stringsearch"))
        for bench in fractions:
            per_ext = fractions[bench]
            assert 0 < per_ext["umc"] < per_ext["dift"] <= 1.0
            assert per_ext["bc"] <= per_ext["dift"]
        text = format_figure4(fractions)
        assert "%" in text


class TestFigure5:
    def test_monotone_in_fifo_depth(self):
        result = run_figure5(scale=SCALE, depths=(8, 64, 256),
                             benchmarks=("sha", "bitcount"))
        for ext, times in result.times.items():
            assert times[8] >= times[64] - 1e-9
            assert times[64] >= times[256] - 1e-9

    def test_knee_at_64(self):
        """Most of the benefit is captured by 64 entries: the 64->256
        improvement is much smaller than the 8->64 improvement."""
        result = run_figure5(scale=SCALE, depths=(8, 64, 256),
                             benchmarks=("sha", "bitcount"))
        gain_small = geomean(
            result.times[e][8] / result.times[e][64]
            for e in result.times
        )
        gain_large = geomean(
            result.times[e][64] / result.times[e][256]
            for e in result.times
        )
        assert gain_small >= gain_large

    def test_fifo_area_reported(self):
        result = run_figure5(scale=SCALE, depths=(16, 64),
                             benchmarks=("bitcount",))
        assert result.fifo_area_um2[64] > result.fifo_area_um2[16]
        text = format_figure5(result)
        assert "FIFO" in text


class TestSoftwareComparison:
    def test_software_much_slower_than_flexcore(self, table4):
        slowdowns = run_software(scale=SCALE, benchmarks=FAST_BENCHES)
        flexcore_dift = table4.geomean("dift", 0.5)
        software_dift = geomean(slowdowns["dift-opt"].values())
        assert software_dift > 1.5 * flexcore_dift
        text = format_software(slowdowns)
        assert "dift-naive" in text


class TestDecodeAblation:
    def test_predecode_helps(self):
        ablation = run_decode_ablation(scale=SCALE,
                                       benchmarks=("sha", "bitcount"))
        for bench, (with_decode, without) in ablation.items():
            assert without >= with_decode - 1e-9

    def test_checksums_verified_during_experiments(self):
        """The harness raises if a monitored run corrupts results."""
        # Every runner above simulates through run_point.
        from dataclasses import replace

        from repro.engine.sweep import SweepPoint, run_point
        from repro.workloads import build_workload
        point = SweepPoint(workload="bitcount", extension="dift",
                           scale=SCALE)
        workload = build_workload("bitcount", SCALE)
        assert run_point(point, workload=workload).cycles > 0
        corrupted = replace(workload,
                            expected_checksum=workload.expected_checksum ^ 1)
        with pytest.raises(AssertionError,
                           match="bitcount checksum mismatch under dift"):
            run_point(point, workload=corrupted)
