"""Figure 5: average FlexCore performance vs forward-FIFO size.

Sweeps the FIFO depth from 8 to 256 entries: the knee is at 64 (the
paper's chosen size); smaller FIFOs hurt noticeably while bigger ones
give marginal benefit.  Also reports the FIFO silicon area, which
grows only ~10% from 16 to 64 entries because the SRAM periphery
dominates (Section V-C).
"""

from benchmarks.conftest import run_once
from repro.evaluation import format_figure5, run_figure5


def test_figure5_fifo_size_sweep(benchmark, bench_scale):
    result = run_once(benchmark, run_figure5, scale=bench_scale)
    print()
    print(format_figure5(result))
