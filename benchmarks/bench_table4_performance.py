"""Table IV: normalized execution time per benchmark, extension, and
fabric clock ratio (1X = the full-ASIC comparison point, 0.5X/0.25X =
the synthesised fabric clocks).

This is the headline result: FlexCore monitoring costs within a few
percent of ASIC integrations for UMC, ~17-18% for DIFT/BC at half the
core clock, and SEC needs a quarter clock.
"""

from benchmarks.conftest import run_once
from repro.evaluation import format_table4, run_table4


def test_table4_normalized_execution_time(benchmark, bench_scale):
    result = run_once(benchmark, run_table4, scale=bench_scale)
    print()
    print(format_table4(result))
