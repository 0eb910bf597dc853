"""Figure 4: percentage of committed instructions forwarded to the
reconfigurable fabric for each extension prototype.

UMC (loads/stores only) forwards the least; DIFT (loads, stores, ALU
ops, indirect jumps) the most; SEC forwards the ALU share.
"""

from benchmarks.conftest import run_once
from repro.evaluation import format_figure4, run_figure4


def test_figure4_forwarded_fraction(benchmark, bench_scale):
    fractions = run_once(benchmark, run_figure4, scale=bench_scale)
    print()
    print(format_figure4(fractions))
