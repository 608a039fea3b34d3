"""Ablation bench: the headline results are scale-invariant.

Validates DESIGN.md's central methodological bet — scaling every
capacity by one factor preserves the ratios that drive the results.
"""

from conftest import regenerate


def test_scale_robustness(benchmark, runner):
    output = regenerate(benchmark, runner, "scale_robustness")
    for scale, entry in output.data.items():
        assert entry["kgw_reduction"] > 50, scale
        assert entry["kgw_reduction"] > entry["kgn_reduction"] + 20, scale
        assert entry["java_over_cpp"] > 1.2, scale
        assert entry["multiprog_growth"] > 4.0, scale
