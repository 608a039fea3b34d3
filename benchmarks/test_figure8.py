"""Regenerate Figure 8: write rates with large datasets.

Paper shape: three regimes — rates that stay roughly flat, rates that
rise up to ~1.5x, and rates that fall substantially (graph applications
drop ~60 % when the input grows 10x).
"""

from conftest import regenerate


def test_figure8(benchmark, runner):
    output = regenerate(benchmark, runner, "figure8")
    relative = output.data["relative"]["PCM-Only"]
    # Graph applications: rates drop markedly with the 10x input.
    assert relative["pr"] < 0.75
    assert relative["als"] < 0.9
    # At least one benchmark stays roughly flat...
    assert any(0.7 <= value <= 1.3 for name, value in relative.items()
               if name not in ("pr", "als"))
    # ...and at least one rises.
    assert any(value > 1.05 for name, value in relative.items()
               if name not in ("pr", "als"))
    # The three regimes together span a wide range (Finding 7).
    values = list(relative.values())
    assert max(values) / min(values) > 1.5
