"""Regenerate Table III: worst-case PCM lifetimes in years.

Paper shape: single-program workloads give practical lifetimes even on
PCM-Only; four-program workloads wear PCM out in a couple of years at
10 M writes/cell; KG-W improves lifetimes by ~3x; higher endurance
scales lifetimes linearly.
"""

from conftest import regenerate


def test_table3(benchmark, runner):
    output = regenerate(benchmark, runner, "table3")
    lifetimes = output.data["lifetimes"]

    def years(endurance_label, collector, count):
        key = f"Prototype {endurance_label}/{collector}/N={count}"
        return lifetimes[key]["years"]

    p1 = "1 (10M writes/cell)"
    p3 = "3 (50M writes/cell)"
    # Multiprogramming shortens lifetime.
    assert years(p1, "PCM-Only", 4) < years(p1, "PCM-Only", 1)
    # KG-W extends lifetime substantially (paper: >3x at N=4).
    assert years(p1, "KG-W", 4) > 1.5 * years(p1, "PCM-Only", 4)
    assert years(p1, "KG-W", 1) > years(p1, "PCM-Only", 1)
    # Endurance scales lifetime linearly (5x cells -> 5x years).
    ratio = years(p3, "PCM-Only", 1) / years(p1, "PCM-Only", 1)
    assert abs(ratio - 5.0) < 0.01
    # Worst-case rates come from real measurements.
    worst = output.data["worst_rate_mbs"]
    assert worst["PCM-Only"][4] > worst["PCM-Only"][1] * 0.8
    assert worst["KG-W"][1] < worst["PCM-Only"][1]
