"""Regenerate Table II: emulation versus simulation.

Paper values: KG-N 4 % (sim) / 8 % (emu), KG-B 11 % / 13 %,
KG-W 64 % / 62 %; KG-B total-write blow-up 1.98x / 2.2x; KG-W overhead
7 % / 10 %.  The reproduction must match the *shape*: ordering of
collectors, agreement between modes, and factor magnitudes.
"""

from conftest import regenerate


def test_table2(benchmark, runner):
    output = regenerate(benchmark, runner, "table2")
    reductions = output.data["reductions"]
    for mode in ("simulation", "emulation"):
        kgn = reductions[mode]["KG-N"]
        kgb = reductions[mode]["KG-B"]
        kgw = reductions[mode]["KG-W"]
        # KG-W reduces PCM writes far more than the nursery-only
        # collectors; KG-N's reduction is small under a 20 MB LLC.
        assert kgw > 40
        assert kgw > kgb + 15
        assert kgn < 35
    # Emulation and simulation agree within a few percentage points.
    for collector in ("KG-N", "KG-B", "KG-W"):
        gap = abs(reductions["emulation"][collector]
                  - reductions["simulation"][collector])
        assert gap < 15, f"{collector}: emu/sim disagree by {gap:.0f} points"
    # KG-B writes substantially more memory in total than KG-N.
    for mode, blowup in output.data["kgb_total_blowup"].items():
        assert blowup > 1.3, f"{mode}: KG-B blowup {blowup:.2f}"
    # KG-W costs time over KG-N (observer copying + monitoring).
    for mode, overhead in output.data["kgw_overhead_percent"].items():
        assert overhead > 0, f"{mode}: KG-W overhead {overhead:.1f}%"
