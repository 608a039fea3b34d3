"""Extension bench: Crystal Gazer vs online monitoring (beyond the paper).

Asserts the motivating trade-off: KG-CG recovers a large share of
KG-W's PCM-write reduction without the observer/monitoring overhead.
"""

from conftest import regenerate


def test_crystal_gazer(benchmark, runner):
    output = regenerate(benchmark, runner, "crystal_gazer")
    data = output.data
    better_than_kgn = 0
    cheaper_than_kgw = 0
    for bench, entry in data.items():
        # Prediction protects PCM at least as well as the nursery alone
        # for most workloads.
        if entry["KG-CG/writes"] <= entry["KG-N/writes"] + 0.02:
            better_than_kgn += 1
        if entry["KG-CG/overhead"] <= entry["KG-W/overhead"]:
            cheaper_than_kgw += 1
    assert better_than_kgn >= len(data) - 1
    assert cheaper_than_kgw >= len(data) - 1
