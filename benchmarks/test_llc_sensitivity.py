"""Extension bench: KG-N's benefit collapses as the LLC grows.

The sweep behind the paper's Section V observation (81 % reduction at a
4 MB LLC versus 4 % at 20 MB): a small LLC lets nursery writes reach
memory, so DRAM nursery placement pays; a big LLC absorbs them first.
"""

from conftest import regenerate


def test_llc_sensitivity(benchmark, runner):
    output = regenerate(benchmark, runner, "llc_sensitivity")
    kgn = output.data["series"]["KG-N"]
    kgw = output.data["series"]["KG-W"]
    # KG-N's benefit shrinks monotonically-ish as the LLC grows.
    assert kgn["4MB-equiv"] > kgn["20MB-equiv"]
    assert kgn["4MB-equiv"] > kgn["40MB-equiv"]
    # KG-W keeps a large benefit even with the biggest LLC.
    assert kgw["40MB-equiv"] > 30
    # At every point KG-W beats KG-N.
    for label in kgn:
        assert kgw[label] >= kgn[label] - 2
