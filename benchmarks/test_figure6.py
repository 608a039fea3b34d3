"""Regenerate Figure 6: PCM write rates in MB/s for every benchmark.

Paper shape: most DaCapo benchmarks sit below the recommended
140 MB/s; a couple of DaCapo applications and all three graph
applications exceed it badly under PCM-Only; Kingsguard (KG-W
especially) pulls rates down across the board.
"""

from repro.config import RECOMMENDED_WRITE_RATE_MBS
from repro.experiments.common import DACAPO_ALL, GRAPHCHI_ALL

from conftest import regenerate


def test_figure6(benchmark, runner):
    output = regenerate(benchmark, runner, "figure6")
    rates = output.data["rates"]
    over = output.data["over_limit"]
    # All graph applications exceed the recommended rate on PCM-Only.
    for app in GRAPHCHI_ALL:
        assert app in over
    # A minority — but not zero — of DaCapo applications exceed it.
    dacapo_over = [b for b in over if b in DACAPO_ALL]
    assert 1 <= len(dacapo_over) <= 5
    # KG-W reduces the rate for every benchmark.
    for bench, pcm_rate in rates["PCM-Only"].items():
        assert rates["KG-W"][bench] < pcm_rate, bench
    # KG-W pulls most workloads under (or near) the recommended rate.
    still_over = [b for b, r in rates["KG-W"].items()
                  if r > RECOMMENDED_WRITE_RATE_MBS]
    assert len(still_over) < len(over)
