"""Extension bench: the observer-size trade-off (beyond the paper).

Validates the claim KG-W's 2x default rests on: growing the observer
buys PCM-write protection but costs pause time.
"""

from conftest import regenerate


def test_observer_sweep(benchmark, runner):
    output = regenerate(benchmark, runner, "observer_sweep")
    data = output.data
    # Bigger observer -> fewer PCM writes...
    assert data["4x"]["pcm_writes"] <= data["1x"]["pcm_writes"]
    # ...but longer pauses and lower mutator utilization.
    assert data["4x"]["mean_pause"] > data["1x"]["mean_pause"]
    assert data["4x"]["utilization"] < data["1x"]["utilization"] + 0.01
