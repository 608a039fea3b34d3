"""Regenerate Figure 4: multiprogrammed PCM write growth.

Paper shape: PCM-Only grows super-linearly from 1 to 4 instances
(all-suite average 6.4x, DaCapo 9x, Pjbb 12x, GraphChi ~3.5x), while
KG-W stays roughly linear.
"""

from conftest import regenerate


def test_figure4(benchmark, runner):
    output = regenerate(benchmark, runner, "figure4")
    pcm_only = output.data["PCM-Only"]
    kgw = output.data["KG-W"]
    # Super-linear growth under PCM-Only for the cache-sensitive suites.
    assert pcm_only["DaCapo"]["4"] > 4.5
    assert pcm_only["Pjbb"]["4"] > 4.5
    assert pcm_only["All"]["4"] > 4.0
    # GraphChi stays closer to linear (its writes already miss the LLC).
    assert pcm_only["GraphChi"]["4"] < pcm_only["DaCapo"]["4"]
    # KG-W dampens the growth substantially (Finding 3).
    assert kgw["All"]["4"] < 0.75 * pcm_only["All"]["4"]
    # Growth is monotone in the instance count.
    for suite in ("DaCapo", "Pjbb", "GraphChi", "All"):
        assert pcm_only[suite]["1"] <= pcm_only[suite]["2"] \
            <= pcm_only[suite]["4"]
