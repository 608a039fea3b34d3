"""Extension bench: measured wear-levelling efficiency (beyond the paper).

Asserts the qualitative story: raw PCM wear is imbalanced, Start-Gap
levelling recovers a meaningful fraction of the ideal endurance, and
KG-W's reduced write rate still dominates the lifetime improvement.
"""

from conftest import regenerate


def test_wear_analysis(benchmark, runner):
    output = regenerate(benchmark, runner, "wear_analysis")
    data = output.data
    # Raw wear is never perfectly level.
    assert all(entry["imbalance"] >= 1.0 for entry in data.values())
    # Start-Gap recovers a usable efficiency for the write-heavy runs.
    assert data["pr/PCM-Only"]["efficiency"] > 0.3
    # KG-W still wins on lifetime even with measured efficiency.
    assert (data["pr/KG-W"]["lifetime_measured"]
            > data["pr/PCM-Only"]["lifetime_measured"])
