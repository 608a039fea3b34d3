"""Regenerate Figure 7: Kingsguard variants on GraphChi.

Paper shape: a DRAM nursery removes most PCM writes; KG-B adds little
over KG-N; LOO helps both; removing LOO from KG-W costs 1.5-2.3x;
removing MDO is marginal.
"""

from conftest import regenerate


def test_figure7(benchmark, runner):
    output = regenerate(benchmark, runner, "figure7")
    normalized = output.data["normalized"]
    for app in ("PR", "CC"):
        kgn = normalized["KG-N"][app]
        kgb = normalized["KG-B"][app]
        kgn_loo = normalized["KG-N+LOO"][app]
        kgb_loo = normalized["KG-B+LOO"][app]
        kgw = normalized["KG-W"][app]
        kgw_no_loo = normalized["KG-W-LOO"][app]
        kgw_no_mdo = normalized["KG-W-MDO"][app]
        # The DRAM nursery removes most writes.
        assert kgn < 0.6
        # A bigger nursery alone changes little.
        assert abs(kgb - kgn) < 0.15
        # LOO helps both KG-N and KG-B.
        assert kgn_loo < kgn
        assert kgb_loo < kgb
        # KG-W is the best (or tied-best) configuration.
        assert kgw <= min(kgn, kgb, kgn_loo) + 0.02
        # Removing LOO costs 1.5-2.3x (paper: 1.6x PR, 2.3x CC).
        assert 1.3 * kgw < kgw_no_loo < 3.0 * kgw
        # Removing MDO costs only marginally (paper: ~1.14x).
        assert kgw_no_mdo < 1.4 * kgw
    # ALS has no window churn: LOO is a no-op there.
    assert normalized["KG-N+LOO"]["ALS"] == \
        normalized["KG-N"]["ALS"]
