"""The one access path: its benchmark name and a tier-1 fuzz smoke.

``resolve_engine()`` is kept only for ``benchmarks/e2e/child.py``,
which reports ``.name`` and ``.kernel_name``.  The fuzz half is a
fixed-seed 20k-op run of the access path against the per-line oracle
that passes with zero divergences in tier-1 (not just in the nightly
``repro sanitize`` sweeps).
"""

import pytest

from repro.machine.engine import resolve_engine


class TestRegistry:
    def test_default_engine(self):
        engine = resolve_engine()
        assert engine.name == "batched"
        assert engine.kernel_name == "none"


class TestFixedSeedFuzzCrossCheck:
    # The id names the path under test; the reference side is always
    # the per-line oracle.
    @pytest.mark.parametrize("path", ["batched"])
    def test_20k_ops_zero_divergence(self, path):
        from repro.sanitize.fuzz import DifferentialFuzzer

        fuzzer = DifferentialFuzzer(ops=20_000, shrink=False,
                                    check_every=0)
        results = fuzzer.run(seed=1905, trials=1)
        assert len(results) == 1
        result = results[0]
        assert result.divergence is None
        assert result.violations == []
        assert result.ok
