"""Access-engine registry and cross-engine equivalence.

The registry half pins resolution: the two names, the ``REPRO_ENGINE``
environment variable, precedence, and rejection of unknown names
(including retired engine names).  The equivalence half is
satellite coverage for the differential fuzzer: a fixed-seed 20k-op
fuzz run of the batched engine against the per-line oracle passes with
zero divergences in tier-1 (not just in the nightly ``repro sanitize``
sweeps).
"""

import pytest

from repro.machine.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV,
    describe_engines,
    engine_names,
    resolve_engine,
)


class TestRegistry:
    def test_registry_names(self):
        assert engine_names() == ("perline", "batched")

    def test_default_engine(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        engine = resolve_engine()
        assert engine.name == DEFAULT_ENGINE == "batched"
        assert engine.kernel_name == "none"

    def test_env_variable_selects_engine(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "perline")
        assert resolve_engine().name == "perline"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "perline")
        assert resolve_engine("batched").name == "batched"

    def test_unknown_name_raises(self):
        for name in ("vectorised", "columnar"):
            with pytest.raises(ValueError,
                               match="unknown engine .*perline, batched"):
                resolve_engine(name)

    def test_unknown_env_value_raises(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "warp-drive")
        with pytest.raises(ValueError, match="warp-drive"):
            resolve_engine()

    def test_describe_covers_every_engine(self):
        text = describe_engines()
        for name in engine_names():
            assert name in text


class TestFixedSeedFuzzCrossCheck:
    """Tier-1 smoke of the full differential harness."""

    @pytest.mark.parametrize("engine", ["batched"])
    def test_20k_ops_zero_divergence(self, engine):
        from repro.sanitize.fuzz import DifferentialFuzzer

        fuzzer = DifferentialFuzzer(ops=20_000, shrink=False,
                                    check_every=0, engine=engine,
                                    reference="perline")
        results = fuzzer.run(seed=1905, trials=1)
        assert len(results) == 1
        result = results[0]
        assert result.divergence is None
        assert result.violations == []
        assert result.ok
