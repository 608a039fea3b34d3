"""Registry resolution precedence: explicit > environment > default.

Both registries (access engines, placement policies) promise the same
contract: an explicit name always wins, the ``REPRO_*`` environment
variable fills in when the caller passes ``None``, and unknown names —
from either source — fail loudly instead of falling back silently.
"""

import pytest

from repro.kernel.placement import (DEFAULT_PLACEMENT, PLACEMENT_ENV,
                                    placement_names, resolve_placement)
from repro.machine.engine import (DEFAULT_ENGINE, ENGINE_ENV,
                                  engine_names, resolve_engine)


class TestEnginePrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        assert resolve_engine().name == DEFAULT_ENGINE == "batched"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "perline")
        assert resolve_engine().name == "perline"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "batched")
        assert resolve_engine("perline").name == "perline"

    def test_unknown_explicit_name_raises(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            resolve_engine("turbo")

    def test_unknown_env_name_raises(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "turbo")
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            resolve_engine()

    def test_error_lists_the_registry(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV, raising=False)
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("turbo")
        for name in engine_names():
            assert name in str(excinfo.value)

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV, "")
        assert resolve_engine().name == DEFAULT_ENGINE


class TestPlacementPrecedence:
    def test_default_when_nothing_set(self, monkeypatch):
        monkeypatch.delenv(PLACEMENT_ENV, raising=False)
        assert resolve_placement() == DEFAULT_PLACEMENT == "static"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(PLACEMENT_ENV, "interleave")
        assert resolve_placement() == "interleave"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(PLACEMENT_ENV, "interleave")
        assert resolve_placement("migrate") == "migrate"

    def test_unknown_explicit_name_raises(self, monkeypatch):
        monkeypatch.delenv(PLACEMENT_ENV, raising=False)
        with pytest.raises(ValueError,
                           match="unknown placement 'everywhere'"):
            resolve_placement("everywhere")

    def test_unknown_env_name_raises(self, monkeypatch):
        monkeypatch.setenv(PLACEMENT_ENV, "everywhere")
        with pytest.raises(ValueError,
                           match="unknown placement 'everywhere'"):
            resolve_placement()

    def test_error_lists_the_registry(self, monkeypatch):
        monkeypatch.delenv(PLACEMENT_ENV, raising=False)
        with pytest.raises(ValueError) as excinfo:
            resolve_placement("everywhere")
        for name in placement_names():
            assert name in str(excinfo.value)

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv(PLACEMENT_ENV, "")
        assert resolve_placement() == DEFAULT_PLACEMENT
