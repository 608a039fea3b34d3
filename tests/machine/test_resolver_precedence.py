"""Placement resolution precedence: explicit > environment > default.

An explicit name always wins, the ``REPRO_PLACEMENT`` environment
variable fills in when the caller passes ``None``, and unknown names —
from either source — fail loudly instead of falling back silently.
"""

import pytest

from repro.kernel.placement import (DEFAULT_PLACEMENT, PLACEMENT_ENV,
                                    placement_names, resolve_placement)


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
