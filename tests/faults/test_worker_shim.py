"""The env-keyed worker fault shim (parsing, gating, determinism)."""

import pytest

from repro.core.platform import EmulationMode
from repro.faults import worker
from repro.faults.worker import ENV_VAR, _key_fraction, _parse, maybe_fault
from repro.harness.experiment import RunKey

#: A run key as ``_worker_run`` hands it to the shim.
KEY = RunKey("fop", "KG-N", 1, "default", EmulationMode.EMULATION, 0, 64)


@pytest.fixture
def exits(monkeypatch):
    """Replace ``os._exit`` / ``time.sleep`` with recorders."""
    calls = {"exit": [], "sleep": []}
    monkeypatch.setattr(worker.os, "_exit",
                        lambda code: calls["exit"].append(code))
    monkeypatch.setattr(worker.time, "sleep",
                        lambda seconds: calls["sleep"].append(seconds))
    return calls


class TestParsing:
    def test_kind_and_fields(self):
        fields = _parse("crash:benchmark=fop,collector=KG-N,attempts=2")
        assert fields == {"kind": "crash", "benchmark": "fop",
                         "collector": "KG-N", "attempts": "2"}

    def test_bare_kind(self):
        assert _parse("crash") == {"kind": "crash"}


class TestKeyFraction:
    KEY = dict(zip(worker._KEY_FIELDS,
                   ("fop", "KG-N", "1", "default", "emulation", "0", "64")))

    def test_deterministic_and_bounded(self):
        first = _key_fraction(self.KEY, "7")
        assert first == _key_fraction(dict(self.KEY), "7")
        assert 0.0 <= first < 1.0

    def test_seed_three_selection_is_pinned(self):
        # A run key hashes as seven strings, mode by its value and ints
        # in decimal; changing them would move which keys a seed kills.
        fractions = {collector: _key_fraction(
            worker._key_fields(RunKey("fop", collector, 1, "default",
                                      EmulationMode.EMULATION)), "3")
            for collector in ("PCM-Only", "KG-N", "KG-B", "KG-W")}
        assert fractions == pytest.approx({
            "PCM-Only": 0.19455013914632902, "KG-N": 0.05896262671622906,
            "KG-B": 0.8156384318444626, "KG-W": 0.21616636485091836})

    def test_seed_and_key_both_matter(self):
        other_key = dict(self.KEY, collector="KG-W")
        assert _key_fraction(self.KEY, "7") != _key_fraction(self.KEY, "8")
        assert _key_fraction(self.KEY, "7") != _key_fraction(other_key, "7")


class TestMaybeFault:
    def test_no_env_is_a_noop(self, monkeypatch, exits):
        monkeypatch.delenv(ENV_VAR, raising=False)
        maybe_fault(KEY, attempt=1)
        assert exits == {"exit": [], "sleep": []}

    def test_crash_on_matching_key(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "crash:benchmark=fop,collector=KG-N")
        maybe_fault(KEY, attempt=1)
        assert exits["exit"] == [1]

    def test_filter_mismatch_spares_the_worker(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "crash:collector=KG-W")
        maybe_fault(KEY, attempt=1)
        assert exits["exit"] == []

    def test_attempt_budget_lets_retries_recover(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "crash:benchmark=fop,attempts=1")
        maybe_fault(KEY, attempt=2)
        assert exits["exit"] == []
        maybe_fault(KEY, attempt=1)
        assert exits["exit"] == [1]

    def test_attempts_minus_one_is_a_hard_failure(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "crash:benchmark=fop,attempts=-1")
        maybe_fault(KEY, attempt=99)
        assert exits["exit"] == [1]

    def test_hang_sleeps(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "hang:benchmark=fop,seconds=12")
        maybe_fault(KEY, attempt=1)
        assert exits["sleep"] == [12.0]

    def test_crashrate_selects_a_stable_subset(self, monkeypatch, exits):
        monkeypatch.setenv(ENV_VAR, "crashrate:p=1.0,seed=3")
        maybe_fault(KEY, attempt=1)
        assert exits["exit"] == [1]
        monkeypatch.setenv(ENV_VAR, "crashrate:p=0.0,seed=3")
        maybe_fault(KEY, attempt=1)
        assert exits["exit"] == [1]  # unchanged: p=0 never fires
