"""Tests for the PCM lifetime model (Equation 1)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import GB
from repro.core.lifetime import (
    PCM_ENDURANCE_LEVELS,
    pcm_lifetime_years,
    worst_case_lifetime,
    worst_rate,
)


class TestEquation:
    def test_known_value(self):
        # 32 GB, 10M writes/cell, perfect wear-levelling, 450 MB/s
        # (the paper's worst-case PCM-Only graph write rates give ~10
        # years at 50% efficiency).
        years = pcm_lifetime_years(450.0, 10e6)
        assert years == pytest.approx(11.4, rel=0.05)

    def test_zero_rate_is_infinite(self):
        assert math.isinf(pcm_lifetime_years(0.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            pcm_lifetime_years(-1.0)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            pcm_lifetime_years(100.0, wear_leveling_efficiency=0.0)
        with pytest.raises(ValueError):
            pcm_lifetime_years(100.0, wear_leveling_efficiency=1.5)

    def test_endurance_levels_table(self):
        assert len(PCM_ENDURANCE_LEVELS) == 3
        assert sorted(PCM_ENDURANCE_LEVELS.values()) == [10e6, 30e6, 50e6]


class TestScaling:
    @given(st.floats(1.0, 1e4))
    def test_lifetime_inversely_proportional_to_rate(self, rate):
        assert pcm_lifetime_years(rate) == pytest.approx(
            pcm_lifetime_years(2 * rate) * 2)

    @given(st.floats(1.0, 1e4))
    def test_lifetime_proportional_to_endurance(self, rate):
        assert pcm_lifetime_years(rate, 50e6) == pytest.approx(
            5 * pcm_lifetime_years(rate, 10e6))

    def test_larger_device_lasts_longer(self):
        assert pcm_lifetime_years(100, pcm_bytes=64 * GB) == pytest.approx(
            2 * pcm_lifetime_years(100, pcm_bytes=32 * GB))


class TestWorstCase:
    def test_takes_maximum_rate(self):
        assert worst_case_lifetime([10.0, 200.0, 50.0]) == \
            pcm_lifetime_years(200.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            worst_case_lifetime([])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_rate_makes_the_worst_case_nan(self, position):
        rates = [10.0, 200.0, 50.0]
        rates[position] = float("nan")
        assert math.isnan(worst_rate(rates))
        assert math.isnan(worst_case_lifetime(rates))

    def test_worst_rate_takes_maximum(self):
        assert worst_rate(iter([10.0, 200.0, 50.0])) == 200.0

    def test_model_parameters_are_keyword_only(self):
        # The old ``**kwargs`` forwarding accepted a positional second
        # argument that silently shadowed ``endurance_writes_per_cell``.
        with pytest.raises(TypeError):
            worst_case_lifetime([100.0], 30e6)  # type: ignore[misc]

    def test_keyword_parameters_reach_the_model(self):
        base = worst_case_lifetime([100.0])
        assert worst_case_lifetime(
            [100.0], endurance_writes_per_cell=30e6) == \
            pytest.approx(3 * base)
        assert worst_case_lifetime(
            [100.0], wear_leveling_efficiency=1.0) == \
            pytest.approx(2 * base)

    def test_table3_recommended_rate_pin(self):
        # Table III anchor: 140 MB/s at 10M writes/cell on 32 GB with
        # 50 % levelling gives ~36.6 years.  Pins the exact forwarding
        # of every model parameter.
        assert worst_case_lifetime([140.0, 23.0, 2.6]) == \
            pytest.approx(36.6, abs=0.05)
        assert worst_case_lifetime(
            [140.0], endurance_writes_per_cell=50e6) == \
            pytest.approx(5 * 36.6, rel=0.01)
