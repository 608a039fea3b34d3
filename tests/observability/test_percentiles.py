"""Histogram percentiles: summary quantiles and shard-order-free merge.

The histogram keeps log-scale buckets (ratio 1.2, ~±10 % relative
error) precisely so that worker-shard summaries can be merged in *any*
completion order and still yield identical p50/p95/p99 — bucket-wise
addition is commutative.  These tests pin the estimates' error bound,
the [min, max] clamp, and the order-independence guarantee the
parallel sweep relies on.
"""

import random

import pytest

from repro.observability.metrics import Histogram, MetricsRegistry


def fill(values, name="pause"):
    histogram = Histogram(name)
    for value in values:
        histogram.observe(value)
    return histogram


class TestQuantiles:
    def test_summary_reports_percentile_keys(self):
        summary = fill(range(1, 101)).summary()
        for key in ("p50", "p95", "p99"):
            assert key in summary

    def test_empty_histogram_quantiles_are_zero(self):
        histogram = Histogram("x")
        assert histogram.quantile(0.5) == 0.0
        assert histogram.summary()["p99"] == 0.0

    def test_single_value_collapses_to_it(self):
        histogram = fill([42])
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == 42

    def test_estimates_within_bucket_error(self):
        values = list(range(1, 1001))
        histogram = fill(values)
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            estimate = histogram.quantile(q)
            # Log buckets with ratio 1.2: at most ~10 % relative error.
            assert abs(estimate - exact) <= 0.11 * exact, (q, estimate)

    def test_clamped_to_observed_range(self):
        histogram = fill([10, 11, 12, 1000])
        assert histogram.quantile(0.01) >= 10
        assert histogram.quantile(0.99) <= 1000

    def test_monotone_in_q(self):
        rng = random.Random(1234)
        histogram = fill([rng.expovariate(0.01) for _ in range(500)])
        quantiles = [histogram.quantile(q)
                     for q in (0.1, 0.5, 0.9, 0.95, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_negative_and_zero_values(self):
        histogram = fill([-100, -10, 0, 10, 100])
        assert histogram.quantile(0.01) == -100
        assert histogram.quantile(0.99) <= 100
        assert histogram.quantile(0.5) <= histogram.quantile(0.9)
