"""Parallel experiment fan-out: determinism, caching, metric merge.

``TestRunMany`` drives ``ExperimentRunner.sweep`` over many keys and
reads the results the strict way (``raise_first_failure``, then the
per-key results in input order).
"""

import pytest

from repro.core.platform import EmulationMode
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS, MetricsRegistry

from tests.pool_watchdog import with_watchdog


def _key(benchmark="fop", collector="PCM-Only", instances=1):
    return RunKey(benchmark, collector, instances, "default",
                  EmulationMode.EMULATION)


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def _sweep(runner, keys, **kwargs):
    """The strict per-key result list of one sweep."""
    report = runner.sweep(keys, **kwargs)
    report.raise_first_failure()
    return report.results


def _values(results):
    return [(r.pcm_write_lines, r.dram_write_lines, r.qpi_crossings,
             r.per_tag_pcm_writes, r.elapsed_seconds) for r in results]


class TestRunMany:
    KEYS = [_key("fop", "PCM-Only"), _key("fop", "KG-N"),
            _key("fop", "PCM-Only")]  # deliberate duplicate

    def test_parallel_matches_serial_bit_for_bit(self):
        serial = _sweep(ExperimentRunner(), self.KEYS, max_workers=1)
        METRICS.reset()
        parallel = with_watchdog(lambda: _sweep(
            ExperimentRunner(), self.KEYS, max_workers=2))
        assert _values(parallel) == _values(serial)

    def test_results_come_back_in_input_order(self):
        results = with_watchdog(lambda: _sweep(
            ExperimentRunner(), self.KEYS, max_workers=2))
        assert [r.collector for r in results] == ["PCM-Only", "KG-N",
                                                  "PCM-Only"]

    def test_duplicates_execute_once_and_count_as_hits(self):
        runner = ExperimentRunner()
        results = with_watchdog(lambda: _sweep(
            runner, self.KEYS, max_workers=2))
        assert runner.executions == 2
        assert runner.cache_hits == 1
        assert results[0] is results[2]

    def test_cached_keys_are_served_without_reexecution(self):
        runner = ExperimentRunner()
        with_watchdog(lambda: _sweep(runner, self.KEYS, max_workers=2))
        executions = runner.executions
        again = _sweep(runner, self.KEYS, max_workers=2)
        assert runner.executions == executions
        assert _values(again) == _values(_sweep(runner, self.KEYS))

    def test_worker_metrics_merge_into_parent_registry(self):
        with_watchdog(lambda: _sweep(
            ExperimentRunner(),
            [_key("fop", "PCM-Only"), _key("fop", "KG-N")], max_workers=2))
        serial_snapshot = {
            name: summary
            for name, summary in METRICS.as_dict().items()
            if "seconds" not in name}
        METRICS.reset()
        runner = ExperimentRunner()
        runner.run(_key("fop", "PCM-Only").benchmark, "PCM-Only")
        runner.run(_key("fop", "KG-N").benchmark, "KG-N")
        reference = {
            name: summary
            for name, summary in METRICS.as_dict().items()
            if "seconds" not in name}
        assert serial_snapshot == reference


class TestMetricsMerge:
    def test_counters_add_and_gauges_take_latest(self):
        source = MetricsRegistry()
        source.inc("runs", 3)
        source.set("occupancy", 7)
        target = MetricsRegistry()
        target.inc("runs", 2)
        target.set("occupancy", 1)
        target.merge(source.as_dict())
        assert target.value("runs") == 5
        assert target.value("occupancy") == 7

    def test_histograms_combine_summaries(self):
        source = MetricsRegistry()
        for value in (1.0, 5.0):
            source.observe("pause", value)
        target = MetricsRegistry()
        target.observe("pause", 3.0)
        target.merge(source.as_dict())
        histogram = target.get("pause")
        assert histogram.count == 3
        assert histogram.total == 9.0
        assert histogram.min == 1.0
        assert histogram.max == 5.0

    def test_empty_histogram_snapshots_are_skipped(self):
        source = MetricsRegistry()
        source.histogram("pause")  # created but never observed
        target = MetricsRegistry()
        target.merge(source.as_dict())
        metric = target.get("pause")
        assert metric is None or metric.count == 0

    def test_unknown_kind_raises(self):
        target = MetricsRegistry()
        with pytest.raises(ValueError):
            target.merge({"weird": {"kind": "exotic", "value": 1}})

    def test_merge_is_associative_over_disjoint_snapshots(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("left", 1)
        b.inc("right", 2)
        target = MetricsRegistry()
        target.merge(a.as_dict())
        target.merge(b.as_dict())
        assert target.value("left") == 1
        assert target.value("right") == 2


class TestStableSeeding:
    def test_benchmark_seeds_do_not_use_randomized_hash(self):
        """Workload seeds must be identical in every interpreter.

        ``hash(str)`` changes with PYTHONHASHSEED, which made simulated
        counters differ between invocations and between a parent and
        spawned pool workers.
        """
        import subprocess
        import sys

        script = ("from repro.workloads.registry import benchmark_factory;"
                  "print(benchmark_factory('fop')(0).seed,"
                  "      benchmark_factory('pr')(0).seed)")
        seeds = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, check=True,
                cwd=__file__.rsplit("/tests/", 1)[0]).stdout
            for hash_seed in ("1", "2", "random")}
        assert len(seeds) == 1, f"seeds vary with PYTHONHASHSEED: {seeds}"
