"""Tests for the caching experiment runner."""

import pytest

from repro.core.platform import EmulationMode
from repro.harness.experiment import ExperimentRunner, RunKey


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestCaching:
    def test_identical_runs_are_cached(self, runner):
        first = runner.run("fop", "PCM-Only")
        count = runner.executions
        hits = runner.cache_hits
        second = runner.run("fop", "PCM-Only")
        assert first is second
        assert runner.executions == count
        assert runner.cache_hits == hits + 1

    def test_different_collector_not_cached(self, runner):
        runner.run("fop", "PCM-Only")
        count = runner.executions
        runner.run("fop", "KG-N")
        assert runner.executions == count + 1

    def test_mode_is_part_of_key(self, runner):
        runner.run("fop", "PCM-Only")
        count = runner.executions
        runner.run("fop", "PCM-Only", mode=EmulationMode.SIMULATION)
        assert runner.executions == count + 1

    def test_cache_hit_is_not_an_execution(self):
        fresh = ExperimentRunner()
        assert fresh.executions == 0 and fresh.cache_hits == 0
        fresh.run("fop", "PCM-Only")
        fresh.run("fop", "PCM-Only")
        fresh.run("fop", "PCM-Only")
        assert fresh.executions == 1
        assert fresh.cache_hits == 2

    def test_registry_counts_cache_traffic(self, runner):
        from repro.observability.metrics import METRICS

        runner.run("fop", "PCM-Only")  # ensure cached
        hits_before = METRICS.value("runner.cache.hits")
        runner.run("fop", "PCM-Only")
        assert METRICS.value("runner.cache.hits") == hits_before + 1

    def test_fresh_run_emits_runner_span(self):
        from repro.observability.trace import TRACER

        with TRACER.capture() as tracer:
            fresh = ExperimentRunner()
            fresh.run("fop", "PCM-Only")
            fresh.run("fop", "PCM-Only")
        spans = tracer.spans("runner.run")
        assert len(spans) == 1
        assert spans[0]["attrs"]["benchmark"] == "fop"
        assert len(tracer.events("runner.cache_hit")) == 1

    def test_key_equality(self):
        a = RunKey("x", "KG-N", 1, "default", EmulationMode.EMULATION)
        b = RunKey("x", "KG-N", 1, "default", EmulationMode.EMULATION)
        assert a == b and hash(a) == hash(b)


class TestHelpers:
    def test_pcm_writes_shortcut(self, runner):
        assert runner.pcm_writes("fop") == \
            runner.run("fop").pcm_write_lines

    def test_write_rate_shortcut(self, runner):
        assert runner.write_rate("fop") == \
            runner.run("fop").pcm_write_rate_mbs

    def test_suite_average(self, runner):
        value = runner.suite_average_writes(["fop"])
        assert value == runner.pcm_writes("fop")
