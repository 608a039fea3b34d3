"""Tests for the caching experiment runner."""

import pytest

from repro.core.platform import EmulationMode
from repro.harness.checkpoint import canonical_result, result_to_dict
from repro.harness.experiment import ExperimentRunner, RunKey, _execute
from repro.machine.topology import PCM_NODE


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

    def test_serial_sweep_emits_one_runner_span(self):
        from repro.observability.trace import TRACER

        key = RunKey("fop", "PCM-Only", 1, "default",
                     EmulationMode.EMULATION)
        with TRACER.capture() as tracer:
            ExperimentRunner().sweep([key, key], max_workers=1)
        spans = tracer.spans("runner.run")
        assert len(spans) == 1
        assert spans[0]["attrs"]["collector"] == "PCM-Only"
        assert len(tracer.events("runner.cache_hit")) == 1

    def test_key_equality(self):
        a = RunKey("x", "KG-N", 1, "default", EmulationMode.EMULATION)
        b = RunKey("x", "KG-N", 1, "default", EmulationMode.EMULATION)
        assert a == b and hash(a) == hash(b)


class TestWearKey:
    def test_wear_tracking_leaves_every_counter_unchanged(self):
        plain = _execute(RunKey("fop", "KG-W"), False)
        tracked = _execute(RunKey("fop", "KG-W", track_wear=True), False)
        assert plain.wear_efficiency is None
        assert plain.wear_imbalance is None
        assert tracked.wear_efficiency is not None
        assert tracked.wear_imbalance >= 1.0
        wear = ("wear_efficiency", "wear_imbalance")
        plain, tracked = (
            {field: value for field, value
             in canonical_result(result_to_dict(result)).items()
             if field not in wear}
            for result in (plain, tracked))
        assert tracked == plain


class TestHelpers:
    """The per-run figures the experiments read off ``run(...)``."""

    def test_pcm_writes_shortcut(self, runner):
        result = runner.run("fop")
        assert result.pcm_write_lines > 0
        assert result.pcm_write_lines == \
            result.node_counters[PCM_NODE]["write_lines"]

    def test_write_rate_shortcut(self, runner):
        result = runner.run("fop")
        assert result.pcm_write_rate_mbs == \
            result.pcm_write_bytes / result.elapsed_seconds / 1e6

    def test_suite_average(self, runner):
        from repro.harness.metrics import average

        value = average([runner.run(b).pcm_write_lines for b in ["fop"]])
        assert value == runner.run("fop").pcm_write_lines
