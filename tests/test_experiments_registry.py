"""Tests for the experiment registry, the run plan, and ``reproduce``."""

import importlib

import pytest

from repro.config import DEFAULT_SCALE_CONFIG, ScaleConfig
from repro.experiments import EXPERIMENTS, ExperimentOutput, reproduce
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS

from tests.pool_watchdog import with_watchdog

PAPER_ARTIFACTS = ["table1", "table2", "figure3", "figure4", "figure5",
                   "figure6", "figure7", "figure8", "table3"]


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def _module(name):
    return importlib.import_module(f"repro.experiments.{name}")


class TestRegistry:
    def test_every_paper_artifact_listed(self):
        for name in PAPER_ARTIFACTS:
            assert name in EXPERIMENTS

    def test_extensions_listed(self):
        for name in ("wear_analysis", "crystal_gazer", "llc_sensitivity",
                     "scale_robustness", "observer_sweep",
                     "writes_breakdown"):
            assert name in EXPERIMENTS

    def test_modules_declare_keys_and_render(self):
        for name in EXPERIMENTS:
            module = _module(name)
            assert callable(module.keys), name
            assert callable(module.render), name


class TestRunPlan:
    """``keys()`` covers what ``render`` reads, checked without a run:
    every execution fails at once, so each cell renders from its
    ``error_result`` placeholder and an undeclared read is a KeyError."""

    @pytest.fixture(autouse=True)
    def no_execution(self, monkeypatch):
        def refuse(key, profile):
            raise RuntimeError("the plan test measures nothing")
        monkeypatch.setattr("repro.harness.experiment._execute", refuse)

    @pytest.mark.parametrize("names,unique", [
        (PAPER_ARTIFACTS, 168), (EXPERIMENTS, 229)],
        ids=["paper", "all"])
    def test_union_of_keys_renders_from_placeholders(self, names, unique):
        runner = ExperimentRunner()
        outputs, failures = reproduce(names, runner, max_workers=1)
        assert list(outputs) == names
        assert runner.executions == 0
        # Each unique key is attempted exactly once.
        assert len(failures) == unique
        assert len({outcome.key for outcome in failures}) == unique
        assert METRICS.value("runner.cache.misses") == unique
        for name, output in outputs.items():
            assert isinstance(output, ExperimentOutput), name
            # Every failed cell reads ERR; no NaN leaks into the text.
            assert "nan" not in output.text.lower(), name
            assert ("ERR" in output.text) == (name != "table1"), name

    def test_every_measuring_experiment_declares_keys(self):
        for name in EXPERIMENTS:
            assert bool(_module(name).keys()) == (name != "table1"), name

    def test_no_plan_key_names_the_default_llc_size(self):
        # An LLC override equal to the scale's own LLC builds the
        # default machine, so the key must be the default key: LLC
        # sensitivity's 20MB-equiv point reuses Figure 7's runs.
        for name in EXPERIMENTS:
            for key in _module(name).keys():
                assert key.llc_size != ScaleConfig(scale=key.scale).llc_size, (
                    name, key)
        assert (RunKey("xalan", "KG-N",
                       llc_size=DEFAULT_SCALE_CONFIG.llc_size)
                == RunKey("xalan", "KG-N"))

    def test_observer_default_is_figure4_run(self):
        assert (set(_module("observer_sweep").keys())
                & set(_module("figure4").keys())) == {RunKey("pjbb", "KG-W")}


class TestPartialFailure:
    def test_failed_run_reads_err_in_every_cell_it_feeds(self):
        # Only the one-instance run failed: its column and the growth
        # over it are ERR, not 0 or a ratio over a stand-in of 1.
        from dataclasses import replace

        from repro.experiments.common import error_result

        module = _module("writes_breakdown")
        failed, *measured = module.keys()
        results = {failed: error_result(failed)}
        for key in measured:
            results[key] = replace(error_result(key), pcm_write_lines=5,
                                   per_tag_pcm_writes={"nursery": 5})
        text = module.render(results).text
        assert "nursery | ERR |   5 |   5 |    ERR" in text


class TestReproduce:
    def test_pool_renders_byte_identically_to_serial(self):
        serial, failed = reproduce(["writes_breakdown"], ExperimentRunner(),
                                   max_workers=1)
        assert failed == []
        pooled, failed = with_watchdog(lambda: reproduce(
            ["writes_breakdown"], ExperimentRunner(), max_workers=2))
        assert failed == []
        pooled, serial = pooled["writes_breakdown"], serial["writes_breakdown"]
        assert pooled.text == serial.text
        assert repr(pooled.data) == repr(serial.data)


class TestTable1:
    def test_runs_without_measurements(self):
        runner = ExperimentRunner()
        outputs, failures = reproduce(["table1"], runner)
        output = outputs["table1"]
        assert isinstance(output, ExperimentOutput)
        assert failures == []
        assert runner.executions == 0  # pure configuration
        assert "Nursery" in output.text

    def test_data_matches_policy(self):
        output = _module("table1").render({})
        assert output.data["KG-N"]["nursery_dram"]
        assert output.data["KG-W"]["observer"]
        assert not output.data["KG-W-MDO"]["mdo"]

    def test_str_is_text(self):
        output = _module("table1").render({})
        assert str(output) == output.text
