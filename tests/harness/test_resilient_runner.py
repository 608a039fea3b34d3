"""The experiment scripts' --on-error machinery (ResilientRunner)."""

import math
import sys

import pytest

from repro.experiments.common import (
    ExperimentOutput,
    ResilientRunner,
    error_result,
    main,
)
from repro.harness.experiment import RunKey
from repro.harness.tables import format_table
from repro.core.platform import EmulationMode
from repro.observability.metrics import METRICS


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def _key(benchmark="no-such-benchmark"):
    return RunKey(benchmark, "PCM-Only", 1, "default",
                  EmulationMode.EMULATION)


class TestErrorResult:
    def test_numeric_fields_are_nan(self):
        result = error_result(_key())
        assert math.isnan(result.pcm_write_lines)
        assert math.isnan(result.elapsed_seconds)
        assert math.isnan(result.pcm_write_rate_mbs)

    def test_nan_propagates_into_err_cells(self):
        result = error_result(_key())
        normalised = result.pcm_write_lines / 1000.0
        text = format_table(["bench", "writes"],
                            [["no-such-benchmark", normalised]])
        assert "ERR" in text


def _failing_experiment(runner):
    result = runner.run("no-such-benchmark")
    return ExperimentOutput("demo", "demo", f"{result.pcm_write_lines}")


def _main(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["experiment", *argv])
    main(_failing_experiment)


class TestResilientRunner:
    def test_fail_mode_propagates(self, monkeypatch):
        with pytest.raises(KeyError, match="no-such-benchmark"):
            _main(monkeypatch, "--on-error", "fail")

    def test_skip_mode_renders_err_and_exits_one(self, monkeypatch, capsys):
        with pytest.raises(SystemExit) as excinfo:
            _main(monkeypatch, "--on-error", "skip")
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "nan"
        assert "ERR no-such-benchmark/PCM-Only/n=1: KeyError" \
            in captured.err

    def test_skip_mode_substitutes_an_error_cell(self):
        runner = ResilientRunner()
        result = runner.run("no-such-benchmark")
        assert math.isnan(result.pcm_write_lines)
        assert len(runner.errors) == 1
        key, exc = runner.errors[0]
        assert key.benchmark == "no-such-benchmark"
        assert isinstance(exc, KeyError)
        assert METRICS.value("runner.failures") == 1

    def test_failed_cells_are_cached(self):
        runner = ResilientRunner()
        first = runner.run("no-such-benchmark")
        second = runner.run("no-such-benchmark")
        assert first is second
        assert len(runner.errors) == 1

    def test_failing_cell_runs_once(self):
        runner = ResilientRunner()
        result = runner.run("no-such-benchmark")
        assert math.isnan(result.pcm_write_lines)
        assert METRICS.value("runner.retries") == 0
        assert METRICS.value("runner.cache.misses") == 1

    def test_healthy_runs_are_untouched(self):
        runner = ResilientRunner()
        result = runner.run("fop")
        assert result.pcm_write_lines > 0
        assert runner.errors == []

    def test_unknown_policy_rejected(self, monkeypatch, capsys):
        # "retry" is gone: a cell that raised would raise again.
        with pytest.raises(SystemExit) as excinfo:
            _main(monkeypatch, "--on-error", "retry")
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        with pytest.raises(TypeError):
            ResilientRunner(on_error="skip")
