"""The one failure policy of ``reproduce``: a failing key's cells
render as ``ERR``, every other cell stays intact, and ``repro
reproduce`` lists the failure on stderr and exits 1."""

import math
import sys
import types

import pytest

from repro.cli import main
from repro.experiments import reproduce
from repro.experiments.common import ExperimentOutput, error_result
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.harness.tables import format_table
from repro.observability.metrics import METRICS

from tests.pool_watchdog import with_watchdog

BROKEN = RunKey("no-such-benchmark", "PCM-Only")
HEALTHY = RunKey("fop", "PCM-Only")


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


class TestErrorResult:
    def test_numeric_fields_are_nan(self):
        result = error_result(BROKEN)
        assert math.isnan(result.pcm_write_lines)
        assert math.isnan(result.elapsed_seconds)
        assert math.isnan(result.pcm_write_rate_mbs)

    def test_nan_propagates_into_err_cells(self):
        result = error_result(BROKEN)
        normalised = result.pcm_write_lines / 1000.0
        text = format_table(["bench", "writes"],
                            [["no-such-benchmark", normalised]])
        assert "ERR" in text


def _demo(ident, keys):
    """An experiment module tabulating the PCM writes of ``keys``."""
    def render(results):
        rows = [[key.benchmark, results[key].pcm_write_lines]
                for key in keys]
        return ExperimentOutput(ident, ident,
                                format_table(["bench", "writes"], rows),
                                {key.benchmark: results[key].pcm_write_lines
                                 for key in keys})
    return types.SimpleNamespace(keys=lambda: list(keys), render=render)


@pytest.fixture
def demos(monkeypatch):
    """Two demo experiments that share the broken key."""
    for ident, keys in (("demo", [BROKEN, HEALTHY]), ("demo2", [BROKEN])):
        monkeypatch.setitem(sys.modules, f"repro.experiments.{ident}",
                            _demo(ident, keys))
    monkeypatch.setattr("repro.experiments.EXPERIMENTS", ["demo", "demo2"])


class TestResilientRunner:
    def test_fail_mode_propagates(self):
        # A single measurement outside a reproduction stays strict.
        with pytest.raises(KeyError, match="no-such-benchmark"):
            ExperimentRunner().run("no-such-benchmark")

    def test_skip_mode_renders_err_and_exits_one(self, demos, capsys):
        # The command's sweep fans the two keys out across a pool.
        assert with_watchdog(lambda: main(["reproduce", "demo"])) == 1
        captured = capsys.readouterr()
        assert "ERR" in captured.out
        line, = [line for line in captured.err.splitlines()
                 if line.startswith("ERR ")]
        assert '"benchmark": "no-such-benchmark"' in line
        assert ': KeyError: ' in line

    def test_skip_mode_substitutes_an_error_cell(self, demos):
        outputs, failures = reproduce(["demo"], ExperimentRunner(),
                                      max_workers=1)
        assert math.isnan(outputs["demo"].data["no-such-benchmark"])
        assert [outcome.key for outcome in failures] == [BROKEN]
        assert failures[0].failure.exception_type == "KeyError"
        assert METRICS.value("runner.failures") == 1

    def test_failed_cells_are_cached(self, demos):
        # A key shared by two experiments fails once, for both.
        runner = ExperimentRunner()
        outputs, failures = reproduce(["demo", "demo2"], runner,
                                      max_workers=1)
        assert len(failures) == 1
        for name in ("demo", "demo2"):
            assert "ERR" in outputs[name].text

    def test_failing_cell_runs_once(self, demos):
        reproduce(["demo2"], ExperimentRunner(), max_workers=1)
        assert METRICS.value("runner.retries") == 0
        assert METRICS.value("runner.cache.misses") == 1

    def test_healthy_runs_are_untouched(self, demos):
        runner = ExperimentRunner()
        outputs, _ = reproduce(["demo"], runner, max_workers=1)
        expected = runner.run("fop", "PCM-Only").pcm_write_lines
        assert outputs["demo"].data["fop"] == expected > 0
        assert runner.executions == 1

    def test_unknown_policy_rejected(self, capsys):
        # One policy: there is no switch to choose another.
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "table1", "--on-error", "skip"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        import repro.experiments.common as common
        assert not hasattr(common, "ResilientRunner")
