"""Shared fixtures for the reproduction benchmarks.

Each ``benchmarks/test_*.py`` regenerates one table or figure of the
paper with :func:`repro.experiments.reproduce`, timed by
pytest-benchmark.  A session-scoped
:class:`~repro.harness.experiment.ExperimentRunner` caches every
platform measurement, so figures that share runs (Figures 4/5/6 and
Table III in particular) do not repeat them.
"""

import pytest

from repro.experiments import reproduce
from repro.harness.experiment import ExperimentRunner


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(verbose=False)


def emit(output):
    """Print an experiment output under a visible banner."""
    print()
    print("=" * 72)
    print(output.text)
    print("=" * 72)


def regenerate(benchmark, runner, name):
    """Reproduce experiment ``name`` once under pytest-benchmark,
    print it, and return its output; a failed run fails the test."""
    outputs, failures = benchmark.pedantic(reproduce, args=([name], runner),
                                           iterations=1, rounds=1)
    assert not failures, [outcome.key for outcome in failures]
    emit(outputs[name])
    return outputs[name]
