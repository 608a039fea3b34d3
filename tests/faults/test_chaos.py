"""Chaos smoke test: a sweep under a 20% worker-crash rate survives.

``crashrate:p=0.2,seed=3`` deterministically kills the workers of two
of the eight keys below on their first attempt (the selection hashes
the run key, so it is stable across processes and interpreters).  The
sweep must retry those keys, keep every sibling's completed work, and
account for all eight keys exactly once, in input order.
"""

import pytest

from repro.core.platform import EmulationMode
from repro.faults.worker import ENV_VAR, _key_fields, _key_fraction
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS

from tests.pool_watchdog import with_watchdog

COLLECTORS = ["PCM-Only", "KG-N", "KG-B", "KG-N+LOO", "KG-B+LOO", "KG-W",
              "KG-W-LOO", "KG-W-MDO"]
KEYS = [RunKey("fop", collector, 1, "default", EmulationMode.EMULATION)
        for collector in COLLECTORS]
SPEC = "crashrate:p=0.2,seed=3,attempts=1"


def _crashes(key: RunKey) -> bool:
    return _key_fraction(_key_fields(key), "3") < 0.2


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def test_chaos_sweep_completes_with_every_key_accounted(monkeypatch):
    doomed = [key for key in KEYS if _crashes(key)]
    assert doomed, "seed 3 must kill at least one key or the test is moot"
    monkeypatch.setenv(ENV_VAR, SPEC)
    runner = ExperimentRunner()
    report = with_watchdog(lambda: runner.sweep(KEYS, max_workers=4))
    assert [outcome.key for outcome in report.outcomes] == KEYS
    assert report.ok, [
        (o.key.collector, o.failure.exception_type) for o in report.failures]
    for outcome in report.outcomes:
        if outcome.key in doomed:
            assert outcome.attempts >= 2, (
                f"{outcome.key.collector} should have crashed once")
    # Both crashes may land in one pool collapse, so at least one retry
    # event is guaranteed — not one per doomed key.
    assert METRICS.value("runner.retries") >= 1
    assert runner.executions == len(KEYS)
