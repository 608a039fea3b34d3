"""Placement-aware sweeps: fan-out bit-identity and key separation."""

import pytest

from repro.core.platform import EmulationMode
from repro.harness.experiment import ExperimentRunner, RunKey
from repro.observability.metrics import METRICS

from tests.pool_watchdog import with_watchdog


def _key(collector="PCM-Only", placement="static"):
    return RunKey("fop", collector, 1, "default",
                  EmulationMode.EMULATION, placement=placement)


KEYS = [_key("PCM-Only", "migrate"), _key("KG-N", "migrate"),
        _key("KG-N", "static")]


@pytest.fixture(autouse=True)
def clean_registry():
    METRICS.reset()
    yield
    METRICS.reset()


def _values(results):
    return [(r.placement, r.pcm_write_lines, r.dram_write_lines,
             r.pages_migrated, r.migration_writes,
             r.pcm_migration_write_lines, r.dram_migration_write_lines)
            for r in results]


class TestPlacementSweep:
    def test_pool_and_serial_fanout_bit_identical(self):
        # The migrate policy runs inside the workers; its migrations
        # must be as deterministic as the mutator's writes, so a pooled
        # fan-out and an in-process serial sweep agree to the line.
        pooled = with_watchdog(
            lambda: ExperimentRunner().sweep(KEYS, max_workers=2))
        serial = ExperimentRunner().sweep(KEYS, max_workers=1)
        assert _values(pooled.results) == _values(serial.results)

    def test_placement_reaches_the_result(self):
        report = ExperimentRunner().sweep([_key("KG-N", "migrate")],
                                          max_workers=1)
        result = report.results[0]
        assert result.placement == "migrate"
        assert result.migration_writes == (
            result.pcm_migration_write_lines
            + result.dram_migration_write_lines)

    def test_placements_are_distinct_cache_keys(self):
        runner = ExperimentRunner()
        static = runner.run("fop", "KG-N", placement="static")
        migrate = runner.run("fop", "KG-N", placement="migrate")
        # Same benchmark/collector, different policy: the memo cache
        # must not alias them (migrate pays migration writes under
        # the OS policy; GC-directed static never does).
        assert static.placement == "static"
        assert migrate.placement == "migrate"
        assert static.migration_writes == 0
        assert migrate.pages_migrated > 0
