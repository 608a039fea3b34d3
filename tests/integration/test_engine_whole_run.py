"""Whole-run engine identity: ``perline`` and ``batched`` agree end to end.

The differential fuzzer proves the two engines bit-identical on random
traces; this pins the same contract at whole-run granularity.  One
fop ``HybridMemoryPlatform.run`` per configuration goes through each
engine, and the canonical result payload (the one ``repro serve``
digests, with host timing stripped) must match field for field.

The PCM-Only configurations run every thread on the PCM socket, and
the ``migrate`` one also moves pages at placement safepoints, so they
cover the write-back and migration paths that KG-W on its own misses.
"""

import pytest

from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.harness.checkpoint import result_to_dict
from repro.serve.wire import canonical_result
from repro.workloads.registry import benchmark_factory

CONFIGS = [
    ("KG-W", "static"),
    ("PCM-Only", "static"),
    ("PCM-Only", "migrate"),
]


def _run_fop(engine, collector, placement):
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION,
                                    engine=engine, placement=placement)
    factory = benchmark_factory("fop")

    def make_app(index):
        return factory(index, dataset="default")

    result = platform.run(make_app, collector=collector, instances=1)
    return canonical_result(result_to_dict(result))


@pytest.mark.parametrize("collector,placement", CONFIGS)
def test_batched_matches_perline_over_a_whole_run(collector, placement):
    oracle = _run_fop("perline", collector, placement)
    batched = _run_fop("batched", collector, placement)
    assert oracle["pcm_write_lines"] > 0
    assert batched == oracle
