"""Whole-run golden digests: the simulated counters pinned end to end.

Each case is one ``HybridMemoryPlatform.run`` at ``DEFAULT_SEEDS``.  Its
digest is the SHA-256 of the compact, key-sorted JSON of the run's
canonical result payload (the one ``repro serve`` compares, with host
timing stripped), wrapped in a one-element list exactly as the
end-to-end benchmark's ``child.digest`` does.  So the xalan and pr
KG-W digests are also the seed-0 entries of
``benchmarks/e2e/golden.json``.

Comparing the two engines with each other cannot catch a drift in code
they share (the workload model, the runtime, the random draws), so
every case is compared against a checked-in digest instead, and the
fop and xalan cases run under both the ``perline`` oracle and the
default ``batched`` engine.  The PCM-Only configurations run every
thread on the PCM socket, and ``migrate`` also moves pages at
placement safepoints, covering the write-back and migration paths that
KG-W on its own misses.

After a deliberate model change, regenerate the file and say why in
CHANGES.md::

    PYTHONPATH=src python tests/integration/test_golden_runs.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.harness.checkpoint import result_to_dict
from repro.serve.wire import canonical_result
from repro.workloads.registry import benchmark_factory

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

#: case name -> (benchmark, collector, placement, engines to run it on).
CASES = {
    "xalan/KG-W": ("xalan", "KG-W", "static", ("perline", "batched")),
    "pr/KG-W": ("pr", "KG-W", "static", ("batched",)),
    "fop/KG-W": ("fop", "KG-W", "static", ("perline", "batched")),
    "fop/PCM-Only": ("fop", "PCM-Only", "static", ("perline", "batched")),
    "fop/PCM-Only/migrate": ("fop", "PCM-Only", "migrate",
                             ("perline", "batched")),
}

REGENERATE = ("PYTHONPATH=src python tests/integration/test_golden_runs.py"
              " --write")


def run_payload(case: str, engine: str) -> dict:
    """The canonical result payload of ``case`` under ``engine``."""
    benchmark, collector, placement, _ = CASES[case]
    platform = HybridMemoryPlatform(mode=EmulationMode.EMULATION,
                                    engine=engine, placement=placement)
    result = platform.run(benchmark_factory(benchmark), collector=collector,
                          instances=1)
    return canonical_result(result_to_dict(result))


def digest(payload: dict) -> str:
    text = json.dumps([payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case,engine", [
    (case, engine) for case, spec in CASES.items() for engine in spec[3]])
def test_whole_run_matches_golden(case, engine):
    payload = run_payload(case, engine)
    assert payload["pcm_write_lines"] > 0
    expected = load_golden()[case]
    assert digest(payload) == expected, (
        f"{case} under the {engine} engine no longer reproduces its golden "
        f"digest: the simulated counters changed.  If the model change is "
        f"deliberate, regenerate {GOLDEN_PATH.name} with `{REGENERATE}` "
        f"and record why in CHANGES.md.")


def test_default_kgw_digests_match_the_e2e_benchmark_golden_file():
    e2e = json.loads((Path(__file__).parents[2] / "benchmarks" / "e2e"
                      / "golden.json").read_text())["digests"]
    golden = load_golden()
    assert e2e["dacapo-xalan"]["0"] == [golden["xalan/KG-W"]]
    assert e2e["graphchi-pr"]["0"] == [golden["pr/KG-W"]]


def write_golden() -> None:
    """Recompute every case under the oracle engine and rewrite the file."""
    golden = {case: digest(run_payload(case, CASES[case][3][0]))
              for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    write_golden()
