"""Whole-run golden digests: the simulated counters pinned end to end.

Each case is one ``HybridMemoryPlatform.run`` at ``DEFAULT_SEEDS``.  Its
digest is the SHA-256 of the compact, key-sorted JSON of the run's
canonical result payload (``canonical_result``: the simulated counters
with host timing stripped), wrapped in a one-element list exactly as the
end-to-end benchmark's ``child.digest`` does.  So the xalan and pr
KG-W digests are also the seed-0 entries of
``benchmarks/e2e/golden.json``.

Comparing the access path with the per-line oracle cannot catch a drift
in code they share (the workload model, the runtime, the random draws),
so every case is compared against a checked-in digest instead, and the
fop, xalan and pr cases run both on the default ``batched`` access path
and under the ``perline`` oracle (:func:`per_line_oracle`).  Under the
oracle, pr's batches of GraphChi temporaries are zeroed object by
object, so its ``perline`` leg pins ``access_objects`` too.  The
PCM-Only configurations run every thread on the PCM socket, and
``migrate`` also moves pages at placement safepoints, covering the
write-back and migration paths that KG-W on its own misses.  The
two-instance fop case is Figure 4's interleaving: both instances share
one LLC.  The simulation-mode xalan case is Table II's simulator leg.

After a deliberate model change, regenerate the file and say why in
CHANGES.md::

    PYTHONPATH=src python tests/integration/test_golden_runs.py --write
"""

import hashlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.core.platform import EmulationMode, HybridMemoryPlatform
from repro.harness.checkpoint import canonical_result, result_to_dict
from repro.sanitize.fuzz import per_line_oracle
from repro.workloads.registry import benchmark_factory

GOLDEN_PATH = Path(__file__).with_name("golden_runs.json")

#: case name -> (benchmark, collector, mode, placement, instances,
#: access paths to run it on: "batched" is the default path, "perline"
#: the per-line oracle).
EMU = EmulationMode.EMULATION
CASES = {
    "xalan/KG-W": ("xalan", "KG-W", EMU, "static", 1,
                   ("perline", "batched")),
    "pr/KG-W": ("pr", "KG-W", EMU, "static", 1, ("perline", "batched")),
    "fop/KG-W": ("fop", "KG-W", EMU, "static", 1, ("perline", "batched")),
    "fop/PCM-Only": ("fop", "PCM-Only", EMU, "static", 1,
                     ("perline", "batched")),
    "fop/PCM-Only/migrate": ("fop", "PCM-Only", EMU, "migrate", 1,
                             ("perline", "batched")),
    # Figure 4's interleaving: two instances share the LLC and take
    # turns on the scheduler.
    "fop/KG-W/x2": ("fop", "KG-W", EMU, "static", 2,
                    ("perline", "batched")),
    # Table II's simulator leg: the simulation-mode platform.
    "xalan/KG-W/simulation": ("xalan", "KG-W", EmulationMode.SIMULATION,
                              "static", 1, ("batched",)),
}

REGENERATE = ("PYTHONPATH=src python tests/integration/test_golden_runs.py"
              " --write")


def run_payload(case: str, path: str) -> dict:
    """The canonical result payload of ``case`` on access ``path``."""
    benchmark, collector, mode, placement, instances, _ = CASES[case]
    platform = HybridMemoryPlatform(mode=mode, placement=placement)
    oracle = per_line_oracle() if path == "perline" else nullcontext()
    with oracle:
        result = platform.run(benchmark_factory(benchmark),
                              collector=collector, instances=instances)
    return canonical_result(result_to_dict(result))


def digest(payload: dict) -> str:
    text = json.dumps([payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case,path", [
    (case, path) for case, spec in CASES.items() for path in spec[-1]])
def test_whole_run_matches_golden(case, path):
    payload = run_payload(case, path)
    assert payload["pcm_write_lines"] > 0
    expected = load_golden()[case]
    assert digest(payload) == expected, (
        f"{case} on the {path} path no longer reproduces its golden "
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
    """Recompute every case (under the oracle where the case has an
    oracle leg) and rewrite the file."""
    golden = {case: digest(run_payload(case, CASES[case][-1][0]))
              for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    write_golden()
