"""One end-to-end benchmark workload, in a fresh interpreter.

``run.py`` spawns this file; it is not meant to be run by hand.

``child.py probe``
    Do the benchmark's set-up (import the program, load the workload
    registry, resolve the access engine) and print ``ready``.
``child.py run SPEC_JSON``
    The same set-up, then a warm-up of the first part, timed units until
    they and the reference loops between their parts have taken
    ``spec["seconds"]`` (at least one unit), and, when
    ``spec["trace"]`` is set, one more unit under cProfile.  A unit
    runs each of the workload's parts once, in order, timing each part
    on its own.  A part is one call into the layer's public entry point:
    ``HybridMemoryPlatform.run`` (a platform workload has one part), or
    ``ExperimentRunner.sweep`` on one configuration (the figure sweep
    has one part per configuration).  After each timed part it times
    the reference loop and, now and then, a probe from spawn to
    ``ready``.  Prints one JSON record as the last line of stdout.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from layers import attribute

#: Set-up probes spread over the timed window (two more run before it).
SETUP_PROBES = 8
#: Iterations of the reference loop; keep ``run.REFERENCE_S`` in step.
REFERENCE_ITERATIONS = 300_000
#: After each timed part the reference loop runs (at least once) until
#: it has taken this share of the part's time.
REFERENCE_SHARE = 0.2


def ready():
    """The set-up ``setup_s`` measures; returns the resolved engine."""
    import numpy  # noqa: F401  - first, so -X importtime separates it

    import repro.harness.experiment  # noqa: F401
    from repro.machine.engine import resolve_engine
    from repro.workloads.registry import benchmarks_in_suite

    benchmarks_in_suite("dacapo")  # loads every suite's registrations
    return resolve_engine()


def seeds_for(seed: int):
    """Simulation seeds for benchmark seed ``seed``; 0 is the default."""
    from dataclasses import astuple

    from repro.config import DEFAULT_SEEDS, SimulationSeeds

    mix = (seed * 0x9E3779B1) & 0x7FFFFFFF
    return SimulationSeeds(*(value ^ mix for value in astuple(DEFAULT_SEEDS)))


def sweep_keys():
    """The figure sweep: fop under PCM-Only, the Figure 7 collectors,
    and PCM-Only with OS page migration, in canonical order."""
    from repro.core.platform import EmulationMode
    from repro.experiments.common import FIGURE7_COLLECTORS
    from repro.harness.experiment import RunKey

    configs = ([("PCM-Only", "static")]
               + [(name, "static") for name in FIGURE7_COLLECTORS]
               + [("PCM-Only", "migrate")])
    return [RunKey("fop", collector, 1, "default", EmulationMode.EMULATION,
                   placement=placement)
            for collector, placement in configs]


#: A part: call() -> (its results, its retries).
Part = Callable[[], Tuple[List, int]]


def make_parts(spec: Dict) -> List[Part]:
    if spec["kind"] == "sweep":
        from repro.harness.experiment import ExperimentRunner

        def sweep_one(key) -> Part:
            def sweep() -> Tuple[List, int]:
                # A fresh runner per call: its cache never answers a key.
                report = ExperimentRunner().sweep([key], max_workers=1)
                report.raise_first_failure()
                return report.results, sum(outcome.attempts - 1
                                           for outcome in report.outcomes)
            return sweep
        # RunKey has no seed field: every sweep runs DEFAULT_SEEDS, so
        # this workload ignores the benchmark seed.
        return [sweep_one(key) for key in sweep_keys()]

    from repro.core.platform import HybridMemoryPlatform
    from repro.workloads.registry import benchmark_factory

    factory = benchmark_factory(spec["benchmark"])
    seeds = seeds_for(spec["seed"])

    def platform_run() -> Tuple[List, int]:
        result = HybridMemoryPlatform(seeds=seeds).run(
            factory, collector=spec["collector"],
            instances=spec["instances"])
        return [result], 0
    return [platform_run]


def digest(results: List) -> str:
    """SHA-256 of one part's canonical results (outside the timed call)."""
    from repro.harness.checkpoint import result_to_dict
    from repro.serve.wire import canonical_result

    canonical = [canonical_result(result_to_dict(r)) for r in results]
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def attempt(parts: List[Part],
            between: Callable[[float], None] = lambda wall: None,
            profiler: Optional[cProfile.Profile] = None) -> Tuple[Dict, List]:
    """Run every part once, timing each; ``between(wall)`` runs after each.

    A part that raises fails the unit, which is recorded, not fatal.
    """
    from repro.config import DEFAULT_LATENCY

    record: Dict = {"walls": [], "digests": []}
    results: List = []
    retries = 0
    for part in parts:
        call = part if profiler is None else (
            lambda: profiler.runcall(part))
        start = time.perf_counter()
        try:
            part_results, part_retries = call()
        except Exception as exc:  # noqa: BLE001 - counted as a failed part
            record["walls"].append(time.perf_counter() - start)
            record["error"] = f"{type(exc).__name__}: {exc}"
            return record, []
        record["walls"].append(time.perf_counter() - start)
        record["digests"].append(digest(part_results))
        results += part_results
        retries += part_retries
        between(record["walls"][-1])
    record.update(
        retries=retries,
        cycles=sum(round(r.elapsed_seconds * DEFAULT_LATENCY.frequency_hz)
                   for r in results),
        host_seconds=sum(r.host_seconds for r in results))
    return record, results


def traced_unit(parts: List[Part]) -> Dict:
    """One unit under cProfile: layer self time and work bases."""
    import repro
    from repro.observability.metrics import METRICS

    METRICS.reset()
    profiler = cProfile.Profile()
    record, results = attempt(parts, profiler=profiler)
    if "error" in record:
        return record
    package_dir = os.path.dirname(repro.__file__) + os.sep
    record["layers"] = attribute(pstats.Stats(profiler).stats, package_dir)
    record["sim"] = {
        "cycles": record["cycles"],
        "pcm_write_lines": sum(r.pcm_write_lines for r in results),
        "dram_write_lines": sum(r.dram_write_lines for r in results),
        "llc_accesses": sum(s["hits"] + s["misses"]
                            for r in results for s in r.llc_stats),
        "gc_count": sum(s.minor_gcs + s.full_gcs
                        for r in results for s in r.instance_stats),
        "page_faults": METRICS.value("kernel.page_faults"),
        "pages_migrated": sum(r.pages_migrated for r in results),
        "dispatches": METRICS.value("kernel.scheduler.dispatches"),
    }
    return record


def peak_rss_mb() -> float:
    """High-water RSS of this process (every part runs in it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_seconds() -> float:
    """Seconds of a fixed, seeded pure-Python loop: the host's speed now.

    It runs after every timed part, so its readings sample the host's
    contention in the same window as the parts do.
    """
    rng = random.Random(0xCA11B)
    table: Dict[int, int] = {}
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        key = rng.randrange(4096)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def setup_seconds() -> float:
    """Spawn-to-ready seconds of one fresh interpreter in probe mode."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "probe"],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run(spec: Dict) -> Dict:
    engine = ready()
    parts = make_parts(spec)
    # Set-up probes run between parts, never during one: two before the
    # warm-up (after one that fills the file cache), then one whenever
    # another 1/SETUP_PROBES of the timed window has passed, so that
    # their median spans the window's changing host load.
    setups = [setup_seconds() for _ in range(3)][1:]
    # The first part warms what every part shares: imports, the workload
    # model, the machine.
    warmup, _ = attempt(parts[:1])
    references: List[float] = []
    last_probe = time.perf_counter()

    def between(wall: float) -> None:
        nonlocal last_probe
        spent = 0.0
        while not spent or spent < REFERENCE_SHARE * wall:
            references.append(reference_seconds())
            spent += references[-1]
        if time.perf_counter() - last_probe >= spec["seconds"] / SETUP_PROBES:
            setups.append(setup_seconds())
            last_probe = time.perf_counter()

    timed: List[Dict] = []
    while not timed or (sum(sum(u["walls"]) for u in timed)
                        + sum(references)) < spec["seconds"]:
        timed.append(attempt(parts, between)[0])
    out = {"engine": engine.name, "kernel_name": engine.kernel_name,
           "warmup": warmup, "timed": timed, "references": references,
           "setups": setups, "peak_rss_mb": peak_rss_mb()}
    if spec["trace"]:
        out["traced"] = traced_unit(parts)
    return out


def main(argv: List[str]) -> int:
    if argv[:1] == ["probe"]:
        ready()
        print("ready", flush=True)
        return 0
    if len(argv) == 2 and argv[0] == "run":
        print(json.dumps(run(json.loads(argv[1]))))
        return 0
    print("usage: child.py probe | child.py run SPEC_JSON", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
