"""Hot-path gate: the access path vs the per-line oracle, speed + identity.

The access path's fused ``access_run`` loops (reported as ``batched``)
exist purely to make the simulator faster; they must not change a
single simulated counter.  This gate drives identical access traces
through the default path and, under
:func:`~repro.sanitize.fuzz.per_line_oracle`, through the per-line
walk, on identically built machines, and asserts the full
architectural state — per-node read/write lines, per-tag write
attribution, private-cache and LLC stats, QPI crossings, and thread
cycles — comes out *bit-identical* to the per-line oracle, while the
batched path clears its recorded speed floor on every scenario.

Results land in ``BENCH_hotpath.json`` at the repo root (uploaded as a
CI artifact).  The headline number is the batched path on the
L2-resident hot-page scenario: it isolates raw engine overhead the way
lmbench isolates syscall cost.  Every speedup is a within-run ratio
(oracle and candidate timed back to back in the same process) because
absolute wall times on shared CI runners are too noisy to gate on.
The floors sit at 80% of the recorded speedup, so a >20% regression on
any scenario fails the gate.  Whole-run identity is a tier-1 test
against checked-in digests (``tests/integration/test_golden_runs.py``).
"""

import json
import os
import random
import time
from contextlib import nullcontext

from repro.config import DEFAULT_LATENCY, DEFAULT_SCALE_CONFIG, PAGE_SIZE
from repro.kernel.vm import Kernel
from repro.machine.topology import (
    DRAM_NODE,
    PCM_NODE,
    emulation_platform_spec,
)
from repro.sanitize.fuzz import per_line_oracle

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_hotpath.json")

BASE = 0x100000
#: Pages mapped per node for the microbenchmark traces.
PAGES_PER_NODE = 512

#: Per-scenario floors for the batched path: 80% of the speedup
#: recorded in BENCH_hotpath.json on the reference container, so a
#: >20% regression on any scenario fails the gate.
BATCHED_FLOORS = {
    "hot_page": 2.3,
    "llc_set": 1.28,
    "stream": 1.39,
    "mixed": 1.25,
}

#: The headline is batched ``hot_page``, gated by its own floor.
HEADLINE_FLOOR = BATCHED_FLOORS["hot_page"]


# ----------------------------------------------------------------------
# Trace construction (deterministic, seeded)
# ----------------------------------------------------------------------
def _trace_hot_page():
    """L2-resident page re-touches: raw engine overhead dominates.

    One whole-page block per op, the shape of the JVM's zero-on-alloc
    and copy loops; every line hits the private cache, so the timing
    isolates per-line Python overhead rather than simulated misses.
    """
    ops = []
    for index in range(2_500):
        ops.append((BASE, PAGE_SIZE, index % 2 == 0))
    return ops

def _trace_llc_set():
    """LLC-resident blocks: working set spills L2 but fits the LLC."""
    rng = random.Random(23)
    span = 48 * PAGE_SIZE  # 192 KB: > 4 KB L2, < 320 KB LLC
    ops = []
    for _ in range(4_000):
        size = rng.choice((512, 1024, 2048, 4096))
        offset = rng.randrange(0, span - size, 64)
        ops.append((BASE + offset, size, rng.random() < 0.4))
    return ops

def _trace_stream():
    """Streaming writes across both nodes: miss/write-back dominated."""
    ops = []
    span = 2 * PAGES_PER_NODE * PAGE_SIZE
    for index in range(1_500):
        addr = BASE + (index * 4096) % (span - 4096)
        ops.append((addr, 4096, True))
    return ops

def _trace_mixed():
    """Random sizes and nodes: the GC/mutator blend."""
    rng = random.Random(47)
    span = 2 * PAGES_PER_NODE * PAGE_SIZE
    ops = []
    for _ in range(12_000):
        size = rng.choice((4, 8, 64, 256, 512, 2048))
        addr = BASE + rng.randrange(0, span - size, 8)
        ops.append((addr, size, rng.random() < 0.5))
    return ops


SCENARIOS = [
    ("hot_page", _trace_hot_page),
    ("llc_set", _trace_llc_set),
    ("stream", _trace_stream),
    ("mixed", _trace_mixed),
]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _fresh_thread():
    """A thread over PAGES_PER_NODE pages on DRAM then PCM."""
    machine = emulation_platform_spec(
        DEFAULT_SCALE_CONFIG, DEFAULT_LATENCY).build()
    kernel = Kernel(machine)
    process = kernel.create_process(affinity_socket=0)
    length = PAGES_PER_NODE * PAGE_SIZE
    kernel.mmap_bind(process, BASE, length, node_id=DRAM_NODE, tag="dram")
    kernel.mmap_bind(process, BASE + length, length, node_id=PCM_NODE,
                     tag="pcm")
    thread = process.spawn_thread()
    return machine, thread


def _snapshot(machine, thread):
    """Every simulated counter the two paths could possibly disagree on."""
    machine.flush_all([thread.core_path])
    private = thread.core_path.private
    return {
        "nodes": [(node.read_lines, node.write_lines,
                   dict(node.writes_by_tag)) for node in machine.nodes],
        "llc": [(s.llc.stats.hits, s.llc.stats.misses, s.llc.stats.evictions,
                 s.llc.stats.dirty_evictions) for s in machine.sockets],
        "private": (private.stats.hits, private.stats.misses,
                    private.stats.evictions, private.stats.dirty_evictions)
        if private is not None else None,
        "qpi": machine.qpi_crossings,
        "cycles": thread.cycles,
        "page_faults": thread.process.kernel.page_faults,
    }


def _drive(ops, oracle, repeats=3):
    """Best-of-N wall time plus the end-state snapshot for one path.

    The machine is built fresh per repeat and the trace always goes
    through ``thread.access``; with ``oracle`` set that is the per-line
    walk, patched in by :func:`per_line_oracle`.
    """
    best = float("inf")
    snapshot = None
    with per_line_oracle() if oracle else nullcontext():
        for _ in range(repeats):
            machine, thread = _fresh_thread()
            access = thread.access
            start = time.perf_counter()
            for vaddr, size, is_write in ops:
                access(vaddr, size, is_write)
            best = min(best, time.perf_counter() - start)
            snapshot = _snapshot(machine, thread)
    return best, snapshot


def test_engine_matrix_identical_and_faster():
    """The gate: bit-identical counters, recorded batched speedups."""
    report = {
        "benchmark": "hotpath",
        "headline_scenario": "hot_page",
        "headline_engine": "batched",
        "headline_floor": HEADLINE_FLOOR,
        "engines": {"reference": "perline", "measured": ["batched"]},
        "scenarios": {},
    }
    for name, build_trace in SCENARIOS:
        ops = build_trace()
        baseline_seconds, oracle_state = _drive(ops, oracle=True)
        lines = sum((vaddr + size - 1) // 64 - vaddr // 64 + 1
                    for vaddr, size, _ in ops)
        engine_seconds, engine_state = _drive(ops, oracle=False)
        assert engine_state == oracle_state, (
            f"{name}: batched path diverged from the per-line oracle")
        report["scenarios"][name] = {
            "ops": len(ops),
            "lines": lines,
            "per_line_seconds": round(baseline_seconds, 6),
            "per_line_us_per_line": round(baseline_seconds / lines * 1e6, 4),
            "batched": {
                "seconds": round(engine_seconds, 6),
                "us_per_line": round(engine_seconds / lines * 1e6, 4),
                "speedup": round(baseline_seconds / engine_seconds, 3),
                "identical_counters": True,
                "floor": BATCHED_FLOORS[name],
            },
        }
    headline = report["scenarios"]["hot_page"]["batched"]["speedup"]
    report["headline_speedup"] = headline
    with open(BENCH_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, entry in report["scenarios"].items():
        batched = entry["batched"]["speedup"]
        assert batched >= BATCHED_FLOORS[name], (
            f"{name}: batched speedup {batched:.2f}x regressed below the "
            f"{BATCHED_FLOORS[name]}x floor (recorded * 0.8)")
