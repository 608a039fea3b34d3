"""End-to-end benchmark: host seconds per platform run and per figure sweep.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --out results.json
    python3 benchmarks/e2e/run.py --workload graphchi-pr --seed 3 \\
        --seconds 20 --trace 0

This process is the only driver.  It runs the workloads one after
another, each in its own fresh child interpreter (``child.py``) whose
environment has the ``REPRO_*`` selectors removed.  Per workload it

* runs the child: a warm-up call, timed units for ``--seconds`` with a
  fixed reference loop timed after every part and set-up probes (fresh
  interpreters timed from spawn to ready) now and then, and with
  ``--trace 1`` one unit under cProfile for the per-layer numbers;
* reports ``wall_s`` as the mean unit time scaled to an uncontended
  host by the reference loop, and ``setup_s`` as the median probe;
* checks every part's canonical result digest against ``golden.json``
  (or, for seeds it does not list, against each other);
* flags the workload ``unstable`` when the reference loop's mean moved
  between the two halves of the timed window.

It prints every metric with its unit, writes them to ``--out`` as JSON,
and prints as its last line ``{"correct", "attempted", "failed",
"metrics"}`` with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: Why each workload was chosen is in README.md.
WORKLOADS: Dict[str, Dict] = {
    "dacapo-xalan": {"kind": "platform", "benchmark": "xalan",
                     "collector": "KG-W", "instances": 1},
    "graphchi-pr": {"kind": "platform", "benchmark": "pr",
                    "collector": "KG-W", "instances": 1},
    "figure-sweep": {"kind": "sweep"},
}

#: Ambient selectors that would change what is measured.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_PLACEMENT", "REPRO_WORKER_FAULTS",
                "REPRO_NO_CC", "REPRO_KERNEL_CACHE")
#: Seconds of ``child.reference_seconds()`` on an uncontended vCPU of the
#: reference VM (the fastest of 200 readings, 2.1 GHz Intel Xeon).
REFERENCE_S = 0.12
#: Reference means of the window's two halves further apart than this
#: flag the host unstable.
DRIFT_LIMIT = 0.10
#: Seeds whose digests golden.json pins, per platform workload.
GOLDEN_SEEDS = range(16)
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def child_env(engine: Optional[str]) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    if engine:
        env["REPRO_ENGINE"] = engine
        env["REPRO_KERNEL_CACHE"] = str(HERE / ".kernel-cache")
    return env


def _reap_group(pgid: int) -> None:
    """Kill and wait out whatever a child left in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise BenchError(f"processes of group {pgid} outlived SIGKILL")


def spawn(args: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)


def finish(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT_S):
    """Wait for ``proc``; returns (stdout, stderr); raises on failure."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child exceeded {timeout:.0f}s") from None
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{err[-2000:]}")
    return out, err


def import_seconds(env: Dict[str, str]) -> Dict[str, float]:
    """Cumulative import time of numpy and of repro, from -X importtime."""
    _, err = finish(spawn(["-X", "importtime", str(HERE / "child.py"),
                           "probe"], env))
    totals = {"numpy": 0.0, "repro": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:].rstrip()
        if name.startswith(" "):  # nested: in its importer's total
            continue
        package = name.split(".")[0]
        if package in totals:
            totals[package] += int(fields[1]) / 1e6
    return totals


def run_child(name: str, seed: int, seconds: float, trace: bool,
              env: Dict[str, str]) -> Dict:
    spec = dict(WORKLOADS[name], seed=seed, seconds=seconds, trace=trace)
    out, _ = finish(spawn([str(HERE / "child.py"), "run", json.dumps(spec)],
                          env))
    return json.loads(out.strip().splitlines()[-1])


def golden_digests(name: str, seed: int) -> Optional[List[str]]:
    """The pinned digest of each part, or None for an unlisted seed."""
    golden = json.loads(GOLDEN.read_text())["digests"].get(name, {})
    return golden.get("any", golden.get(str(seed)))


def check_digests(units: List[Dict], golden: Optional[List[str]]
                  ) -> Tuple[int, int, List[List[str]]]:
    """(parts attempted, parts failed, each part's distinct digests).

    A part fails when it raised, or when its digest differs from
    ``golden`` or, without one, from the first digest seen for it.
    """
    expected = list(golden or [])
    seen: List[set] = []
    attempted = failed = 0
    for unit in units:
        attempted += len(unit["walls"])
        failed += "error" in unit
        for part, found in enumerate(unit["digests"]):
            if part == len(expected):
                expected.append(found)
            if part == len(seen):
                seen.append(set())
            seen[part].add(found)
            failed += found != expected[part]
    return attempted, failed, [sorted(found) for found in seen]


def measure(name: str, seed: int, seconds: float, trace: bool,
            engine: Optional[str]) -> Dict:
    """Run one workload; returns its metrics, checks and provenance.

    ``wall_s`` is the mean unit time, times ``REFERENCE_S`` over the
    mean reference-loop time of the same window.  On a shared VM,
    contention slows a vCPU up to twofold, changing within a second
    and in its mix over minutes; the reference loop, timed after every
    part, slows with it, so the ratio cancels most of it.
    """
    env = child_env(engine)
    child = run_child(name, seed, seconds, trace, env)
    # After the child, so a fresh checkout's bytecode is compiled.
    imports = import_seconds(env) if trace else None

    units = [child["warmup"], *child["timed"]]
    if trace:
        units.append(child["traced"])
    golden = golden_digests(name, seed)
    attempted, failed, digests = check_digests(units, golden)
    timed = [u for u in child["timed"] if "error" not in u]
    if not timed:
        raise BenchError(f"{name}: every timed unit failed: "
                         f"{child['timed'][0]['error']}")
    unit_s = sum(sum(u["walls"]) for u in timed) / len(timed)
    references = child["references"]
    wall_s = unit_s * REFERENCE_S / statistics.mean(references)
    metrics = {
        "wall_s": wall_s,
        "sim_mcycles_per_s": timed[0]["cycles"] / 1e6 / wall_s,
        "setup_s": statistics.median(child["setups"]),
        "peak_rss_mb": child["peak_rss_mb"],
    }
    if trace:
        metrics.update(per_layer(child, unit_s, timed, imports))
    half = len(references) // 2
    first, second = (statistics.mean(references[:half or 1]),
                     statistics.mean(references[half:]))
    drift = abs(second / first - 1)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "golden": golden is not None,
        "digests": digests,
        "timed_units": len(timed),
        "unit_s": unit_s,
        "part_walls": [u["walls"] for u in timed],
        "reference_samples": references,
        "setup_samples": child["setups"],
        "engine": child["engine"],
        "kernel_name": child["kernel_name"],
        "env": {"reference_first_half_s": first,
                "reference_second_half_s": second,
                "drift": drift, "unstable": drift > DRIFT_LIMIT},
    }


def per_layer(child: Dict, unit_s: float, timed: List[Dict],
              imports: Dict[str, float]) -> Dict[str, float]:
    traced = child["traced"]
    if "error" in traced:
        raise BenchError(f"traced unit failed: {traced['error']}")
    metrics: Dict[str, float] = {}
    for layer, values in traced["layers"].items():
        for key, value in values.items():
            metrics[f"{layer}.{key}"] = value
    self_total = sum(v["self_s"] for v in traced["layers"].values())
    traced_wall = sum(traced["walls"])
    metrics["traced.wall_s"] = traced_wall
    metrics["traced.overhead"] = traced_wall / unit_s
    metrics["traced.coverage"] = self_total / traced_wall
    for key, value in traced["sim"].items():
        metrics[f"sim.{key}"] = value
    metrics["harness.run_share"] = statistics.median(
        u["host_seconds"] / sum(u["walls"]) for u in timed)
    metrics["harness.retries"] = sum(u["retries"] for u in timed)
    metrics["setup.import_numpy_s"] = imports["numpy"]
    metrics["setup.import_repro_s"] = imports["repro"]
    metrics["setup.first_run_s"] = sum(child["warmup"]["walls"])
    return metrics


def report(name: str, seed: int, outcome: Dict,
           metric_units: Dict[str, str]) -> None:
    env = outcome["env"]
    print(f"== {name}  seed {seed}  engine {outcome['engine']} "
          f"(kernel {outcome['kernel_name']})  "
          f"{outcome['timed_units']} timed units  "
          f"reference {env['reference_first_half_s']:.4f}s -> "
          f"{env['reference_second_half_s']:.4f}s"
          f"{'  UNSTABLE' if env['unstable'] else ''}")
    for metric, value in outcome["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {metric:32s} {shown} {metric_units[metric]}")
    check = "golden" if outcome["golden"] else "self-consistent"
    print(f"  parts failed {outcome['failed']}/{outcome['attempted']} "
          f"({check}); digests:")
    for part, found in enumerate(outcome["digests"]):
        print(f"    part {part}: {', '.join(found)}")


def write_golden(engine: Optional[str]) -> None:
    """Regenerate golden.json from the warm-up plus one timed unit per
    (workload, seed); refuses when a part fails or they disagree."""
    env = child_env(engine)
    digests: Dict[str, Dict[str, List[str]]] = {}
    for name, spec in WORKLOADS.items():
        seeds = [0] if spec["kind"] == "sweep" else list(GOLDEN_SEEDS)
        digests[name] = {}
        for seed in seeds:
            child = run_child(name, seed, 0.0, False, env)
            units = [child["warmup"], *child["timed"]]
            _, failed, found = check_digests(units, None)
            if failed:
                errors = [u["error"] for u in units if "error" in u]
                raise BenchError(f"{name} seed {seed}: {failed} parts "
                                 f"failed or disagree: {errors or found}")
            key = "any" if spec["kind"] == "sweep" else str(seed)
            digests[name][key] = [part[0] for part in found]
            print(f"{name} seed {seed}: {digests[name][key]}", flush=True)
    GOLDEN.write_text(json.dumps({"digests": digests}, indent=1) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["all", *WORKLOADS],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", help="also write the results as JSON")
    parser.add_argument("--engine",
                        choices=("perline", "batched", "columnar", "jit"),
                        help="ad-hoc engine tables only; the pipeline "
                             "never sets it")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json and exit")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "repro").is_dir():
            raise BenchError(f"no program to measure: {SRC / 'repro'} "
                             f"is missing")
        if args.write_golden:
            write_golden(args.engine)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        wanted = {m["name"]: m["unit"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]}
        every = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            outcome = measure(name, args.seed, seconds, bool(args.trace),
                              args.engine)
            undeclared = set(outcome["metrics"]) - set(every)
            missing = set(wanted) - set(outcome["metrics"])
            if undeclared or missing:
                raise BenchError(f"metrics disagree with BENCHMARK.json: "
                                 f"undeclared {sorted(undeclared)}, "
                                 f"missing {sorted(missing)}")
            report(name, args.seed, outcome, every)
            results[name] = outcome
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": "repro.bench_e2e/v1", "seed": args.seed,
            "seconds": seconds, "trace": args.trace,
            "engine_override": args.engine, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "workloads": results,
        }, indent=1) + "\n")

    def final_name(workload: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{workload}.{metric}"

    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {final_name(w, m): {"value": r["metrics"][m],
                                       "unit": wanted[m]}
                    for w, r in results.items() for m in wanted},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
