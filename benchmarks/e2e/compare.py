"""Compare sets of end-to-end benchmark results against BENCHMARK.json.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A B [C ...]

Each side is a ``run.py --out`` JSON file or a directory of them; the
values of one (workload, metric) pool across a side's files.  The first
side is the base.  For every workload and end-to-end metric, each side
prints its median and quartiles (``statistics.quantiles(n=4)``) and the
other side gets a verdict against the metric's bound:

``better``      every run of the side beats every run of the base;
``unresolved``  either side's quartile spread, as a share of its
                median, is wider than the bound;
``regression``  the median is worse than the base's by more than the
                bound;
``ok``          otherwise.

``error_rate`` (failed units / units attempted) regresses on any
increase.  Exits 1 when any row regresses.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_side(path: Path) -> Dict[str, Dict]:
    """workload -> {"metrics": {name: [values]}, attempted, failed}."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    side: Dict[str, Dict] = {}
    for file in files:
        for workload, outcome in json.loads(file.read_text())[
                "workloads"].items():
            entry = side.setdefault(workload, {"metrics": {}, "attempted": 0,
                                               "failed": 0})
            entry["attempted"] += outcome["attempted"]
            entry["failed"] += outcome["failed"]
            for name, value in outcome["metrics"].items():
                entry["metrics"].setdefault(name, []).append(value)
    if not side:
        raise SystemExit(f"error: no results in {path}")
    return side


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], other: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change where positive is worse)."""
    bq1, bmed, bq3 = quartiles(base)
    oq1, omed, oq3 = quartiles(other)
    sign = 1 if better == "lower" else -1
    worse = sign * (omed - bmed) / bmed
    if all(sign * (o - b) < 0 for o in other for b in base):
        return "better", worse
    spread = max((bq3 - bq1) / bmed, (oq3 - oq1) / omed)
    if spread > bound:
        return "unresolved", worse
    return ("regression" if worse > bound else "ok"), worse


def fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(base: Dict, other: Dict, metrics: List[Dict]) -> bool:
    """Print one side against the base; True when nothing regressed."""
    clean = True
    print(f"{'workload':16s} {'metric':18s} {'base median [q1, q3]':30s} "
          f"{'side median [q1, q3]':30s} {'worse':>7s} {'bound':>6s} "
          f"verdict")
    for workload in sorted(set(base) & set(other)):
        b, o = base[workload], other[workload]
        for metric in metrics:
            name = metric["name"]
            if name not in b["metrics"] or name not in o["metrics"]:
                continue
            result, worse = verdict(b["metrics"][name], o["metrics"][name],
                                    metric["better"], metric["bound"])
            clean &= result != "regression"
            print(f"{workload:16s} {name:18s} {fmt(b['metrics'][name]):30s} "
                  f"{fmt(o['metrics'][name]):30s} {worse:+7.1%} "
                  f"{metric['bound']:6.0%} {result}")
        base_rate = b["failed"] / b["attempted"]
        rate = o["failed"] / o["attempted"]
        result = "regression" if rate > base_rate else "ok"
        clean &= result != "regression"
        print(f"{workload:16s} {'error_rate':18s} {base_rate:<30.4g} "
              f"{rate:<30.4g} {'':>7s} {'any':>6s} {result}")
    return clean


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load_side(Path(argv[0]))
    clean = True
    for path in argv[1:]:
        print(f"\n== base {argv[0]}  vs  {path}")
        clean &= compare(base, load_side(Path(path)), metrics)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
