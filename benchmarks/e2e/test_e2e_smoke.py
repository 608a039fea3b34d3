"""Smoke test of the end-to-end benchmark (about a minute; not tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py`` with one timed unit on the figure sweep and on the
quickest platform workload, untraced, and checks the result contract,
the golden digests, lint, and that the benchmark refuses to run without
the program it measures.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE_WORKLOADS = ("graphchi-pr", "figure-sweep")


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units():
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"]
            + spec["per_layer"]}


@pytest.fixture(scope="module", params=SMOKE_WORKLOADS)
def smoke(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", request.param,
         "--seed", "0", "--seconds", "0", "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    return request.param, final, json.loads(out.read_text())


def test_final_line_is_the_result_contract(smoke):
    _, final, _ = smoke
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 2
    expected = {m["name"] for m in benchmark_spec()["end_to_end"]}
    assert set(final["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in final["metrics"].values())


def test_every_metric_is_declared_with_its_unit(smoke):
    _, final, out = smoke
    units = declared_units()
    for name, entry in final["metrics"].items():
        assert NAME.fullmatch(name) and units[name] == entry["unit"]
    for outcome in out["workloads"].values():
        for name in outcome["metrics"]:
            assert NAME.fullmatch(name) and name in units


def test_digests_equal_golden(smoke):
    workload, _, out = smoke
    golden = json.loads((HERE / "golden.json").read_text())["digests"]
    outcome = out["workloads"][workload]
    assert outcome["golden"] is True
    pinned = golden[workload].get("any", golden[workload].get("0"))
    assert outcome["digests"] == [[digest] for digest in pinned]


def test_benchmark_json_names_are_valid_and_unique():
    spec = benchmark_spec()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_lint_reports_nothing_on_the_benchmark():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--json", "--baseline",
         "none"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    report = json.loads(proc.stdout)
    ours = [f for f in report["findings"]
            if f["path"].startswith("benchmarks/e2e")]
    assert ours == []
    baseline = (ROOT / "lint-baseline.json").read_text()
    assert "e2e" not in baseline


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "graphchi-pr", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
