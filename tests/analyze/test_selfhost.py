"""The linter self-hosted over src/repro: clean, pinned, and fast."""

import json
import time

from tests.analyze.conftest import REPO_ROOT
from repro.analyze import Analyzer, Baseline, LintConfig, make_checkers
from repro.analyze.config import BASELINE
from repro.cli import main

SRC = REPO_ROOT / "src" / "repro"


def _self_host():
    report = Analyzer(make_checkers()).run([SRC])
    baseline = Baseline.load(REPO_ROOT / BASELINE)
    return report, baseline


def _python_files(root):
    return [p for p in root.rglob("*.py") if "__pycache__" not in p.parts]


class TestSelfHost:
    def test_tree_is_clean_under_committed_baseline(self):
        report, baseline = _self_host()
        unsuppressed, _, stale = baseline.apply(report.sorted())
        assert unsuppressed == [], \
            "\n".join(f.render() for f in unsuppressed)
        assert stale == [], f"stale baseline entries: {stale}"

    def test_every_baseline_entry_has_a_real_reason(self):
        _, baseline = _self_host()
        for key, reason in baseline.entries.items():
            assert reason and not reason.startswith("TODO"), \
                f"{key} lacks a justification"

    def test_whole_tree_scan_is_fast(self):
        start = time.perf_counter()
        report, _ = _self_host()
        elapsed = time.perf_counter() - start
        assert report.files_scanned > 50
        assert elapsed < 5.0, f"lint took {elapsed:.2f}s (budget 5s)"

    def test_scans_every_python_file_once(self):
        report, _ = _self_host()
        assert report.files_scanned == len(_python_files(SRC))


class TestDefaultCliRun:
    """``repro lint --check-stale`` from the repo root, as CI runs it."""

    def test_default_run_is_clean_and_covers_test_trees(
            self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "--check-stale", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["findings"] == []
        assert report["stale_baseline_keys"] == []
        fixtures = REPO_ROOT / "tests" / "analyze" / "fixtures"
        test_files = [p for root in ("tests", "benchmarks")
                      for p in _python_files(REPO_ROOT / root)
                      if fixtures not in p.parents]
        assert report["files_scanned"] \
            == len(_python_files(SRC)) + len(test_files)


class TestPolicyPin:
    """The built-in policy still names code that exists."""

    def test_hook_sites_name_real_functions(self):
        """Guard against config rot: every registered hook site must
        still exist in the scanned tree (H001 skips absent functions,
        so a renamed operation would otherwise silently lose coverage).
        """
        import ast

        for module, qualname, _hooks in LintConfig().hook_sites:
            relpath = module.replace(".", "/") + ".py"
            path = REPO_ROOT / "src" / relpath
            assert path.is_file(), f"hook site module missing: {module}"
            tree = ast.parse(path.read_text())
            names = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            names.add(f"{node.name}.{item.name}")
            assert qualname in names, \
                f"hook site {module}::{qualname} not found"
