"""The linter self-hosted over src/repro: clean, pinned, and fast."""

import time

from tests.analyze.conftest import REPO_ROOT
from repro.analyze import (Analyzer, Baseline, LintConfig, load_config,
                           make_checkers)

SRC = REPO_ROOT / "src" / "repro"


def _self_host():
    config = load_config(REPO_ROOT / "pyproject.toml")
    analyzer = Analyzer(make_checkers(), config=config)
    report = analyzer.run([SRC])
    baseline = Baseline.load(REPO_ROOT / config.baseline)
    return report, baseline


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
        expected = len([p for p in SRC.rglob("*.py")
                        if "__pycache__" not in p.parts])
        assert report.files_scanned == expected


class TestPolicyPin:
    """The committed pyproject block must equal the built-in defaults.

    ``load_config`` falls back to the built-ins on pre-3.11 interpreters
    (no tomllib), so if the two drift the effective policy would depend
    on the Python version running the linter.
    """

    def test_pyproject_policy_matches_builtin_defaults(self):
        loaded = load_config(REPO_ROOT / "pyproject.toml")
        default = LintConfig()
        assert loaded.layers == default.layers
        assert list(loaded.crosscutting) == list(default.crosscutting)
        assert list(loaded.hot) == list(default.hot)
        assert loaded.counters == default.counters
        assert list(loaded.counter_mutators) \
            == list(default.counter_mutators)
        assert list(loaded.engine_functions) \
            == list(default.engine_functions)
        assert loaded.hook_sites == default.hook_sites
        assert loaded.paths == default.paths
        assert loaded.baseline == default.baseline
        assert list(loaded.async_packages) == list(default.async_packages)
        assert list(loaded.test_paths) == list(default.test_paths)
        assert list(loaded.test_select) == list(default.test_select)
        assert list(loaded.exclude) == list(default.exclude)

    def test_hook_sites_name_real_functions(self):
        """Guard against config rot: every registered hook site must
        still exist in the scanned tree (H001 skips absent functions,
        so a renamed operation would otherwise silently lose coverage).
        """
        import ast

        config = load_config(REPO_ROOT / "pyproject.toml")
        for module, qualname, _hooks in config.hook_sites:
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
