"""The ``repro lint`` verb: exit codes, JSON output, selection, baseline."""

import json

from tests.analyze.conftest import CLEAN, PLANTED
from repro.cli import main


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(CLEAN), "--baseline", "none"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(PLANTED), "--baseline", "none"]) == 1
        out = capsys.readouterr().out
        assert "C001" in out and "RC01" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestJsonOutput:
    def test_report_shape(self, capsys):
        code = main(["lint", str(PLANTED), "--baseline", "none", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["tool"] == "repro-lint"
        assert report["exit"] == 1
        assert report["files_scanned"] >= 5
        rules = {f["rule"] for f in report["findings"]}
        assert {"L001", "D001", "C001", "H001", "RC01"} <= rules
        first = report["findings"][0]
        assert {"rule", "path", "line", "col", "message", "key",
                "symbol"} <= set(first)

    def test_clean_json_exit_zero(self, capsys):
        code = main(["lint", str(CLEAN), "--baseline", "none", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["findings"] == []


class TestSelection:
    def test_select_narrows_to_one_rule(self, capsys):
        main(["lint", str(PLANTED), "--baseline", "none",
              "--json", "--select", "C001"])
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} == {"C001"}

    def test_select_accepts_checker_name(self, capsys):
        main(["lint", str(PLANTED), "--baseline", "none",
              "--json", "--select", "determinism"])
        report = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in report["findings"]} \
            == {"D001", "D002", "D003", "D004"}

    def test_ignore_drops_rules(self, capsys):
        main(["lint", str(PLANTED), "--baseline", "none",
              "--json", "--ignore", "layering,hooks"])
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in report["findings"]}
        assert not rules & {"L001", "L002", "H001"}
        assert "C001" in rules


class TestBaselineFlow:
    def test_write_then_apply_round_trip(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(PLANTED), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(PLANTED),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "baselined" in out

    def test_write_baseline_keeps_reviewed_reasons(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(PLANTED), "--baseline", str(baseline),
              "--write-baseline"])
        data = json.loads(baseline.read_text())
        data["entries"][0]["reason"] = "reviewed: intentional"
        reviewed_key = data["entries"][0]["key"]
        baseline.write_text(json.dumps(data))
        main(["lint", str(PLANTED), "--baseline", str(baseline),
              "--write-baseline"])
        rewritten = json.loads(baseline.read_text())
        reasons = {e["key"]: e["reason"] for e in rewritten["entries"]}
        assert reasons[reviewed_key] == "reviewed: intentional"

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{broken")
        assert main(["lint", str(PLANTED),
                     "--baseline", str(baseline)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestStaleBaseline:
    """--write-baseline prunes what stopped firing; --check-stale gates."""

    def _baseline_with_extras(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(PLANTED), "--baseline", str(baseline),
              "--write-baseline"])
        data = json.loads(baseline.read_text())
        # A key in a scanned module that no longer fires, and one for a
        # module this scan never sees.
        data["entries"].append(
            {"key": "D001::repro.kernel.counters_bad::ghost",
             "reason": "was real once"})
        data["entries"].append(
            {"key": "D001::repro.retired.module::keep",
             "reason": "reviewed: other tree"})
        baseline.write_text(json.dumps(data))
        return baseline

    def test_write_baseline_prunes_and_preserves(self, tmp_path, capsys):
        baseline = self._baseline_with_extras(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(PLANTED), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        out = capsys.readouterr().out
        assert "1 stale pruned, 1 out-of-scope preserved" in out
        assert "pruned: D001::repro.kernel.counters_bad::ghost" in out
        keys = {e["key"]
                for e in json.loads(baseline.read_text())["entries"]}
        assert "D001::repro.kernel.counters_bad::ghost" not in keys
        assert "D001::repro.retired.module::keep" in keys

    def test_stale_entry_is_a_note_by_default(self, tmp_path, capsys):
        baseline = self._baseline_with_extras(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(PLANTED),
                     "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 stale baseline entry" in out
        assert "D001::repro.kernel.counters_bad::ghost" in out
        # The out-of-scope key is not reported stale: its module was
        # never scanned, so staleness is undecidable.
        assert "repro.retired.module" not in out

    def test_check_stale_fails_the_run(self, tmp_path, capsys):
        baseline = self._baseline_with_extras(tmp_path)
        capsys.readouterr()
        assert main(["lint", str(PLANTED), "--baseline", str(baseline),
                     "--check-stale"]) == 1
        out = capsys.readouterr().out
        assert "--check-stale" in out and "--write-baseline" in out


class TestChangedMode:
    """--changed REF lints only changed modules + reverse importers."""

    def _patch_changed(self, monkeypatch, result):
        import repro.cli
        monkeypatch.setattr(repro.cli, "_git_changed_files",
                            lambda ref: result)

    def test_focus_walks_a_subset(self, monkeypatch, capsys):
        self._patch_changed(monkeypatch,
                            ["src/repro/machine/cache.py"])
        code = main(["lint", "--changed", "HEAD", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["files_walked"] is not None
        assert 1 <= report["files_walked"] < report["files_scanned"]

    def test_focus_filters_findings_to_closure(self, monkeypatch, capsys):
        # Changing one planted fixture must not surface findings from
        # the other planted modules.
        self._patch_changed(
            monkeypatch,
            ["tests/analyze/fixtures/planted/repro/harness/spans_bad.py"])
        main(["lint", str(PLANTED), "--changed", "HEAD",
              "--baseline", "none", "--json"])
        report = json.loads(capsys.readouterr().out)
        rules = {f["rule"] for f in report["findings"]}
        assert rules == {"S001", "S002"}
        assert report["files_walked"] == 1

    def test_no_changes_short_circuits(self, monkeypatch, capsys):
        self._patch_changed(monkeypatch, [])
        assert main(["lint", "--changed", "HEAD"]) == 0
        assert "0 files changed" in capsys.readouterr().out

    def test_git_failure_exits_two(self, monkeypatch, capsys):
        self._patch_changed(monkeypatch, None)
        assert main(["lint", "--changed", "nosuchref"]) == 2
        assert "git could not diff" in capsys.readouterr().err

    def test_changed_rejects_write_baseline(self, tmp_path, capsys):
        assert main(["lint", "--changed", "HEAD", "--write-baseline",
                     "--baseline", str(tmp_path / "b.json")]) == 2
        assert "full scan" in capsys.readouterr().err


class TestExplain:
    def test_rule_table_printed(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        for rule in ("L001", "L002", "D001", "D002", "D003", "D004",
                     "C001", "C002", "C003", "H001", "RC01",
                     "A001", "A002", "A003", "S001", "S002"):
            assert rule in out
