"""The ``repro lint`` verb: exit codes, JSON output, selection, baseline."""

import json

import pytest

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
        assert "C001" in out and "S001" in out

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
        assert {"L001", "D001", "C001", "H001", "S001"} <= rules
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

    @pytest.mark.parametrize("flag, value", [
        ("--select", "asyncsafety"), ("--select", "C001,C999"),
        ("--ignore", "layring"),
    ])
    def test_unknown_name_is_a_usage_error(self, flag, value, capsys):
        # A misspelt selector must not scan and pass with 0 findings.
        assert main(["lint", str(PLANTED), "--baseline", "none",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown {flag}" in captured.err
        assert "C001" in captured.err and "determinism" in captured.err


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


class TestExplain:
    def test_rule_table_printed(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        for rule in ("L001", "L002", "D001", "D002", "D003", "D004",
                     "C001", "C002", "C003", "H001",
                     "S001", "S002"):
            assert rule in out
