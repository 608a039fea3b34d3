"""Every rule fires on its planted fixture and stays quiet on clean code.

The planted fixtures mirror the real package tree
(``fixtures/planted/repro/kernel/...`` resolves to ``repro.kernel.*``),
so the layer-, hook-, and counter-sensitive rules fire with the default
policy — exactly how the CI canary job consumes them.
"""

from tests.analyze.conftest import CLEAN, PLANTED, by_rule, run_lint


def _single(findings, rule):
    assert rule in findings, f"{rule} did not fire on its planted fixture"
    assert len(findings[rule]) == 1, findings[rule]
    return findings[rule][0]


class TestPlantedViolations:
    def test_l001_layer_inversion(self, planted_findings):
        finding = _single(planted_findings, "L001")
        assert finding.path.endswith("repro/machine/layering_bad.py")
        assert finding.line == 3
        assert "repro.harness.sweep" in finding.message
        assert "rank 50" in finding.message

    def test_l002_hot_tooling_import(self, planted_findings):
        finding = _single(planted_findings, "L002")
        assert finding.path.endswith("repro/machine/layering_bad.py")
        assert finding.line == 5
        assert "repro.observability.trace" in finding.message
        assert finding.key == ("L002::repro.machine.layering_bad::"
                               "import:repro.observability.trace")

    def test_d001_unseeded_random(self, planted_findings):
        finding = _single(planted_findings, "D001")
        assert finding.path.endswith("repro/kernel/determinism_bad.py")
        assert finding.line == 8
        assert "process-global RNG" in finding.message
        assert finding.symbol == "jitter"

    def test_d002_wall_clock(self, planted_findings):
        findings = planted_findings["D002"]
        assert sorted(f.line for f in findings) == [12, 16]
        by_line = {f.line: f for f in findings}
        assert "wall clock" in by_line[12].message
        assert "simulation package" in by_line[16].message

    def test_d003_id_ordering(self, planted_findings):
        finding = _single(planted_findings, "D003")
        assert finding.line == 20
        assert "key=id" in finding.message

    def test_d004_set_iteration(self, planted_findings):
        finding = _single(planted_findings, "D004")
        assert finding.line == 25
        assert "set order is nondeterministic" in finding.message

    def test_c001_foreign_counter_write(self, planted_findings):
        finding = _single(planted_findings, "C001")
        assert finding.path.endswith("repro/kernel/counters_bad.py")
        assert finding.line == 5
        assert "page_faults" in finding.message
        assert "Kernel" in finding.message

    def test_h001_missing_hook_pair(self, planted_findings):
        findings = planted_findings["H001"]
        assert len(findings) == 2  # faults AND sanitize both missing
        assert all(f.path.endswith("repro/kernel/vm.py") for f in findings)
        assert all(f.line == 9 for f in findings)
        assert all(f.symbol == "Kernel.munmap" for f in findings)
        kinds = {f.key.rsplit(":", 1)[-1] for f in findings}
        assert kinds == {"faults", "sanitize"}

    def test_s001_unbalanced_span(self, planted_findings):
        finding = _single(planted_findings, "S001")
        assert finding.path.endswith("repro/harness/spans_bad.py")
        assert finding.line == 11
        assert finding.symbol == "unbalanced"
        assert finding.key == ("S001::repro.harness.spans_bad::"
                               "unbalanced:harness.unbalanced")

    def test_s002_discarded_frame(self, planted_findings):
        finding = _single(planted_findings, "S002")
        assert finding.path.endswith("repro/harness/spans_bad.py")
        assert finding.line == 17
        assert finding.symbol == "discarded"
        assert finding.key == ("S002::repro.harness.spans_bad::"
                               "discarded:harness.discarded")

    def test_c002_counter_never_incremented(self, planted_findings):
        finding = _single(planted_findings, "C002")
        assert finding.path.endswith("repro/kernel/vm.py")
        assert finding.line == 8  # the owning class's def line
        assert "pages_migrated" in finding.message
        assert finding.key == "C002::repro.kernel.vm::pages_migrated"

    def test_no_unexpected_rules(self, planted_findings):
        assert set(planted_findings) == {
            "L001", "L002", "D001", "D002", "D003", "D004",
            "C001", "C002", "H001", "S001", "S002",
        }


class TestCleanFixture:
    def test_clean_tree_is_silent(self):
        assert run_lint(CLEAN) == []


class TestPolicyKnobs:
    def test_declared_mutator_is_exempt(self):
        from repro.analyze import LintConfig
        config = LintConfig()
        config.counter_mutators.append(
            "repro.kernel.counters_bad::bump")
        findings = by_rule(run_lint(PLANTED, config=config))
        assert "C001" not in findings

    def test_hook_site_removal_silences_h001(self):
        from repro.analyze import LintConfig
        config = LintConfig()
        config.hook_sites = [site for site in config.hook_sites
                             if site[1] != "Kernel.munmap"]
        findings = by_rule(run_lint(PLANTED, config=config))
        assert "H001" not in findings

    def test_c003_stale_allowlist_entry(self):
        from repro.analyze import LintConfig
        config = LintConfig()
        config.counter_mutators.append("repro.kernel.vm::Kernel.ghost")
        findings = by_rule(run_lint(PLANTED, config=config))
        assert "C003" in findings
        finding = findings["C003"][0]
        assert finding.key == "C003::repro.kernel.vm::Kernel.ghost"
        assert "counter-mutators" in finding.message
        assert finding.path.endswith("repro/kernel/vm.py")
