"""End-to-end trend tests: the paper's findings must hold.

These use the real benchmarks at default scale, so they are the slowest
tests in the suite; each asserts one of the paper's seven findings (or
a sub-claim) qualitatively.
"""

import pytest

from repro.core.platform import EmulationMode
from repro.harness.experiment import ExperimentRunner

#: One shared runner keeps the module's total runtime bounded.
runner = ExperimentRunner()


class TestFinding1EmulationMatchesSimulation:
    def test_kgw_reduction_agrees_across_modes(self):
        for mode in (EmulationMode.EMULATION, EmulationMode.SIMULATION):
            baseline = runner.run("lusearch", collector="PCM-Only",
                                  mode=mode).pcm_write_lines
            kgw = runner.run("lusearch", collector="KG-W",
                             mode=mode).pcm_write_lines
            assert kgw < 0.6 * baseline

    def test_kgn_reduction_is_small_with_large_llc(self):
        # A 20 MB-equivalent LLC absorbs most nursery writes.
        baseline = runner.run("lusearch", collector="PCM-Only").pcm_write_lines
        kgn = runner.run("lusearch", collector="KG-N").pcm_write_lines
        assert 0.5 * baseline < kgn < baseline


class TestFinding2JavaVsCpp:
    def test_java_writes_more_than_cpp_on_pcm_only(self):
        for app in ("pr", "cc"):
            java = runner.run(app, collector="PCM-Only").pcm_write_lines
            cpp = runner.run(app + ".cpp",
                             collector="PCM-Only").pcm_write_lines
            assert 1.2 * cpp < java < 4.0 * cpp

    def test_kgw_brings_java_below_cpp(self):
        for app in ("pr", "cc", "als"):
            kgw = runner.run(app, collector="KG-W").pcm_write_lines
            cpp = runner.run(app + ".cpp",
                             collector="PCM-Only").pcm_write_lines
            assert kgw < cpp


class TestFinding3Multiprogramming:
    def test_kgw_dampens_absolute_growth(self):
        # Finding 3 compares absolute write increases: KG-W's four
        # instances add far fewer PCM writes than PCM-Only's.
        bench = "lusearch"
        pcm_1 = runner.run(bench, "PCM-Only", instances=1).pcm_write_lines
        pcm_4 = runner.run(bench, "PCM-Only", instances=4).pcm_write_lines
        kgw_1 = runner.run(bench, "KG-W", instances=1).pcm_write_lines
        kgw_4 = runner.run(bench, "KG-W", instances=4).pcm_write_lines
        assert kgw_4 - kgw_1 < 0.5 * (pcm_4 - pcm_1)
        assert kgw_4 < pcm_4

    def test_pcm_only_growth_is_superlinear(self):
        bench = "lusearch"
        pcm_1 = runner.run(bench, "PCM-Only", instances=1).pcm_write_lines
        pcm_4 = runner.run(bench, "PCM-Only", instances=4).pcm_write_lines
        assert pcm_4 > 4.5 * pcm_1


class TestFinding4SuiteDiversity:
    def test_graphchi_writes_dwarf_dacapo(self):
        dacapo = runner.run("fop", "PCM-Only").pcm_write_lines
        graphchi = runner.run("pr", "PCM-Only").pcm_write_lines
        assert graphchi > 5 * dacapo

    def test_pjbb_exceeds_typical_dacapo(self):
        assert runner.run("pjbb", "PCM-Only").pcm_write_lines > \
            runner.run("fop", "PCM-Only").pcm_write_lines


class TestFinding5WriteRates:
    def test_graph_apps_exceed_recommended_rate(self):
        from repro.config import RECOMMENDED_WRITE_RATE_MBS
        for app in ("pr", "cc", "als"):
            assert runner.run(app, "PCM-Only").pcm_write_rate_mbs > \
                RECOMMENDED_WRITE_RATE_MBS

    def test_kgw_reduces_rates(self):
        for app in ("pr", "lusearch"):
            assert runner.run(app, "KG-W").pcm_write_rate_mbs < \
                runner.run(app, "PCM-Only").pcm_write_rate_mbs


class TestFinding6GraphChiOptimizations:
    def test_loo_reduces_kgn_writes(self):
        kgn = runner.run("pr", "KG-N").pcm_write_lines
        kgn_loo = runner.run("pr", "KG-N+LOO").pcm_write_lines
        assert kgn_loo < kgn

    def test_removing_loo_from_kgw_costs(self):
        kgw = runner.run("pr", "KG-W").pcm_write_lines
        without = runner.run("pr", "KG-W-LOO").pcm_write_lines
        assert 1.3 * kgw < without < 3.0 * kgw

    def test_kgb_alone_adds_little_over_kgn(self):
        kgn = runner.run("pr", "KG-N").pcm_write_lines
        kgb = runner.run("pr", "KG-B").pcm_write_lines
        assert abs(kgb - kgn) < 0.25 * kgn

    def test_mdo_removal_is_marginal(self):
        kgw = runner.run("pr", "KG-W").pcm_write_lines
        without = runner.run("pr", "KG-W-MDO").pcm_write_lines
        assert without < 1.4 * kgw


class TestFinding7LargeDatasets:
    def test_large_dataset_increases_total_writes(self):
        default = runner.run("lusearch", "PCM-Only").pcm_write_lines
        large = runner.run("lusearch", "PCM-Only",
                           dataset="large").pcm_write_lines
        assert large > 1.5 * default

    def test_graph_rate_drops_with_large_input(self):
        default = runner.run("cc", "PCM-Only").pcm_write_rate_mbs
        large = runner.run("cc", "PCM-Only",
                           dataset="large").pcm_write_rate_mbs
        assert large < default
