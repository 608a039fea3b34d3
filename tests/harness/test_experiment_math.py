"""Unit tests for experiment aggregation logic on hand-built results.

The experiment modules aggregate MeasurementResults into the paper's
tables; these tests verify that math by rendering from hand-built
results, without running any simulation.
"""

from typing import Dict

import pytest

from repro.core.platform import EmulationMode, MeasurementResult
from repro.experiments import figure3, figure4, figure7, migration_vs_gc, table3
from repro.experiments.common import error_result
from repro.harness.experiment import RunKey


class FakeResults:
    """Hand-built results by run key, for an experiment's ``render``."""

    def __init__(self) -> None:
        self.results: Dict[RunKey, MeasurementResult] = {}

    def add(self, benchmark, collector, pcm_lines, instances=1,
            elapsed=1e-3, mode=EmulationMode.EMULATION, dataset="default"):
        result = MeasurementResult(
            benchmark=benchmark, collector=collector, mode=mode,
            instances=instances, pcm_write_lines=pcm_lines,
            dram_write_lines=0, elapsed_seconds=elapsed,
            per_tag_pcm_writes={}, per_tag_dram_writes={},
            instance_stats=[])
        self.results[RunKey(benchmark, collector, instances, dataset,
                            mode)] = result
        return result


class TestFigure3Math:
    def test_normalization_to_cpp(self):
        fake = FakeResults()
        for app, cpp, java, kgn, kgw in (("pr", 100, 300, 50, 30),
                                         ("cc", 200, 400, 90, 50),
                                         ("als", 100, 150, 110, 20)):
            fake.add(app + ".cpp", "PCM-Only", cpp)
            fake.add(app, "PCM-Only", java)
            fake.add(app, "KG-N", kgn)
            fake.add(app, "KG-W", kgw)
        output = figure3.render(fake.results)
        assert output.data["normalized"]["Java"]["PR"] == pytest.approx(3.0)
        assert output.data["normalized"]["KG-W"]["ALS"] == pytest.approx(0.2)
        assert output.data["raw"]["C++"]["CC"] == 200


class TestFigure4Math:
    def test_growth_normalizes_suite_totals(self):
        fake = FakeResults()
        from repro.experiments.figure4 import SUITES
        for suite, benchmarks in SUITES.items():
            for benchmark in benchmarks:
                for count, factor in ((1, 1), (2, 2), (4, 8)):
                    for collector in ("PCM-Only", "KG-W"):
                        fake.add(benchmark, collector, 100 * factor,
                                 instances=count)
        output = figure4.render(fake.results)
        for suite_values in output.data["PCM-Only"].values():
            assert suite_values["1"] == pytest.approx(1.0)
            assert suite_values["2"] == pytest.approx(2.0)
            assert suite_values["4"] == pytest.approx(8.0)

    def test_base_effect_does_not_dominate(self):
        # One benchmark with a near-zero single-instance count must not
        # blow up the suite average (writes are summed, then normalised).
        fake = FakeResults()
        from repro.experiments.figure4 import SUITES
        for suite, benchmarks in SUITES.items():
            for index, benchmark in enumerate(benchmarks):
                small = index == 0
                for count in (1, 2, 4):
                    for collector in ("PCM-Only", "KG-W"):
                        base = 1 if small else 1000
                        fake.add(benchmark, collector,
                                 base * count * (100 if small else 1),
                                 instances=count)
        output = figure4.render(fake.results)
        assert output.data["PCM-Only"]["DaCapo"]["4"] < 10


class TestFigure7Math:
    def test_normalized_to_pcm_only(self):
        fake = FakeResults()
        from repro.experiments.common import FIGURE7_COLLECTORS
        for app in ("pr", "cc", "als"):
            fake.add(app, "PCM-Only", 1000)
            for collector in FIGURE7_COLLECTORS:
                fake.add(app, collector, 250)
        output = figure7.render(fake.results)
        assert output.data["normalized"]["KG-W"]["PR"] == pytest.approx(0.25)


class TestTable3Math:
    def test_worst_case_rate_drives_lifetime(self):
        fake = FakeResults()
        from repro.experiments.table3 import BENCHMARKS
        for benchmark in BENCHMARKS:
            for collector in ("PCM-Only", "KG-W"):
                for count in (1, 4):
                    # One benchmark is the clear worst case.
                    lines = 4000 if benchmark == "pr" else 100
                    scale = count * (1 if collector == "KG-W" else 4)
                    fake.add(benchmark, collector, lines * scale,
                             instances=count, elapsed=1e-3)
        output = table3.render(fake.results)
        worst = output.data["worst_rate_mbs"]
        assert worst["PCM-Only"][1] > worst["KG-W"][1]
        assert worst["PCM-Only"][4] > worst["PCM-Only"][1]

    def test_failed_key_makes_its_worst_case_err(self):
        # Python's max() keeps a NaN only when it comes first; "pr" is
        # neither the first benchmark nor the highest rate, so a plain
        # max over the column would print a number here.
        fake = FakeResults()
        from repro.experiments.table3 import BENCHMARKS
        assert BENCHMARKS[0] != "pr"
        for benchmark in BENCHMARKS:
            for collector in ("PCM-Only", "KG-W"):
                for count in (1, 4):
                    fake.add(benchmark, collector, 1000, instances=count)
        failed = RunKey("pr", "PCM-Only", instances=1)
        fake.results[failed] = error_result(failed)
        output = table3.render(fake.results)
        worst = output.data["worst_rate_mbs"]
        assert worst["PCM-Only"][1] != worst["PCM-Only"][1]  # NaN
        assert worst["PCM-Only"][4] == worst["KG-W"][1] > 0
        lifetimes = output.data["lifetimes"]
        for key, cell in lifetimes.items():
            failed_cell = key.endswith("/PCM-Only/N=1")
            assert (cell["years"] != cell["years"]) == failed_cell, key
        n1_row = next(line for line in output.text.splitlines()
                      if line.lstrip().startswith("N = 1"))
        assert n1_row.split().count("ERR") == 3


class TestMigrationVsGcMath:
    def test_failed_key_makes_its_footer_err(self):
        results = {}
        for key in migration_vs_gc.keys():
            results[key] = MeasurementResult(
                benchmark=key.benchmark, collector=key.collector,
                mode=key.mode, instances=key.instances,
                pcm_write_lines=1000, dram_write_lines=0,
                elapsed_seconds=1e-3, per_tag_pcm_writes={},
                per_tag_dram_writes={}, instance_stats=[],
                placement=key.placement)
        # The last benchmark's row, so the NaN is not first in its series.
        failed = RunKey(migration_vs_gc.BENCHMARKS[-1], "PCM-Only",
                        placement="first-touch")
        results[failed] = error_result(failed)
        output = migration_vs_gc.render(results)
        worst = output.data["worst_case_lifetime_years"]
        assert worst["OS first-touch"] != worst["OS first-touch"]  # NaN
        assert worst["OS interleave"] == worst["OS static (all-PCM)"] > 0
        footer = output.text.split("Worst case across benchmarks")[1]
        assert "OS first-touch: worst-case lifetime ERR" in footer
        assert footer.count("ERR") == 1


class TestTable2Math:
    def test_reduction_and_blowup(self):
        fake = FakeResults()
        from repro.experiments import table2
        from repro.experiments.common import DACAPO_SIMULATABLE
        for mode in (EmulationMode.SIMULATION, EmulationMode.EMULATION):
            for benchmark in DACAPO_SIMULATABLE:
                fake.add(benchmark, "PCM-Only", 1000, mode=mode)
                fake.add(benchmark, "KG-N", 900, mode=mode, elapsed=1.0)
                fake.add(benchmark, "KG-B", 850, mode=mode, elapsed=1.1)
                fake.add(benchmark, "KG-W", 400, mode=mode, elapsed=1.08)
        output = table2.render(fake.results)
        reductions = output.data["reductions"]
        assert reductions["simulation"]["KG-N"] == pytest.approx(10.0)
        assert reductions["emulation"]["KG-W"] == pytest.approx(60.0)
        # total writes are pcm+dram (dram=0 in the fakes)
        assert output.data["kgb_total_blowup"]["simulation"] == \
            pytest.approx(850 / 900)
        assert output.data["kgw_overhead_percent"]["emulation"] == \
            pytest.approx(8.0)


class TestFigure8Math:
    def test_relative_rates(self):
        fake = FakeResults()
        from repro.experiments import figure8
        for benchmark in figure8.BENCHMARKS:
            for collector in figure8.COLLECTORS:
                fake.add(benchmark, collector, 1000, elapsed=1e-3)
                fake.add(benchmark, collector, 5000, elapsed=1e-2,
                         dataset="large")
        output = figure8.render(fake.results)
        for collector in figure8.COLLECTORS:
            for value in output.data["relative"][collector].values():
                assert value == pytest.approx(0.5)
