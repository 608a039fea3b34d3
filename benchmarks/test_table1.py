"""Regenerate Table I: space-to-socket mapping."""

from conftest import regenerate


def test_table1(benchmark, runner):
    output = regenerate(benchmark, runner, "table1")
    kgn = output.data["KG-N"]
    kgw = output.data["KG-W"]
    kgw_mdo = output.data["KG-W-MDO"]
    # Table I's defining rows.
    assert kgn["nursery_dram"] and not kgn["observer"]
    assert kgw["observer"] and kgw["dram_mature"] and kgw["mdo"]
    assert kgw_mdo["observer"] and not kgw_mdo["mdo"]
