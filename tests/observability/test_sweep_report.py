"""The machine-readable sweep report (failures section, accounting)."""

import json
from dataclasses import replace

from repro.core.platform import EmulationMode
from repro.harness.experiment import (
    FailureRecord,
    RunOutcome,
    SweepReport,
)
from repro.harness.experiment import RunKey
from repro.observability import sweep_report
from repro.observability.report import SWEEP_REPORT_SCHEMA

from tests.harness.test_checkpoint import _result


def _key(collector="PCM-Only"):
    return RunKey("fop", collector, 1, "default", EmulationMode.EMULATION)


def _report() -> SweepReport:
    ok = RunOutcome(key=_key(), result=_result(collector="PCM-Only"))
    failed = RunOutcome(key=_key("KG-N"), failure=FailureRecord(
        exception_type="TimeoutError", message="run exceeded 5s",
        attempts=3, worker="pool"), attempts=3)
    return SweepReport(outcomes=[ok, failed])


def test_payload_accounts_for_every_key_in_order():
    payload = sweep_report(_report())
    assert payload["schema"] == SWEEP_REPORT_SCHEMA
    assert payload["total_keys"] == 2
    assert payload["succeeded"] == 1
    assert payload["failed"] == 1
    assert [entry["key"]["collector"] for entry in payload["outcomes"]] == [
        "PCM-Only", "KG-N"]


def test_failures_section_carries_the_why():
    failure = sweep_report(_report())["failures"][0]
    assert failure["status"] == "failed"
    assert failure["failure"] == {
        "exception_type": "TimeoutError", "message": "run exceeded 5s",
        "attempts": 3, "worker": "pool"}
    assert "result" not in failure


def test_payload_is_json_serialisable():
    json.dumps(sweep_report(_report(), metrics={"m": {"kind": "counter",
                                                      "value": 1}}),
               sort_keys=True)


def test_placements_give_distinct_keys_and_text_rows():
    # `repro sweep --placement static,migrate`: one row per placement,
    # and a reader can tell the two apart in JSON and in text.
    static = _result(collector="PCM-Only")
    migrate = replace(static, placement="migrate")
    report = SweepReport(outcomes=[
        RunOutcome(key=_key(), result=static),
        RunOutcome(key=replace(_key(), placement="migrate"),
                   result=migrate)])
    keys = [json.dumps(entry["key"], sort_keys=True)
            for entry in sweep_report(report)["outcomes"]]
    assert len(set(keys)) == 2
    assert [json.loads(key)["placement"] for key in keys] == [
        "static", "migrate"]
    assert "migrate" not in static.describe()
    assert "[PCM-Only, emulation, migrate]" in migrate.describe()
