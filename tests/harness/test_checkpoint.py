"""The sweep checkpoint store: round-trips, torn writes, schema guard."""

import json
import os

import pytest

from repro.core.platform import EmulationMode, MeasurementResult
from repro.harness.checkpoint import (
    CHECKPOINT_SCHEMA,
    SweepCheckpoint,
    canonical_result,
    repair_jsonl_tail,
    result_from_dict,
    result_to_dict,
    salvage_jsonl,
)
from repro.harness.experiment import RunKey
from repro.runtime.jvm import RuntimeStats


def _result(benchmark="fop", collector="KG-N") -> MeasurementResult:
    stats = RuntimeStats(minor_gcs=3, full_gcs=1, bytes_allocated=4096,
                         mutator_cycles=1000, gc_cycles=200)
    stats.pauses = [10, 25, 40]
    return MeasurementResult(
        benchmark=benchmark, collector=collector,
        mode=EmulationMode.EMULATION, instances=1,
        pcm_write_lines=1234, dram_write_lines=5678,
        elapsed_seconds=0.25,
        per_tag_pcm_writes={"nursery": 100, "large.pcm": 34},
        per_tag_dram_writes={"mature.dram": 99},
        instance_stats=[stats],
        monitor_rates_mbs=[10.0, 12.5],
        wear_efficiency=0.8, wear_imbalance=3.5,
        node_counters=[{"node": 0, "read_lines": 5, "write_lines": 7}],
        llc_stats=[{"socket": 0, "hits": 11, "misses": 3}],
        qpi_crossings=42, host_seconds=1.5)


def _key(benchmark="fop", collector="KG-N") -> RunKey:
    return RunKey(benchmark, collector, 1, "default",
                  EmulationMode.EMULATION)


class TestResultRoundTrip:
    def test_lossless(self):
        original = _result()
        clone = result_from_dict(
            json.loads(json.dumps(result_to_dict(original))))
        assert clone == original

    def test_pauses_survive(self):
        clone = result_from_dict(result_to_dict(_result()))
        assert clone.instance_stats[0].pauses == [10, 25, 40]

    def test_kernel_counters_survive(self):
        original = _result()
        original.kernel_counters = {"mmap_calls": 9, "page_faults": 3,
                                    "scheduler.dispatches": 188}
        clone = result_from_dict(
            json.loads(json.dumps(result_to_dict(original))))
        assert clone == original

    def test_record_without_kernel_counters_loads_them_empty(self):
        # Results serialised before the field existed.
        data = result_to_dict(_result())
        del data["kernel_counters"]
        assert result_from_dict(data).kernel_counters == {}


class TestCanonicalResult:
    def test_result_strips_host_fields(self):
        result = {"pcm_write_lines": 5, "host_seconds": 1.25,
                  "profile": {"x": 1}}
        assert canonical_result(result) == {"pcm_write_lines": 5}

    def test_kernel_counters_stay_out_of_the_digested_form(self):
        # The golden digests pin the canonical form as it was before
        # the field joined the result.
        payload = result_to_dict(_result())
        assert "kernel_counters" in payload
        assert "kernel_counters" not in canonical_result(payload)


class TestCheckpointStore:
    def test_append_then_load(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        assert store.appended == 1
        with open(path, encoding="utf-8") as handle:
            assert set(json.loads(handle.read())) == {"schema", "key",
                                                      "result"}
        assert SweepCheckpoint(path).load() == {_key(): _result()}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SweepCheckpoint(str(tmp_path / "absent.jsonl")).load() == {}

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        with open(path, "a", encoding="utf-8") as handle:
            # A record cut short by a kill mid-write.
            handle.write('{"schema": "' + CHECKPOINT_SCHEMA + '", "key": {')
        restored = SweepCheckpoint(path).load()
        assert list(restored) == [_key()]

    def test_foreign_schema_records_are_ignored(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": "something/else"}) + "\n")
        assert SweepCheckpoint(path).load() == {}

    def test_later_records_win(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        newer = _result()
        newer.pcm_write_lines = 9999
        store.append(_key(), newer)
        result = SweepCheckpoint(path).load()[_key()]
        assert result.pcm_write_lines == 9999

    def test_truncate_discards_history(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        store.truncate()
        assert SweepCheckpoint(path).load() == {}


class TestHeaderStamp:
    """Files from before the placement moved into every key began with
    a ``"header"`` record stamping it (and, earlier still, an engine);
    the loader skips such a line without counting it as unreadable."""

    @staticmethod
    def _stamped_file(path, header):
        """A checkpoint in the older format: header line, then a record."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": CHECKPOINT_SCHEMA,
                                     "header": header},
                                    sort_keys=True) + "\n")
        SweepCheckpoint(path).append(_key(), _result())

    def test_old_engine_stamp_loads_under_matching_placement(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        self._stamped_file(path, {"engine": "perline",
                                  "placement": "static"})
        loader = SweepCheckpoint(path)
        assert list(loader.load()) == [_key()]
        assert loader.skipped == 0

    def test_unstamped_loader_accepts_any_header(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        self._stamped_file(path, {"placement": "migrate"})
        loader = SweepCheckpoint(path)
        assert list(loader.load()) == [_key()]
        assert loader.skipped == 0

    def test_headerless_legacy_file_still_loads(self, tmp_path):
        # The writer stamps nothing: one line per record, no header.
        path = str(tmp_path / "ckpt.jsonl")
        SweepCheckpoint(path).append(_key(), _result())
        with open(path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1
        assert list(SweepCheckpoint(path).load()) == [_key()]

    @pytest.mark.parametrize("header", [
        {"placement": "migrate"},
        {"engine": "perline", "placement": "static"},
    ], ids=["placement", "engine"])
    def test_stamped_file_resumes_and_replays(self, tmp_path, header):
        from repro.harness.experiment import ExperimentRunner

        path = str(tmp_path / "ckpt.jsonl")
        self._stamped_file(path, header)
        runner = ExperimentRunner()
        report = runner.sweep([_key()], max_workers=1, checkpoint=path,
                              resume=True)
        assert report.outcomes[0].from_checkpoint
        assert report.results == [_result()]
        assert runner.executions == 0
        loader = SweepCheckpoint(path)
        loader.load()
        assert loader.skipped == 0

    def test_key_placement_round_trips(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        key = RunKey("fop", "KG-N", 1, "default",
                     EmulationMode.EMULATION, placement="migrate")
        store = SweepCheckpoint(path)
        store.append(key, _result())
        restored = SweepCheckpoint(path).load()
        assert list(restored) == [key]
        assert list(restored)[0].placement == "migrate"

    def test_record_without_placement_loads_as_static(self, tmp_path):
        # Records written before the placement joined the key.
        path = str(tmp_path / "ckpt.jsonl")
        SweepCheckpoint(path).append(_key(), _result())
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.read())
        del record["key"]["placement"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        loader = SweepCheckpoint(path)
        assert list(loader.load()) == [_key()]
        assert loader.skipped == 0

    def test_record_without_track_wear_loads_untracked(self, tmp_path):
        # Records written before wear tracking joined the key.
        path = str(tmp_path / "ckpt.jsonl")
        SweepCheckpoint(path).append(_key(), _result())
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.read())
        del record["key"]["track_wear"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        loader = SweepCheckpoint(path)
        restored = list(loader.load())
        assert restored == [_key()]
        assert restored[0].track_wear is False
        assert loader.skipped == 0

    def test_key_dict_round_trips(self):
        key = RunKey("pr", "KG-W", 4, "large", EmulationMode.SIMULATION,
                     llc_size=4096, scale=128, placement="migrate",
                     track_wear=True)
        assert RunKey.from_dict(json.loads(json.dumps(key.to_dict()))) \
            == key


class TestTornTailSalvage:
    """Crash mid-fsync leaves a record cut short; resume must salvage."""

    @staticmethod
    def _tear(path, bytes_cut=10):
        """Chop the file mid-way through its final record, the way a
        SIGKILL between write and fsync does."""
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(size - bytes_cut)

    def test_hand_truncated_file_salvages_complete_records(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key("fop"), _result("fop"))
        store.append(_key("lusearch"), _result("lusearch"))
        self._tear(path)
        loader = SweepCheckpoint(path)
        restored = loader.load()
        assert list(restored) == [_key("fop")]
        assert loader.torn_tail is True
        assert loader.skipped == 0

    def test_clean_file_reports_no_tear(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        loader = SweepCheckpoint(path)
        loader.load()
        assert loader.torn_tail is False

    def test_append_after_tear_cannot_fuse_records(self, tmp_path):
        # The poisoning scenario this PR fixes: without tail repair the
        # next append lands on the torn line and JSON-breaks *both*.
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key("fop"), _result("fop"))
        store.append(_key("lusearch"), _result("lusearch"))
        self._tear(path)
        store.append(_key("pmd"), _result("pmd"))
        loader = SweepCheckpoint(path)
        restored = loader.load()
        assert sorted(k.benchmark for k in restored) == ["fop", "pmd"]
        assert loader.skipped == 0

    def test_salvage_jsonl_reports_torn_flag(self, tmp_path):
        path = str(tmp_path / "raw.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"b": 2')
        lines, torn = salvage_jsonl(path)
        assert lines == ['{"a": 1}']
        assert torn is True

    def test_repair_jsonl_tail_truncates_partial_line(self, tmp_path):
        path = str(tmp_path / "raw.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"a": 1}\n{"b": 2')
        assert repair_jsonl_tail(path) is True
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == '{"a": 1}\n'
        assert repair_jsonl_tail(path) is False  # already clean

    def test_repair_missing_file_is_noop(self, tmp_path):
        assert repair_jsonl_tail(str(tmp_path / "absent.jsonl")) is False

    def test_malformed_complete_line_counts_as_skipped(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        store = SweepCheckpoint(path)
        store.append(_key(), _result())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "' + CHECKPOINT_SCHEMA
                         + '", "key": "not-a-dict"}\n')
        loader = SweepCheckpoint(path)
        restored = loader.load()
        assert list(restored) == [_key()]
        assert loader.skipped == 1
        assert loader.torn_tail is False
