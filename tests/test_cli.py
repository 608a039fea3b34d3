"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestList:
    def test_lists_benchmarks_and_collectors(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lusearch" in out
        assert "pr.cpp" in out
        assert "KG-W" in out


class TestDescribe:
    def test_describes_platform(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "Socket 0 = DRAM" in out
        assert "140" in out  # recommended write rate


class TestRun:
    def test_run_prints_measurement(self, capsys):
        assert main(["run", "-b", "fop", "-c", "KG-N"]) == 0
        out = capsys.readouterr().out
        assert "fop" in out and "PCM" in out and "GC:" in out

    def test_bad_collector_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "-c", "KG-XYZ"])

    @pytest.mark.parametrize("verb", ["run", "stats", "profile"])
    def test_unknown_benchmark_exits_two(self, verb, capsys):
        # Checked before the platform is built: no KeyError traceback.
        assert main([verb, "-b", "bogus", "-c", "KG-N"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown benchmark(s) bogus" in captured.err
        assert "fop" in captured.err and "pr.cpp" in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "-b", "fop", "-c", "KG-W", "--engine", "perline"],
        ["stats", "-b", "fop", "--engine", "batched"],
        ["profile", "-b", "fop", "--engine", "perline"],
        ["sanitize", "--engine", "batched"],
        ["sanitize", "--reference", "perline"],
    ])
    def test_no_engine_option_is_left(self, argv, capsys):
        # One access path: the per-line oracle is a test tool, not an
        # option, so argparse rejects every way to choose an engine.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReproduce:
    def test_reproduce_table1(self, capsys):
        assert main(["reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["reproduce", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_lists_sorted_names(self, capsys):
        from repro.experiments import EXPERIMENTS

        assert main(["reproduce", "table99"]) == 2
        err = capsys.readouterr().err
        assert ", ".join(sorted(EXPERIMENTS)) in err
        assert "'all'" in err
        # The raw container repr must not leak into the message.
        assert "[" not in err


class TestRunJson:
    def test_json_report_is_machine_readable(self, capsys):
        assert main(["run", "-b", "fop", "-c", "KG-W", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"].startswith("repro.run_report/")
        assert report["benchmark"] == "fop"
        sockets = {s["node"]: s for s in report["sockets"]}
        for node in (0, 1):
            assert "read_lines" in sockets[node]
            assert "write_lines" in sockets[node]
            assert "hit_rate" in sockets[node]["llc"]
        assert report["gc"]["phases"], "expected GC phase spans"
        assert all(p["name"].startswith("gc.") for p in report["gc"]["phases"])
        assert report["wall_time"]["host_seconds"] > 0
        assert report["wall_time"]["emulated_seconds"] > 0

    def test_json_run_leaves_tracer_disabled(self, capsys):
        from repro.observability.trace import TRACER

        assert main(["run", "-b", "fop", "-c", "KG-N", "--json"]) == 0
        capsys.readouterr()
        assert TRACER.enabled is False


class TestProfile:
    def test_table_is_default_format(self, capsys):
        assert main(["profile", "-b", "fop", "-c", "KG-W"]) == 0
        out = capsys.readouterr().out
        assert "Write attribution" in out
        assert "path" in out and "pcm.writes" in out

    def test_chrome_format_is_valid_trace_json(self, capsys):
        assert main(["profile", "-b", "fop", "-c", "KG-W",
                     "--format", "chrome"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["traceEvents"]
        for event in trace["traceEvents"]:
            for key in ("ph", "ts", "dur", "pid", "tid", "name"):
                assert key in event

    def test_folded_format_round_trips(self, capsys):
        from repro.observability.profile import parse_folded

        assert main(["profile", "-b", "fop", "-c", "KG-W",
                     "--format", "folded", "--counter",
                     "dram.writes"]) == 0
        stacks = parse_folded(capsys.readouterr().out)
        assert stacks and all(count > 0 for count in stacks.values())

    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "prof.json"
        assert main(["profile", "-b", "fop", "-c", "KG-W",
                     "--format", "chrome", "--out", str(path)]) == 0
        assert "wrote chrome profile" in capsys.readouterr().out
        json.loads(path.read_text())

    def test_profile_restores_observability_state(self, capsys):
        from repro.observability.profile import PROFILER
        from repro.observability.trace import TRACER

        assert main(["profile", "-b", "fop", "-c", "KG-W"]) == 0
        capsys.readouterr()
        assert TRACER.enabled is False
        assert PROFILER.enabled is False

    def test_by_space_view(self, capsys):
        assert main(["profile", "-b", "fop", "-c", "KG-W",
                     "--by", "space"]) == 0
        out = capsys.readouterr().out
        assert "tag" in out


class TestTrace:
    def test_trace_exports_parseable_spans(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "table1", "--out", str(out)]) == 0
        assert "table1" in capsys.readouterr().out
        for line in out.read_text().splitlines():
            json.loads(line)

    def test_trace_writes_span_per_run(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "writes_breakdown", "--out", str(out)]) == 0
        capsys.readouterr()
        records = [json.loads(line)
                   for line in out.read_text().splitlines()]
        runs = [r for r in records
                if r["type"] == "span" and r["name"] == "runner.run"]
        # writes_breakdown measures lusearch at 1, 2, and 4 instances.
        assert len(runs) == 3

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_rejects_nonpositive_capacity(self, capsys):
        assert main(["trace", "table1", "--capacity", "0"]) == 2
        assert "--capacity must be positive" in capsys.readouterr().err

    def test_trace_unwritable_output_path(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "t.jsonl"
        assert main(["trace", "table1", "--out", str(out)]) == 1
        assert "cannot write trace" in capsys.readouterr().err


class TestStats:
    def test_stats_renders_registry_table(self, capsys):
        assert main(["stats", "-b", "fop", "-c", "KG-N"]) == 0
        out = capsys.readouterr().out
        assert "Metrics registry:" in out
        assert "machine.socket0.llc.hits" in out
        assert "kernel.mmap_calls" in out
        assert "gc.kgn.minor_collections" in out


class TestSanitize:
    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["sanitize", "--seed", "0", "--ops", "500"]) == 0
        out = capsys.readouterr().out
        assert "seed 0: OK" in out
        assert "0 failing" in out

    def test_json_output_per_trial(self, capsys):
        assert main(["sanitize", "--ops", "200", "--trials", "2",
                     "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        reports = [json.loads(line) for line in lines]
        assert [r["seed"] for r in reports] == [0, 1]
        assert all(r["ok"] for r in reports)

    def test_planted_bug_fails_and_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "divergence.jsonl"
        assert main(["sanitize", "--ops", "500", "--plant", "short-block",
                     "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "divergence at seed 0" in text
        assert out.exists()
        trace = [json.loads(line) for line in out.read_text().splitlines()]
        assert 1 <= len(trace) <= 25
        assert all("kind" in op for op in trace)

    def test_planted_sanitizer_bug_reports_violations(self, capsys):
        assert main(["sanitize", "--ops", "400", "--plant",
                     "lost-writeback"]) == 1
        text = capsys.readouterr().out
        assert "write_conservation" in text

    def test_usage_errors_exit_two(self, capsys):
        assert main(["sanitize", "--ops", "0"]) == 2
        assert main(["sanitize", "--trials", "0"]) == 2
        assert main(["sanitize", "--check-every", "-1"]) == 2
        assert main(["sanitize", "--plant", "heisenbug"]) == 2
        err = capsys.readouterr().err
        assert "--ops must be positive" in err
        assert "unknown planted bug" in err

    def test_no_shrink_keeps_full_trace(self, capsys):
        assert main(["sanitize", "--ops", "300", "--plant", "short-block",
                     "--no-shrink", "--json", "--out",
                     "/dev/null"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["divergence"]["predicate_evals"] == 0
        assert len(report["divergence"]["shrunk"]) == 300


class TestSweepArguments:
    """Benchmark names, worker counts and timeouts the sweep cannot
    use exit 2 before any run starts."""

    @pytest.mark.parametrize("extra, message", [
        (["-j", "0"], "max_workers"),
        (["-j", "-3"], "max_workers"),
        (["--timeout", "-1", "-j", "2"], "timeout"),
        (["--timeout", "0", "-j", "2"], "timeout"),
        (["-b", "fop,bogus"], "unknown benchmark(s) bogus; choose from als,"),
        (["-b", "nope,fop,bogus"], "unknown benchmark(s) nope, bogus"),
    ])
    def test_unusable_values_exit_two(self, extra, message, tmp_path,
                                      capsys):
        checkpoint = tmp_path / "sweep.ckpt.jsonl"
        argv = ["sweep", "-b", "fop", "-c", "PCM-Only,KG-N",
                "--checkpoint", str(checkpoint), *extra]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not checkpoint.exists()

    def test_retries_option_is_gone(self, capsys):
        # Only worker crashes and timeouts are retried, a fixed number
        # of times, so there is nothing to set.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "-b", "fop", "--retries", "3"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
