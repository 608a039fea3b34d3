"""Command-line interface: run benchmarks and reproduce experiments.

::

    python -m repro list
    python -m repro run -b lusearch -c KG-W -n 4
    python -m repro run -b lusearch -c KG-W --json
    python -m repro trace figure4 --out trace.jsonl
    python -m repro profile -b lusearch -c KG-W --format chrome --out prof.json
    python -m repro stats -b fop -c KG-N
    python -m repro sweep -b lusearch,fop -c KG-N,KG-W -j 4
    python -m repro sanitize --seed 0 --ops 20000
    python -m repro lint --json
    python -m repro reproduce figure7
    python -m repro reproduce all
    python -m repro describe
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import DEFAULT_SCALE_CONFIG, RECOMMENDED_WRITE_RATE_MBS
from repro.core.collectors import ALL_COLLECTOR_NAMES
from repro.core.platform import EmulationMode
from repro.harness.experiment import RunKey, _execute
from repro.kernel.placement import PLACEMENT_NAMES
from repro.observability import (
    METRICS,
    PROFILER,
    TRACER,
    attribution_table,
    enable_console,
    result_metrics,
    run_report,
    to_chrome_trace,
    to_folded,
)
from repro.observability.report import WHOLE_RUN_COUNTERS
from repro.workloads.registry import ALL_BENCHMARKS, benchmarks_in_suite


def _instance_count(text: str) -> int:
    """argparse type: an instance count, at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"instance count must be at least 1, got {count}")
    return count


def _instance_counts(text: str) -> List[int]:
    """argparse type: a comma-separated list of instance counts."""
    return [_instance_count(part) for part in text.split(",")]


def _add_measurement_args(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``run`` and ``stats`` verbs."""
    parser.add_argument("-b", "--benchmark", default="lusearch")
    parser.add_argument("-c", "--collector", default="PCM-Only",
                        choices=ALL_COLLECTOR_NAMES)
    parser.add_argument("-n", "--instances", type=_instance_count,
                        default=1)
    parser.add_argument("--dataset", default="default",
                        choices=["default", "large"])
    parser.add_argument("--mode", default="emulation",
                        choices=["emulation", "simulation"])
    parser.add_argument("--placement", default="static",
                        choices=PLACEMENT_NAMES,
                        help="kernel page-placement policy (default: "
                             "static)")


def _build_parser() -> argparse.ArgumentParser:
    from repro.experiments import EXPERIMENTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hybrid DRAM-PCM memory emulation for managed "
                    "languages (ISPASS 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks and collectors")
    sub.add_parser("describe", help="show the emulated platform")

    run = sub.add_parser("run", help="measure one configuration")
    _add_measurement_args(run)
    run.add_argument("--track-wear", action="store_true",
                     help="measure per-line PCM wear and Start-Gap "
                          "levelling efficiency")
    run.add_argument("--json", action="store_true",
                     help="emit a machine-readable run report (per-"
                          "socket counters, LLC hit rates, GC phase "
                          "spans, wall-time) instead of text")

    reproduce = sub.add_parser(
        "reproduce", help="regenerate a table/figure (or 'all')")
    reproduce.add_argument("experiment",
                           help=f"{', '.join(EXPERIMENTS)}, or 'all'")

    trace = sub.add_parser(
        "trace", help="run one experiment with tracing on and export "
                      "the span/event buffer as JSON lines")
    trace.add_argument("experiment",
                       help=f"one of {', '.join(EXPERIMENTS)}")
    trace.add_argument("--out", default="trace.jsonl",
                       help="output path (default: trace.jsonl)")
    trace.add_argument("--capacity", type=int, default=None,
                       help="override the trace ring-buffer capacity")

    profile = sub.add_parser(
        "profile", help="measure one configuration with the write-"
                        "attribution profiler on and export the "
                        "per-phase counter attribution")
    _add_measurement_args(profile)
    profile.add_argument("--format", default="table",
                         choices=["chrome", "folded", "table", "json"],
                         help="chrome = trace-event JSON (load in "
                              "Perfetto), folded = flamegraph stacks, "
                              "table = aligned ASCII, json = the raw "
                              "repro.profile/v1 artifact")
    profile.add_argument("--by", default="phase",
                         choices=["phase", "space", "socket"],
                         help="attribution view for --format table")
    profile.add_argument("--counter", default="pcm.writes",
                         help="counter exported by --format folded "
                              "(default: pcm.writes)")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write the export here instead of stdout")

    stats = sub.add_parser(
        "stats", help="measure one configuration and render its "
                      "counters and the host events as tables")
    _add_measurement_args(stats)

    sweep = sub.add_parser(
        "sweep", help="measure a benchmark x collector x instances "
                      "grid, fanning runs across worker processes")
    sweep.add_argument("-b", "--benchmarks", default="lusearch",
                       help="comma-separated benchmark names")
    sweep.add_argument("-c", "--collectors", default="PCM-Only",
                       help="comma-separated collector names")
    sweep.add_argument("-n", "--instances", type=_instance_counts,
                       default="1", help="comma-separated instance counts")
    sweep.add_argument("--dataset", default="default",
                       choices=["default", "large"])
    sweep.add_argument("--mode", default="emulation",
                       choices=["emulation", "simulation"])
    sweep.add_argument("--placement", default="static",
                       help="comma-separated placement policies "
                            f"({', '.join(PLACEMENT_NAMES)}; "
                            "default: static)")
    sweep.add_argument("-j", "--jobs", type=int, default=None,
                       help="worker processes (default: one per core; "
                            "1 forces serial execution)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run timeout in seconds (pool mode "
                            "only; a timed-out run is retried like a "
                            "crashed worker)")
    sweep.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="persist each completed key to this JSONL "
                            "file as it finishes")
    sweep.add_argument("--resume", action="store_true",
                       help="replay completed keys from --checkpoint "
                            "instead of re-executing them")
    sweep.add_argument("--json", action="store_true",
                       help="emit one JSON object per key (successes "
                            "and failures) instead of the table")

    sanitize = sub.add_parser(
        "sanitize", help="differentially fuzz the access path against "
                         "the per-line oracle and run the invariant "
                         "sanitizer; shrink any divergence")
    sanitize.add_argument("--seed", type=int, default=0,
                          help="base RNG seed (trial i uses seed+i)")
    sanitize.add_argument("--placement", default="static",
                          choices=PLACEMENT_NAMES,
                          help="page-placement policy for both replays "
                               "(default: static)")
    sanitize.add_argument("--tick-every", type=int, default=0,
                          help="interleave a placement-safepoint tick "
                               "op every N trace ops (0 disables; use "
                               "with --placement migrate; default: 0)")
    sanitize.add_argument("--ops", type=int, default=20000,
                          help="operations per trace (default: 20000)")
    sanitize.add_argument("--trials", type=int, default=1,
                          help="number of seeds to fuzz (default: 1)")
    sanitize.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="minimise diverging traces (default: on)")
    sanitize.add_argument("--check-every", type=int, default=64,
                          help="run invariant checks every N ops "
                               "(0 disables; default: 64)")
    sanitize.add_argument("--plant", default=None, metavar="BUG",
                          help="install a known bug first (self-test): "
                               "short-block, clean-write or "
                               "lost-writeback")
    sanitize.add_argument("--out", default="divergence-trace.jsonl",
                          help="where to write the shrunk trace of the "
                               "first divergence (JSONL)")
    sanitize.add_argument("--json", action="store_true",
                          help="emit one JSON object per trial instead "
                               "of text")

    lint = sub.add_parser(
        "lint", help="run the project's static-analysis checkers "
                     "(layering, determinism, counter-discipline, "
                     "hook-coverage, span-balance)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to scan (default: "
                           "src/repro, plus tests/ and benchmarks/ for "
                           "the D-rules)")
    lint.add_argument("--json", action="store_true",
                      help="emit a machine-readable report instead of text")
    lint.add_argument("--check-stale", action="store_true",
                      help="also fail (exit 1) when the baseline holds "
                           "stale entries for scanned modules")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of justified suppressions "
                           "(default: lint-baseline.json; 'none' "
                           "disables)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="rewrite the baseline to suppress all current "
                           "findings (reasons become TODO markers)")
    lint.add_argument("--select", action="append", default=None,
                      metavar="RULE",
                      help="only report these rules/checkers (repeatable, "
                           "comma-separated ok): L001, determinism, ...")
    lint.add_argument("--ignore", action="append", default=None,
                      metavar="RULE",
                      help="drop these rules/checkers (repeatable)")
    lint.add_argument("--explain", action="store_true",
                      help="print the rule table and exit")
    return parser


def _cmd_list() -> int:
    print("Benchmarks:")
    for suite in ("dacapo", "pjbb", "graphchi", "graphchi-cpp"):
        names = ", ".join(benchmarks_in_suite(suite))
        print(f"  {suite:13s} {names}")
    print("\nCollectors:")
    print("  " + ", ".join(ALL_COLLECTOR_NAMES))
    return 0


def _known_benchmarks(names: List[str]) -> bool:
    """False, after listing the known names on stderr, when any of
    ``names`` is not a registered benchmark."""
    unknown = [name for name in names if name not in ALL_BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s) {', '.join(unknown)}; choose from "
              f"{', '.join(ALL_BENCHMARKS)}", file=sys.stderr)
    return not unknown


def _cmd_describe() -> int:
    scale = DEFAULT_SCALE_CONFIG
    print("Emulated platform (paper values scaled by "
          f"1/{scale.scale}):")
    print(f"  2 sockets x 8 cores x 2 HT; "
          f"LLC {scale.llc_size // 1024} KB/socket; "
          f"L2 {scale.l2_size // 1024} KB/core")
    print(f"  default nursery {scale.nursery_default // 1024} KB; "
          f"chunk {scale.chunk_size // 1024} KB; "
          f"node memory {scale.socket_dram // (1024 * 1024)} MB")
    print(f"  Socket 0 = DRAM, Socket 1 = PCM; recommended PCM write "
          f"rate {RECOMMENDED_WRITE_RATE_MBS:.0f} MB/s")
    return 0


def _run_key(args: argparse.Namespace, track_wear: bool = False) -> RunKey:
    """The run key of parsed measurement options."""
    return RunKey(args.benchmark, args.collector, args.instances,
                  args.dataset, EmulationMode(args.mode),
                  placement=args.placement, track_wear=track_wear)


def _warn_dropped(context: str) -> None:
    """One stderr line when the tracer's ring buffer overflowed."""
    if TRACER.dropped:
        print(f"warning: {context}: trace buffer overflowed, "
              f"{TRACER.dropped} record(s) dropped (raise the capacity "
              f"to keep them)", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.json:
        # Trace the run so the report can include GC phase spans.
        was_enabled = TRACER.enabled
        TRACER.clear()
        TRACER.enable()
        try:
            result = _execute(_run_key(args, args.track_wear), False)
            report = run_report(result, gc_spans=TRACER.spans("gc."),
                                metrics=result_metrics(result).as_dict(),
                                trace_dropped=TRACER.dropped)
        finally:
            TRACER.enabled = was_enabled
        _warn_dropped("run")
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    result = _execute(_run_key(args, args.track_wear), False)
    print(result.describe())
    for tag, lines in sorted(result.per_tag_pcm_writes.items()):
        print(f"  PCM writes from {tag:14s} {lines:8d} lines")
    stats = result.instance_stats[0]
    print(f"  GC: {stats.minor_gcs} minor / {stats.full_gcs} full / "
          f"{stats.observer_collections} observer; "
          f"{stats.bytes_allocated} B allocated")
    if result.wear_efficiency is not None:
        print(f"  wear: imbalance {result.wear_imbalance:.1f}x, "
              f"Start-Gap efficiency {result.wear_efficiency:.2f}")
    return 0


def _unknown_experiment(name: str) -> int:
    from repro.experiments import EXPERIMENTS

    choices = ", ".join(sorted(EXPERIMENTS))
    print(f"unknown experiment {name!r}; choose from {choices}, "
          f"or 'all'", file=sys.stderr)
    return 2


def _report_failures(failures) -> int:
    """List a reproduction's failed keys, each whole, on stderr; the
    exit code."""
    for outcome in failures:
        key = json.dumps(outcome.key.to_dict(), sort_keys=True)
        print(f"ERR {key}: {outcome.failure.exception_type}: "
              f"{outcome.failure.message}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_reproduce(name: str) -> int:
    from repro.experiments import EXPERIMENTS, reproduce
    from repro.harness.experiment import ExperimentRunner

    if name != "all" and name not in EXPERIMENTS:
        return _unknown_experiment(name)
    if name == "all":
        enable_console()
    runner = ExperimentRunner(verbose=name == "all")
    outputs, failures = reproduce(EXPERIMENTS if name == "all" else [name],
                                  runner)
    for output in outputs.values():
        print(output.text)
    return _report_failures(failures)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, reproduce
    from repro.harness.experiment import ExperimentRunner

    if args.experiment not in EXPERIMENTS:
        return _unknown_experiment(args.experiment)
    if args.capacity is not None and args.capacity <= 0:
        print(f"--capacity must be positive, got {args.capacity}",
              file=sys.stderr)
        return 2
    was_enabled = TRACER.enabled
    old_capacity = TRACER.capacity
    if args.capacity:
        TRACER.set_capacity(args.capacity)
    TRACER.clear()
    TRACER.enable()
    # A fresh runner so every measurement of the experiment genuinely
    # executes, and in-process so each leaves a runner.run span here.
    runner = ExperimentRunner()
    try:
        _, failures = reproduce([args.experiment], runner, max_workers=1)
        try:
            written = TRACER.export_jsonl(args.out)
        except OSError as exc:
            print(f"cannot write trace to {args.out}: {exc}",
                  file=sys.stderr)
            return 1
    finally:
        TRACER.enabled = was_enabled
        if args.capacity:
            TRACER.set_capacity(old_capacity)
    dropped = f" ({TRACER.dropped} dropped)" if TRACER.dropped else ""
    print(f"{args.experiment}: wrote {written} trace records to "
          f"{args.out}{dropped}; {runner.executions} runs, "
          f"{runner.cache_hits} cache hits")
    return _report_failures(failures)


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness.experiment import ExperimentRunner
    from repro.observability.report import sweep_report

    benchmarks = [b.strip() for b in args.benchmarks.split(",") if b.strip()]
    collectors = [c.strip() for c in args.collectors.split(",") if c.strip()]
    if not _known_benchmarks(benchmarks):
        return 2
    unknown = [c for c in collectors if c not in ALL_COLLECTOR_NAMES]
    if unknown:
        print(f"unknown collectors: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    placements = [p.strip() for p in args.placement.split(",") if p.strip()]
    unknown = [p for p in placements if p not in PLACEMENT_NAMES]
    if unknown:
        print(f"unknown placement(s) {', '.join(unknown)}; choose from "
              f"{', '.join(PLACEMENT_NAMES)}", file=sys.stderr)
        return 2
    keys = [RunKey(benchmark, collector, count, args.dataset,
                   EmulationMode(args.mode), placement=placement)
            for benchmark in benchmarks
            for collector in collectors
            for count in args.instances
            for placement in placements]
    runner = ExperimentRunner()
    try:
        report = runner.sweep(keys, max_workers=args.jobs,
                              timeout=args.timeout,
                              checkpoint=args.checkpoint,
                              resume=args.resume)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        for entry in sweep_report(report)["outcomes"]:
            print(json.dumps(entry, sort_keys=True))
        return 0 if report.ok else 1
    for outcome in report.outcomes:
        if outcome.ok:
            print(outcome.result.describe())
        else:
            key = outcome.key
            failure = outcome.failure
            print(f"FAILED {key.benchmark}/{key.collector}/"
                  f"n={key.instances}: {failure.exception_type}: "
                  f"{failure.message} (after {failure.attempts} "
                  f"attempt(s) on {failure.worker})")
    print(f"{runner.executions} runs, {runner.cache_hits} cache hits, "
          f"{len(report.failures)} failures")
    return 0 if report.ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.sanitize.fuzz import (PLANTED_BUGS, DifferentialFuzzer,
                                     planted_bug, write_trace_jsonl)

    if args.ops <= 0:
        print(f"--ops must be positive, got {args.ops}", file=sys.stderr)
        return 2
    if args.trials <= 0:
        print(f"--trials must be positive, got {args.trials}",
              file=sys.stderr)
        return 2
    if args.check_every < 0:
        print(f"--check-every cannot be negative, got {args.check_every}",
              file=sys.stderr)
        return 2
    if args.plant is not None and args.plant not in PLANTED_BUGS:
        print(f"unknown planted bug {args.plant!r}; choose from "
              f"{', '.join(PLANTED_BUGS)}", file=sys.stderr)
        return 2

    try:
        fuzzer = DifferentialFuzzer(ops=args.ops, shrink=args.shrink,
                                    check_every=args.check_every,
                                    placement=args.placement,
                                    tick_every=args.tick_every)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = planted_bug(args.plant) if args.plant else nullcontext()
    with context:
        results = fuzzer.run(seed=args.seed, trials=args.trials)

    failed = False
    artifact_written = False
    for result in results:
        if args.json:
            print(json.dumps(result.to_dict(), sort_keys=True))
        else:
            status = "OK" if result.ok else "FAIL"
            print(f"seed {result.seed}: {status} "
                  f"({result.ops} ops, "
                  f"{len(result.violations)} violation(s), "
                  f"divergence={'yes' if result.divergence else 'no'})")
            if result.divergence is not None:
                print(result.divergence.describe())
            for violation in result.violations[:5]:
                print(f"  [{violation.law}] at {violation.site}: "
                      f"{violation.detail}")
            if len(result.violations) > 5:
                print(f"  ... and {len(result.violations) - 5} more "
                      f"violation(s)")
        if not result.ok:
            failed = True
        if result.divergence is not None and not artifact_written:
            try:
                count = write_trace_jsonl(args.out,
                                          result.divergence.shrunk)
            except OSError as exc:
                print(f"cannot write shrunk trace to {args.out}: {exc}",
                      file=sys.stderr)
            else:
                artifact_written = True
                if not args.json:
                    print(f"shrunk trace ({count} ops) written to "
                          f"{args.out}")
    if not args.json:
        bad = sum(1 for r in results if not r.ok)
        print(f"{len(results)} trial(s), {bad} failing")
    return 1 if failed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    # Tracing must be on too: the Chrome exporter renders the span
    # records, and the profiler needs span boundaries either way.
    was_traced = TRACER.enabled
    was_profiled = PROFILER.enabled
    TRACER.clear()
    TRACER.enable()
    try:
        result = _execute(_run_key(args), True)
    finally:
        TRACER.enabled = was_traced
        PROFILER.enabled = was_profiled
    _warn_dropped("profile")
    profile = result.profile
    if profile is None:  # pragma: no cover - defensive
        print("error: the run produced no profile artifact",
              file=sys.stderr)
        return 1
    if args.format == "chrome":
        text = json.dumps(to_chrome_trace(profile), sort_keys=True)
    elif args.format == "folded":
        text = to_folded(profile, counter=args.counter)
    elif args.format == "json":
        text = json.dumps(profile, indent=2, sort_keys=True)
    else:
        text = attribution_table(
            profile, by=args.by,
            title=f"Write attribution ({result.benchmark}, "
                  f"{result.collector}, by {args.by}):")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"cannot write profile to {args.out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"wrote {args.format} profile to {args.out}")
    else:
        print(text)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    result = _execute(_run_key(args), False)
    print(result.describe())
    if TRACER.dropped:
        print(f"trace.dropped: {TRACER.dropped}")
    print()
    simulated = result_metrics(result)
    print(simulated.render_table(title="Metrics registry:"))
    print(f"Whole run (warm-up, measured iteration, teardown): "
          f"{', '.join(WHOLE_RUN_COUNTERS)}; every other counter: "
          f"measured iteration only.")
    print()
    # Leave out the kernel counters platform.run also bridges into
    # METRICS for the end-to-end benchmark: the table above has them.
    print(METRICS.render_table(title="Host events:",
                               exclude=simulated.names()))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analyze import (Analyzer, Baseline, BaselineError,
                               TODO_REASON, filter_findings, make_checkers,
                               rule_table)
    from repro.analyze.config import (BASELINE, EXCLUDE, PATHS, TEST_PATHS,
                                      TEST_SELECT)

    if args.explain:
        for rule, (checker, description) in sorted(rule_table().items()):
            print(f"{rule}  [{checker}] {description}")
        return 0

    paths = [Path(p) for p in (args.paths or PATHS)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    def split(values: Optional[List[str]]) -> List[str]:
        flat: List[str] = []
        for value in values or ():
            flat.extend(part.strip() for part in value.split(",")
                        if part.strip())
        return flat

    select = split(args.select)
    ignore = split(args.ignore)
    table = rule_table()
    known = sorted(table) + sorted({checker for checker, _ in table.values()})
    for flag, names in (("--select", select), ("--ignore", ignore)):
        unknown = [name for name in names if name not in known]
        if unknown:
            print(f"error: unknown {flag} name(s) {', '.join(unknown)}; "
                  f"choose from {', '.join(known)}", file=sys.stderr)
            return 2

    report = Analyzer(make_checkers()).run(paths)
    findings = filter_findings(report.sorted(), select, ignore)
    files_scanned = report.files_scanned
    scanned_modules = set(report.scanned_modules)

    # Test trees get the restricted rule set (D-rules by default) in a
    # separate project scope, minus the planted lint fixtures.  Only on
    # default-path runs: explicit paths mean the caller picked the scope.
    if not args.paths:
        test_roots = [Path(p) for p in TEST_PATHS if Path(p).is_dir()]
        test_files = [
            f for f in Analyzer.collect(test_roots)
            if not any(f.as_posix() == prefix
                       or f.as_posix().startswith(prefix + "/")
                       for prefix in EXCLUDE)]
        if test_files:
            aux_report = Analyzer(make_checkers()).run(test_files)
            aux = filter_findings(aux_report.sorted(), TEST_SELECT, [])
            findings = findings + filter_findings(aux, select, ignore)
            files_scanned += aux_report.files_scanned
            scanned_modules.update(aux_report.scanned_modules)

    baseline_path: Optional[Path] = None
    if args.baseline != "none":
        baseline_path = Path(args.baseline or BASELINE)

    if args.write_baseline:
        if baseline_path is None:
            print("error: --write-baseline needs a baseline path",
                  file=sys.stderr)
            return 2
        old = Baseline()
        if baseline_path.is_file():
            try:
                old = Baseline.load(baseline_path)
            except BaselineError:
                pass  # rewrite a broken baseline from scratch
        fresh = Baseline.from_findings(findings)
        # Entries for modules outside this scan's scope are preserved
        # (a partial-path run must not nuke the rest of the baseline);
        # entries for scanned modules that no longer fire are pruned.
        preserved = {key: reason for key, reason in old.entries.items()
                     if key.split("::", 2)[1] not in scanned_modules}
        pruned = [key for key in old.entries
                  if key not in fresh.entries and key not in preserved]
        # Keep reviewed reasons for keys that are still firing.
        for key in fresh.entries:
            if key in old.entries and old.entries[key] != TODO_REASON:
                fresh.entries[key] = old.entries[key]
        fresh.entries.update(preserved)
        fresh.save(baseline_path)
        print(f"wrote {len(fresh.entries)} entries to {baseline_path} "
              f"({len(pruned)} stale pruned, "
              f"{len(preserved)} out-of-scope preserved)")
        for key in pruned:
            print(f"  pruned: {key}")
        return 0

    baseline = Baseline()
    if baseline_path is not None and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    unsuppressed, suppressed, stale = baseline.apply(findings)
    # A baseline key can only be judged stale if its module was in
    # scope this run.
    stale = [key for key in stale
             if key.split("::", 2)[1] in scanned_modules]
    failed = bool(unsuppressed) or (args.check_stale and bool(stale))

    if args.json:
        print(json.dumps({
            "tool": "repro-lint",
            "files_scanned": files_scanned,
            "findings": [f.to_dict() for f in unsuppressed],
            "suppressed": [f.to_dict() for f in suppressed],
            "stale_baseline_keys": stale,
            "exit": 1 if failed else 0,
        }, indent=2))
        return 1 if failed else 0

    for finding in unsuppressed:
        print(finding.render())
    if stale:
        print(f"note: {len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'} "
              f"(no longer firing):")
        for key in stale:
            print(f"  {key}")
        if args.check_stale:
            print("(--check-stale: failing on stale baseline entries; "
                  "run --write-baseline to prune)")
    print(f"{files_scanned} files scanned, "
          f"{len(unsuppressed)} finding(s), "
          f"{len(suppressed)} baselined")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "profile", "stats") \
            and not _known_benchmarks([args.benchmark]):
        return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args.experiment)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
