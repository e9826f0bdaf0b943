"""``repro-experiments`` — regenerate the paper's tables and figures.

Subcommands::

    repro-experiments t1            # data-race-test suite, 4 tools
    repro-experiments t2            # spin(k) threshold sensitivity
    repro-experiments t3            # PARSEC program characteristics
    repro-experiments t4 [--seeds N]  # PARSEC racy contexts (both halves)
    repro-experiments t5 [--seeds N]  # universal-detector summary
    repro-experiments f1            # memory-overhead figure
    repro-experiments f2            # runtime-overhead figure
    repro-experiments f6            # replay throughput (stored trace vs live)
    repro-experiments f7            # streaming-decode peak memory (vs in-memory)
    repro-experiments f9            # service load (req/s + latency)
    repro-experiments cases         # list the 120 suite cases
    repro-experiments oracle        # detector-free ground-truth sweep
    repro-experiments sweep         # parallel sweep + observability report
    repro-experiments grand         # suite x presets x chaos, replayed, all cores
    repro-experiments chaos         # fault-injection suite vs. its oracle
    repro-experiments tools         # list the named tool presets
    repro-experiments cache doctor  # scan/quarantine/purge the result cache
    repro-experiments triage replay ARTIFACT  # replay a forensic artifact
    repro-experiments trace record WORKLOAD [SEED]   # record one execution
    repro-experiments trace analyze WORKLOAD [SEED]  # re-analyze, no VM
    repro-experiments trace ls      # list the trace store
    repro-experiments trace gc      # reclaim trace-store space
    repro-experiments all           # every table and figure, in order

Global options wire every table through the parallel engine::

    --workers N       fan (workload, tool, seed) triples over N processes
    --cache-dir DIR   content-keyed result cache; repeat invocations of
                      the same sweep re-execute zero runs
    --timeout S       per-run wall-clock budget (parallel runs only)
    --retries N       attempts after a timeout/crash before giving up
    --tools A,B       tool presets to sweep (see ``tools``); tables
                      default to the paper's four columns

Durability and triage options (sweep/chaos)::

    --journal-dir DIR    fsynced checkpoint journal of completed runs
    --resume             skip specs already journaled by a killed run
    --heartbeat S        worker heartbeat interval (hung/slow detection)
    --poison-threshold N quarantine a spec after N worker kills/hangs
    --forensics-dir DIR  capture + ddmin-shrink failed runs as artifacts

Resource-governance options (sweep/chaos)::

    --mem-budget SIZE    per-worker RSS cap ("256m", "2g"); over-budget
                         workers are preempted and retried once in
                         degraded mode, then quarantined (needs
                         --heartbeat and pooled workers)
    --disk-quota SIZE    byte quota for the result cache and the trace
                         store (LRU eviction; full disk degrades to
                         cache-off instead of failing the sweep)
    --wall-budget S      stop dispatching new sweep work after S seconds
                         (in-flight runs finish; the rest get structured
                         "wall-budget" records)

Record-once-analyze-anywhere options (sweep/trace)::

    --trace-dir DIR      content-addressed trace store (default
                         <cache-dir>/traces when --cache-dir is set)
    --trace-mode MODE    sweep: live (default), record (re-record every
                         cell), or replay (analyze from stored traces,
                         recording each missing cell once)
    --scheduler SPEC     scheduling policy spec ("random",
                         "round-robin", "adversarial:burst=12")

Tool names resolve through the shared preset registry
(:meth:`repro.detectors.ToolConfig.preset`): ``helgrind-lib``,
``helgrind-nolib-spin7``, ``drd``, ``eraser``, ...  A trailing integer
sets the spin(k) window.

The perf figures always run serially: their wall-clock numbers would be
polluted by co-scheduled sibling runs.  Every ``f*`` subcommand is one
path (:func:`cmd_figure`) over a config row of
:data:`repro.harness.figures.FIGURES`, which also supplies the epilog
line and the ``--out`` default (the row's ``BENCH_*.json``).  ``--limit``
caps each figure's workloads (F9: requests per path; acceptance bars
then apply only where the row holds them on subsets), ``--repeats`` its
repeats, ``--k`` its spin window; ``--tools``/``--tool`` replace its
presets (not for F1/F2, whose two columns are lib vs lib+spin(k)).  Exit
1 when an oracle or bar check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
from typing import List, Optional, Sequence

from repro.detectors import ToolConfig
from repro.harness.metrics import racy_contexts_table, score_suite
from repro.harness.parallel import ResultCache, run_sweep, sweep_specs
from repro.harness.figures import FIGURES
from repro.harness.registry import canonical_scheduler, resolve_tool
from repro.harness.tables import (
    contexts_table,
    format_table,
    suite_table,
    sweep_records_table,
    sweep_summary_table,
)


def _scheduler_spec(spec: str) -> str:
    """``--scheduler`` type: reject a spec ``canonical_scheduler`` would
    (unknown kind or parameter, out-of-range value) at parse time."""
    try:
        canonical_scheduler(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _tools(args: argparse.Namespace) -> Sequence[ToolConfig]:
    """The tool columns: ``--tools`` preset names, or the paper's four."""
    if getattr(args, "tools", None):
        return [resolve_tool(name.strip()) for name in args.tools.split(",") if name.strip()]
    return ToolConfig.paper_tools(args.k)


def _cache(args: argparse.Namespace) -> Optional[ResultCache]:
    return ResultCache(args.cache_dir) if args.cache_dir else None


def _budget(args: argparse.Namespace):
    """A :class:`ResourceBudget` from the governance flags (or ``None``)."""
    from repro.harness.resources import ResourceBudget

    budget = ResourceBudget.of(
        mem_budget=args.mem_budget,
        disk_quota=args.disk_quota,
        wall_budget_s=args.wall_budget,
    )
    return budget if budget.governed else None


def _sweep_options(args: argparse.Namespace) -> dict:
    """The supervision keywords ``sweep``, ``grand`` and ``chaos`` hand
    to :func:`~repro.harness.parallel.run_sweep`."""
    return dict(
        cache=_cache(args),
        timeout_s=args.timeout,
        retries=args.retries,
        journal_dir=args.journal_dir,
        resume=args.resume,
        heartbeat_s=args.heartbeat,
        poison_threshold=args.poison_threshold,
        forensics_dir=args.forensics_dir,
        budget=_budget(args),
    )


def cmd_t1(args: argparse.Namespace) -> None:
    from repro.workloads import build_suite

    suite = build_suite()
    cache = _cache(args)
    rows = []
    for cfg in _tools(args):
        score, _ = score_suite(suite, cfg, workers=args.workers, cache=cache)
        rows.append(score.row())
    print(suite_table(rows, f"T1 — data-race-test suite ({len(suite)} cases)"))


def cmd_t2(args: argparse.Namespace) -> None:
    from repro.workloads import build_suite

    suite = build_suite()
    cache = _cache(args)
    rows = []
    for k in (3, 6, 7, 8):
        score, _ = score_suite(
            suite, resolve_tool(f"helgrind-lib-spin{k}"), workers=args.workers, cache=cache
        )
        rows.append(score.row())
    print(suite_table(rows, "T2 — spinning-read window sensitivity"))


def cmd_t3(args: argparse.Namespace) -> None:
    from repro.workloads.parsec.registry import program_metadata

    meta = program_metadata()
    headers = ["Program", "Model", "Instrs", "Threads", "Ad-hoc", "CVs", "Locks", "Barriers"]
    rows = [
        [
            name,
            m["model"],
            m["instructions"],
            m["threads"],
            "x" if m["adhoc"] else "-",
            "x" if m["cvs"] else "-",
            "x" if m["locks"] else "-",
            "x" if m["barriers"] else "-",
        ]
        for name, m in meta.items()
    ]
    print(format_table(headers, rows, title="T3 — PARSEC program characteristics"))


def _parsec_contexts(args: argparse.Namespace, names: Sequence[str], title: str) -> None:
    from repro.workloads.parsec.registry import parsec_workload

    workloads = [parsec_workload(n) for n in names]
    seeds = list(range(1, args.seeds + 1))
    tools = _tools(args)
    data = racy_contexts_table(
        workloads, tools, seeds, workers=args.workers, cache=_cache(args)
    )
    print(contexts_table(data, [c.name for c in tools], title))


def cmd_t4(args: argparse.Namespace) -> None:
    from repro.workloads.parsec.registry import WITH_ADHOC, WITHOUT_ADHOC

    _parsec_contexts(
        args, WITHOUT_ADHOC, "T4a — PARSEC programs without ad-hoc synchronization"
    )
    print()
    _parsec_contexts(
        args, WITH_ADHOC, "T4b — PARSEC programs with ad-hoc synchronization"
    )


def cmd_t5(args: argparse.Namespace) -> None:
    from repro.workloads.parsec.registry import WITH_ADHOC, WITHOUT_ADHOC

    _parsec_contexts(
        args,
        tuple(WITHOUT_ADHOC) + tuple(WITH_ADHOC),
        "T5 — universal race detector summary (all 13 programs)",
    )


def cmd_cases(args: argparse.Namespace) -> None:
    from repro.workloads import build_suite

    suite = build_suite()
    rows = [
        [
            wl.name,
            wl.category,
            wl.threads,
            ", ".join(sorted(wl.racy_symbols)) or "-",
        ]
        for wl in suite
    ]
    print(
        format_table(
            ["Case", "Family", "Threads", "True racy symbols"],
            rows,
            title=f"The {len(suite)}-case suite",
        )
    )
    racy = sum(1 for wl in suite if wl.racy_symbols)
    print(f"{racy} racy / {len(suite) - racy} race-free")


def cmd_oracle(args: argparse.Namespace) -> None:
    from repro.harness.oracle import check_suite
    from repro.workloads import build_suite

    suite = build_suite()
    verdicts = check_suite(suite, seeds=range(args.seeds))
    rows = [
        [v.workload, v.verdict, v.distinct_outcomes, v.schedules_tried]
        for v in verdicts.values()
        if v.verdict != "stable"
    ]
    print(
        format_table(
            ["Case", "Verdict", "Outcomes", "Schedules"],
            rows,
            title="Ground-truth oracle — non-stable cases",
        )
    )
    stable = sum(1 for v in verdicts.values() if v.verdict == "stable")
    print(f"{stable}/{len(verdicts)} cases schedule-stable")


def cmd_figure(key: str, args: argparse.Namespace) -> int:
    """Measure one figure; print it, write its bench file, check it."""
    from repro.harness import perf

    fig = FIGURES[key]
    names = args.tools or args.tool
    tools = [n.strip() for n in names.split(",") if n.strip()] if names else None
    groups = perf.measure(
        fig,
        limit=args.limit,
        tools=None if fig.variants else tools,
        repeats=args.repeats,
        k=args.k,
        workers=args.workers or 2,
    )
    print(perf.render(fig, groups))
    out = fig.bench if args.out is None else args.out
    if out:
        perf.write_bench(out, fig, groups)
        print(f"wrote {out}")
    failed = perf.check(fig, groups, full=not args.limit)
    for message in failed:
        print(f"FAIL {message}")
    return 1 if failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis service daemon (HTTP JSON)."""
    from repro.service.app import serve

    work_dir = args.work_dir or ".repro-service"
    serve(
        work_dir=work_dir,
        host=args.host,
        port=args.port,
        workers=args.workers or 2,
        queue_depth=args.queue_depth,
        default_deadline_s=args.timeout or 60.0,
        budget=_budget(args),
    )
    return 0


#: the figures with an ``f*`` subcommand, in run order (F3/F4 run only
#: as benchmarks)
FIGURE_COMMANDS = ("f1", "f2", "f6", "f7", "f9")


def cmd_tools(args: argparse.Namespace) -> None:
    """List the named tool presets the registry resolves."""
    rows = []
    for name in ToolConfig.presets():
        cfg = ToolConfig.preset(name)
        rows.append(
            [
                name,
                cfg.name,
                cfg.algorithm,
                "lib" if cfg.intercept_lib else "nolib",
                f"spin({cfg.spin_max_blocks})" if cfg.spin else "-",
            ]
        )
    print(
        format_table(
            ["Preset", "Tool", "Algorithm", "Interception", "Spin"],
            rows,
            title="Named tool presets (ToolConfig.preset)",
        )
    )


def _print_sweep(result, title: str) -> int:
    """Print a sweep's run log, summary and notes; return the exit code
    (0, 1 when a run failed, 130 when the sweep was interrupted)."""
    print(sweep_records_table(result.records, title))
    print()
    print(sweep_summary_table(result.summary()))
    for note in result.notes:
        print(f"note: {note}")
    if result.resumed:
        print(f"\n{result.resumed} run(s) served from the checkpoint journal")
    if result.interrupted:
        print(f"\ninterrupted — {len(result.records)} completed record(s) kept")
        return 130
    if result.failed:
        print(f"\n{len(result.failed)} run(s) FAILED")
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fan a (workload, tool, seed) sweep out and print the run log."""
    from repro.workloads import parsec_workloads

    workloads = [wl.name for wl in parsec_workloads()]
    if args.limit:
        workloads = workloads[: args.limit]
    # RunSpec resolves preset names itself; ship strings, not configs.
    configs: Sequence = (
        [n.strip() for n in args.tools.split(",") if n.strip()]
        if args.tools
        else ["helgrind-lib", f"helgrind-lib-spin{args.k}"]
    )
    seeds = list(range(1, args.seeds + 1))
    specs = sweep_specs(workloads, configs, seeds)
    if args.trace_mode != "live" or args.scheduler:
        specs = [
            dataclasses.replace(s, trace_mode=args.trace_mode, scheduler=args.scheduler)
            for s in specs
        ]
    try:
        result = run_sweep(
            specs, workers=args.workers, trace_dir=args.trace_dir, **_sweep_options(args)
        )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    title = (
        f"Sweep — {len(workloads)} workload(s) x {len(configs)} tool(s) "
        f"x {len(seeds)} seed(s) on {args.workers} worker(s)"
    )
    return _print_sweep(result, title)


def cmd_grand(args: argparse.Namespace) -> int:
    """The grand sweep: suite x presets (+ chaos) as replay cells, all cores."""
    from repro.harness.grand import grand_specs

    if not (args.trace_dir or args.cache_dir):
        print(
            "grand requires a trace store: pass --trace-dir or --cache-dir",
            file=sys.stderr,
        )
        return 2
    configs = (
        [n.strip() for n in args.tools.split(",") if n.strip()]
        if args.tools
        else list(ToolConfig.presets())
    )
    specs = grand_specs(configs, suite_limit=args.limit or None)
    try:
        result = run_sweep(
            specs,
            # --workers 0 (the global default) means serial for `sweep`, but
            # the grand sweep exists to use the machine: None → one per CPU.
            workers=args.workers or None,
            trace_dir=args.trace_dir,
            **_sweep_options(args),
        )
    except ValueError as exc:
        print(f"grand: {exc}", file=sys.stderr)
        return 2
    title = f"Grand sweep — {len(specs)} replay cell(s) over {len(configs)} tool(s)"
    return _print_sweep(result, title)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection suite and verify every oracle expectation."""
    from repro.harness.chaos import chaos_table, run_chaos

    try:
        report = run_chaos(
            config=args.tool or f"helgrind-lib-spin{args.k}",
            workers=args.workers,
            **_sweep_options(args),
        )
    except ValueError as exc:
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(chaos_table(report))
    print()
    print(sweep_records_table(report.records, "Chaos run log"))
    if not report.ok:
        print(f"\n{len(report.failed)} chaos case(s) FAILED")
        return 1
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache doctor``: scan the result cache, quarantine, optionally purge."""
    verb = args.rest[0] if args.rest else "doctor"
    if verb != "doctor":
        print(f"unknown cache command {verb!r} (expected: doctor)", file=sys.stderr)
        return 2
    if not args.cache_dir:
        print("cache doctor requires --cache-dir", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    report = cache.doctor(purge=args.purge)
    print(
        f"cache doctor — {args.cache_dir}: {report.scanned} entries scanned, "
        f"{report.ok} ok, {len(report.quarantined)} newly quarantined, "
        f"{report.corrupt_entries} in corrupt/"
        + (f", {report.purged} purged" if args.purge else "")
    )
    for q in report.quarantined:
        print(f"  quarantined {q.key[:16]}…: {q.reason} -> {q.path}")
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    """``triage replay ARTIFACT``: replay a forensic trace artifact.

    Exit code 1 means the failure *reproduced* (abnormal machine status
    or racy contexts on replay) — the artifact is still a live repro.
    An unreadable artifact exits 2 with a one-line reason.
    """
    from repro.harness.triage import load_artifact, replay_artifact
    from repro.trace import TraceStreamCorruption

    if not args.rest or args.rest[0] != "replay":
        print("usage: repro-experiments triage replay ARTIFACT_DIR", file=sys.stderr)
        return 2
    if len(args.rest) < 2:
        print("triage replay: missing ARTIFACT_DIR", file=sys.stderr)
        return 2
    path = args.rest[1]
    try:
        meta = load_artifact(path)
        trace, detector = replay_artifact(path, config=args.tool, shrunk=args.shrunk)
    except (OSError, KeyError, ValueError, TraceStreamCorruption) as exc:
        what = "corrupt trace file: " if isinstance(exc, TraceStreamCorruption) else ""
        print(f"triage replay: cannot replay {path}: {what}{exc}", file=sys.stderr)
        return 2
    which = "shrunk repro" if args.shrunk else "full trace"
    print(
        f"triage replay — {meta['workload']} under "
        f"{args.tool or meta['tool']} ({which})"
    )
    print(
        f"  recorded: status={meta['record']['status']} "
        f"error={meta['record'].get('error', '')!r}"
    )
    if meta.get("shrink"):
        s = meta["shrink"]
        print(
            f"  shrink: {s['nopped']}/{s['candidates']} instruction(s) nopped, "
            f"seed {s['original_seed']} -> {s['seed']}, "
            f"{s['trials']} trial(s), {s['steps_spent']} VM steps"
        )
    print(
        f"  replayed: status={trace.status} steps={trace.steps} "
        f"events={len(trace.columns)} racy_contexts={detector.report.racy_contexts}"
    )
    reproduced = trace.status != "ok" or detector.report.racy_contexts > 0
    print(f"  failure {'REPRODUCED' if reproduced else 'not reproduced'}")
    return 1 if reproduced else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace record|analyze|ls|gc``: the content-addressed trace store.

    ``record`` runs one instrumented execution and persists it;
    ``analyze`` re-runs every ``--tools`` preset (default: lib, lib+spin,
    drd) over the stored recording with no VM in the loop, streaming it
    off the store the way a replay sweep cell does (recording the cell
    first if it is missing).  ``ls`` and ``gc`` inspect and reclaim
    the store.
    """
    from repro.harness.parallel import RunSpec, prewarm_traces
    from repro.trace import TraceStore, key_for_spec

    verb = args.rest[0] if args.rest else "ls"
    if verb not in ("record", "analyze", "ls", "gc"):
        print(
            f"unknown trace command {verb!r} (expected: record, analyze, ls, gc)",
            file=sys.stderr,
        )
        return 2
    if not args.trace_dir:
        print("trace commands require --trace-dir", file=sys.stderr)
        return 2
    store = TraceStore(args.trace_dir)

    if verb == "ls":
        rows = [
            [
                key[:16] + "…",
                trace.program_name,
                trace.scheduler,
                trace.seed,
                trace.status,
                len(trace.columns),
                f"{size / 1024:.1f}K",
            ]
            for key, trace, size in store.entries()
        ]
        print(
            format_table(
                ["Key", "Program", "Scheduler", "Seed", "Status", "Events", "Size"],
                rows,
                title=f"Trace store — {args.trace_dir} ({len(rows)} entries)",
            )
        )
        return 0

    if verb == "gc":
        stats = store.gc(purge_corrupt=True)
        print(
            f"trace gc — {args.trace_dir}: {stats['kept']} kept, "
            f"{stats['removed']} removed, {stats['purged']} corrupt purged"
        )
        return 0

    if len(args.rest) < 2:
        print(f"trace {verb}: missing WORKLOAD", file=sys.stderr)
        return 2
    workload = args.rest[1]
    seed = int(args.rest[2]) if len(args.rest) > 2 else 1

    if verb == "record":
        spec = RunSpec(
            workload=workload,
            config=args.tool or f"helgrind-lib-spin{args.k}",
            seed=seed,
            scheduler=args.scheduler,
            trace_mode="record",
        )
        prewarm_traces([spec], args.trace_dir)
        key = key_for_spec(spec)
        # The checksum pass plus the metadata line answer everything the
        # summary prints; the events stay compressed on disk.
        trace = store.open_stream(key)
        if trace is None:
            print(f"trace record: store round-trip failed for {key}", file=sys.stderr)
            return 1
        print(
            f"recorded {workload} seed {seed} scheduler "
            f"{trace.scheduler} -> {key[:16]}…: "
            f"status={trace.status} steps={trace.steps} "
            f"events={len(trace.columns)}"
        )
        return 0

    # analyze: fan every preset over one stored recording, VM-free.
    names = (
        [n.strip() for n in args.tools.split(",") if n.strip()]
        if args.tools
        else ["helgrind-lib", f"helgrind-lib-spin{args.k}", "drd"]
    )
    specs = [
        RunSpec(
            workload=workload,
            config=name,
            seed=seed,
            scheduler=args.scheduler,
            trace_mode="replay",
        )
        for name in names
    ]
    recorded = prewarm_traces(specs, args.trace_dir)
    rows = []
    for spec in specs:
        outcome = spec.execute(trace_dir=args.trace_dir)
        # fingerprint() is a structured tuple; digest it for display
        digest = hashlib.sha256(
            repr(outcome.report.fingerprint()).encode()
        ).hexdigest()
        rows.append(
            [
                spec.tool().name,
                outcome.result.status,
                outcome.report.racy_contexts,
                outcome.events,
                f"{outcome.run_s * 1000:.1f}ms",
                digest[:12],
            ]
        )
    print(
        format_table(
            ["Tool", "Status", "Racy ctx", "Events", "Analysis", "Fingerprint"],
            rows,
            title=(
                f"trace analyze — {workload} seed {seed} "
                f"({recorded} recording(s) made, {len(names)} preset(s) served)"
            ),
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="figures:\n"
        + "\n".join(
            f"  {key}  {FIGURES[key].title}"
            + (f" (writes {FIGURES[key].bench})" if FIGURES[key].bench else "")
            for key in FIGURE_COMMANDS
        ),
    )
    parser.add_argument("--k", type=int, default=7, help="spin window (default 7)")
    parser.add_argument("--seeds", type=int, default=5, help="PARSEC seeds (default 5)")
    parser.add_argument("--repeats", type=int, default=3, help="perf repeats")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for sweeps (0 = serial in-process)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-keyed result cache directory (default: no cache)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-run wall-clock timeout in seconds (parallel runs only)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries after a timeout/crash before a run is marked failed",
    )
    parser.add_argument(
        "--limit", type=int, default=0, help="sweep: cap the workload count"
    )
    parser.add_argument(
        "--tools",
        default=None,
        help="comma-separated tool presets (see `tools`); default per table",
    )
    parser.add_argument(
        "--tool",
        default=None,
        help="single tool preset for chaos (default helgrind-lib-spin<k>)",
    )
    bench_figures = [FIGURES[key] for key in FIGURE_COMMANDS if FIGURES[key].bench]
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "/".join(f.key for f in bench_figures)
            + ": benchmark JSON output path (default "
            + " / ".join(f.bench for f in bench_figures)
            + "; '' to skip writing)"
        ),
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "sweep/trace: content-addressed trace store directory "
            "(default <cache-dir>/traces for non-live sweeps)"
        ),
    )
    parser.add_argument(
        "--trace-mode",
        choices=["live", "record", "replay"],
        default="live",
        help=(
            "sweep: live VM runs (default), record every cell fresh, or "
            "replay detector-only from stored traces"
        ),
    )
    parser.add_argument(
        "--scheduler",
        type=_scheduler_spec,
        default=None,
        help=(
            "sweep/trace: scheduling policy spec (random, round-robin, "
            "adversarial:burst=12); default seeded-random"
        ),
    )
    parser.add_argument(
        "--journal-dir",
        default=None,
        help="sweep/chaos: fsynced checkpoint journal directory",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "sweep/chaos: skip specs already journaled (requires --journal-dir; "
            "chaos also --cache-dir)"
        ),
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="sweep/chaos: worker heartbeat interval in seconds",
    )
    parser.add_argument(
        "--poison-threshold",
        type=int,
        default=None,
        help="sweep/chaos: quarantine a spec after N worker kills/hangs",
    )
    parser.add_argument(
        "--forensics-dir",
        default=None,
        help="sweep/chaos: capture + shrink failed runs as replayable artifacts",
    )
    parser.add_argument(
        "--mem-budget",
        default=None,
        help=(
            "sweep/chaos: per-worker RSS cap (e.g. 256m, 2g); over-budget "
            "workers are preempted and retried once in degraded mode "
            "(needs --heartbeat and pooled workers)"
        ),
    )
    parser.add_argument(
        "--disk-quota",
        default=None,
        help=(
            "sweep/chaos: byte quota for the result cache and trace store "
            "(LRU eviction on overflow, cache-off degradation on ENOSPC)"
        ),
    )
    parser.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        help="sweep/chaos: stop dispatching new work after S seconds",
    )
    parser.add_argument(
        "--purge",
        action="store_true",
        help="cache doctor: delete quarantined corrupt/ entries",
    )
    parser.add_argument(
        "--shrunk",
        action="store_true",
        help="triage replay: replay the minimized repro instead of the full trace",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="serve: bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8077, help="serve: TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--work-dir",
        default=None,
        help="serve: daemon state directory (journal, cache, spool; "
        "default .repro-service)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        help="serve: bounded admission queue depth (full = 429 backpressure)",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "t1", "t2", "t3", "t4", "t5", *FIGURE_COMMANDS,
            "cases", "oracle", "sweep", "grand", "chaos", "tools", "cache",
            "triage", "trace", "serve", "all",
        ],
        help="which experiment to run",
    )
    parser.add_argument(
        "rest",
        nargs="*",
        help=(
            "subcommand arguments (cache doctor [...], triage replay ARTIFACT, "
            "trace record|analyze WORKLOAD [SEED] | ls | gc)"
        ),
    )
    args = parser.parse_args(argv)
    commands = {
        "t1": cmd_t1,
        "t2": cmd_t2,
        "t3": cmd_t3,
        "t4": cmd_t4,
        "t5": cmd_t5,
        **{key: functools.partial(cmd_figure, key) for key in FIGURE_COMMANDS},
        "cases": cmd_cases,
        "oracle": cmd_oracle,
        "sweep": cmd_sweep,
        "grand": cmd_grand,
        "chaos": cmd_chaos,
        "tools": cmd_tools,
        "cache": cmd_cache,
        "triage": cmd_triage,
        "trace": cmd_trace,
        "serve": cmd_serve,
    }
    if args.experiment == "all":
        for name in ("t1", "t2", "t3", "t4", "t5", *FIGURE_COMMANDS):
            commands[name](args)
            print()
    else:
        return commands[args.experiment](args) or 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
