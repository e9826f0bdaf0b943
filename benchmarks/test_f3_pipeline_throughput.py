"""F3 — analysis-pipeline throughput: events per analysis-second.

Sweeps the 120-case dr_test suite and the 13 PARSEC stand-ins under
``helgrind-lib`` (spin off) and ``helgrind-lib-spin7`` (spin on) at each
workload's own seed.  Throughput is events per second of *analysis
time* (detector wall-clock minus the bare interpreter baseline — the F2
accounting).  Every row's report fingerprint must equal its cell in the
golden verdict corpus (``tests/data/golden_corpus.json``): a throughput
number from a pipeline that changed verdicts would be meaningless.

Results are written to ``BENCH_pipeline.json`` (set ``REPRO_BENCH_OUT=``
to skip) and compared against the committed copy when one exists: a
>30% wall events/sec regression on the t1 suite fails the run.
``REPRO_PERF_SUBSET=N`` caps both sweeps at N workloads for the CI
perf-smoke job.
"""

import os

from repro.harness.perf import (
    load_baseline,
    measure_pipeline,
    pipeline_summary,
    write_pipeline_bench,
)
from repro.harness.registry import resolve_tool
from repro.harness.tables import format_table

from benchmarks.conftest import golden_cells, run_once

#: golden-corpus config name -> configuration
TOOLS = {name: resolve_tool(name) for name in ("helgrind-lib", "helgrind-lib-spin")}
BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_pipeline.json")


def _subset():
    raw = os.environ.get("REPRO_PERF_SUBSET", "")
    return int(raw) if raw else 0


def test_f3_pipeline_throughput(benchmark, suite120, parsec13):
    subset = _subset()
    suite = suite120[:subset] if subset else suite120
    parsec = parsec13[:subset] if subset else parsec13

    def sweep():
        # min-of-3: the analysis-time denominator is small relative to
        # interpreter wall-clock, so per-run timer noise needs squeezing
        # out before the subtraction.
        tools = list(TOOLS.values())
        return {
            "t1_suite": measure_pipeline(suite, tools, repeats=3),
            "parsec": measure_pipeline(parsec, tools, repeats=3),
        }

    groups = run_once(benchmark, sweep)

    print()
    for name, rows in groups.items():
        s = pipeline_summary(rows)
        print(
            format_table(
                ["Tool", "Workloads", "Events", "ev/s", "wall ev/s"],
                _tool_rows(rows),
                title=f"F3 {name} — pipeline throughput "
                f"({s['events_per_s']:.0f} events per analysis-second)",
            )
        )
        benchmark.extra_info[f"{name}_events_per_s"] = round(s["events_per_s"], 1)

    golden = golden_cells()
    names = {cfg.name: name for name, cfg in TOOLS.items()}
    moved = [
        (group, r.workload, r.tool)
        for group, rows in groups.items()
        for r in rows
        if r.fingerprint
        != golden[f"{'suite' if group == 't1_suite' else 'parsec'}/{r.workload}"][
            names[r.tool]
        ]["live"]["fingerprint"]
    ]
    assert not moved, f"reports differ from the golden corpus: {moved}"

    out = os.environ.get("REPRO_BENCH_OUT", None)
    if out is None:
        out = BASELINE if not subset else ""
    baseline = load_baseline(BASELINE)
    if out:
        write_pipeline_bench(out, groups)
        print(f"wrote {os.path.abspath(out)}")

    # Regression gate vs the committed baseline: >30% events/sec drop on
    # the t1 suite fails.  The baseline throughput is recomputed over
    # exactly the rows measured this run, so the subset CI job compares
    # the same workload mix as the committed full sweep.  The gate uses
    # *wall-clock* events/sec (interpreter included): analysis-time
    # throughput is the right figure of merit but its denominator is
    # sub-noise on small subsets, while wall throughput is stable and
    # still sinks when the pipeline regresses.
    committed = _baseline_throughput(baseline, "t1_suite", groups["t1_suite"])
    if committed is not None:
        current = pipeline_summary(groups["t1_suite"])["wall_events_per_s"]
        benchmark.extra_info["baseline_wall_events_per_s"] = round(committed, 1)
        benchmark.extra_info["wall_events_per_s"] = round(current, 1)
        assert current >= 0.7 * committed, (
            f"pipeline throughput regressed >30%: "
            f"{current:.0f} ev/s vs committed {committed:.0f} ev/s (wall)"
        )


def _baseline_throughput(baseline, group, measured_rows):
    """Committed wall events/sec over the measured (workload, tool) rows.

    Returns ``None`` when there is no committed baseline covering them.
    """
    if not baseline:
        return None
    wanted = {(r.workload, r.tool) for r in measured_rows}
    events = run_s = 0.0
    hits = 0
    for row in baseline.get("rows", ()):
        if (
            row.get("group") == group
            and (row["workload"], row["tool"]) in wanted
            and "run_s" in row
        ):
            events += row["events"]
            run_s += row["run_s"]
            hits += 1
    if hits < len(wanted) or run_s <= 0:
        return None
    return events / run_s


def _tool_rows(rows):
    by_tool = {}
    for r in rows:
        by_tool.setdefault(r.tool, []).append(r)
    out = []
    for tool, tool_rows in by_tool.items():
        s = pipeline_summary(tool_rows)
        out.append(
            [
                tool,
                len(tool_rows),
                s["events"],
                f"{s['events_per_s']:.0f}",
                f"{s['wall_events_per_s']:.0f}",
            ]
        )
    return out
