"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from repro.harness.parallel import RunRecord, SweepSummary


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned text table (monospace, pipe-separated)."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.1f}"
    return str(value)


def suite_table(scores: Sequence[Mapping[str, object]], title: str) -> str:
    """Render Table-1/2 style suite scores."""
    headers = ["Tool", "False alarms", "Missed races", "Failed", "Correct"]
    rows = [
        [
            s["tool"],
            s["false_alarms"],
            s["missed_races"],
            s["failed"],
            s["correct"],
        ]
        for s in scores
    ]
    return format_table(headers, rows, title=title)


def contexts_table(
    data: Mapping[str, Mapping[str, float]],
    tool_order: Sequence[str],
    title: str,
    meta: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> str:
    """Render PARSEC racy-context tables (programs x tools)."""
    headers = ["Program"]
    if meta:
        headers += ["Model", "Instrs"]
    headers += list(tool_order)
    rows: List[List[object]] = []
    for program, per_tool in data.items():
        row: List[object] = [program]
        if meta:
            m = meta.get(program, {})
            row += [m.get("model", "?"), m.get("instructions", "?")]
        row += [per_tool.get(t, "-") for t in tool_order]
        rows.append(row)
    return format_table(headers, rows, title=title)


def sweep_records_table(records: Sequence["RunRecord"], title: str) -> str:
    """Render the per-run observability log of a parallel sweep.

    The RSS column only appears when at least one record carries a
    sampled peak (heartbeats enabled) — ungoverned serial sweeps keep
    the compact legacy layout.
    """
    show_rss = any(r.peak_rss for r in records)
    headers = [
        "Workload", "Tool", "Seed", "Status", "Att", "Run s", "Instr s",
        "Steps/s", "Events/s", "Det words", "Spins", "Adhoc", "Contexts",
        "Faults",
    ]
    if show_rss:
        headers.append("Peak RSS")
    rows = []
    for r in records:
        row = [
            r.workload,
            r.tool,
            r.seed,
            r.status + ("*" if r.degraded else ""),
            r.attempts,
            f"{r.duration_s:.3f}",
            f"{r.instrument_s:.3f}",
            f"{r.steps_per_s:,.0f}",
            f"{r.events_per_s:,.0f}",
            r.detector_words,
            r.spin_loops,
            r.adhoc_edges,
            r.racy_contexts,
            r.faults,
        ]
        if show_rss:
            row.append(f"{r.peak_rss >> 20}M" if r.peak_rss else "-")
        rows.append(row)
    note = "\n(* = degraded/streaming attempt)" if any(r.degraded for r in records) else ""
    return format_table(headers, rows, title=title) + note


def sweep_summary_table(summary: "SweepSummary", title: str = "Sweep summary") -> str:
    """Render a sweep's aggregate observability summary."""
    rows = [
        ["runs", summary.runs],
        ["executed", summary.executed],
        ["cached", summary.cached],
        ["failed", summary.failed],
        ["poisoned", summary.poisoned],
        ["retried", summary.retried],
        ["wall clock", f"{summary.wall_s:.3f} s"],
        ["serialized run time", f"{summary.run_s:.3f} s"],
        ["instrumentation time", f"{summary.instrument_s:.3f} s"],
        ["effective parallelism", f"{summary.speedup:.2f}x"],
        ["VM steps", f"{summary.steps:,}"],
        ["detector events", f"{summary.events:,}"],
        ["aggregate steps/s", f"{summary.steps_per_s:,.0f}"],
        ["aggregate events/s", f"{summary.events_per_s:,.0f}"],
        ["detector words", f"{summary.detector_words:,}"],
        ["spin loops found", summary.spin_loops],
        ["ad-hoc hb edges", summary.adhoc_edges],
        ["racy contexts", summary.racy_contexts],
        ["faults injected", summary.faults],
    ]
    if summary.peak_rss:
        rows.append(["peak worker RSS", f"{summary.peak_rss >> 20} MiB"])
    if summary.degraded:
        rows.append(["degraded (streaming) runs", summary.degraded])
    if summary.oom_preempted:
        rows.append(["oom preemptions", summary.oom_preempted])
    if summary.wall_budget_stopped:
        rows.append(["wall-budget stopped", summary.wall_budget_stopped])
    return format_table(["Metric", "Value"], rows, title=title)
