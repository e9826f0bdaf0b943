"""F7 — streaming-decode peak memory: bounded-memory vs in-memory analysis.

Records the largest PARSEC stand-in traces once each, then analyzes
every recording two ways in fresh interpreters with
:func:`repro.trace.analyze_trace`: materialized (``TraceStore.get``, a
full ``Trace``) and streamed (``TraceStore.open_stream``, a
:class:`~repro.trace.TraceStream` decoded in bounded chunks).  The
probe children report the peak traced allocation of the store-read +
analysis region (``tracemalloc``; byte-precise and deterministic, where
``ru_maxrss`` carries kilobyte granularity and import-transient slack)
plus whole-process peak RSS as supporting data.

The acceptance bar is a >=4x peak-memory reduction on *every* measured
row — these are exactly the traces where decode strategy moves peak
memory, so the bar holds on subsets too — with the streamed report
fingerprint byte-identical to the in-memory one on every row.  Results
are written to ``BENCH_streaming.json`` (set ``REPRO_BENCH_OUT=`` to
skip) and compared against the committed copy when one exists: a >30%
growth in streamed peak allocation fails the run.

``REPRO_PERF_SUBSET=N`` caps the measurement at N workloads for the CI
perf-smoke job (largest first).
"""

import os

from repro.harness.perf import (
    F7_WORKLOADS,
    load_streaming_baseline,
    measure_streaming,
    streaming_summary,
    write_streaming_bench,
)
from repro.harness.tables import format_table

from benchmarks.conftest import run_once

BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_streaming.json")

TOOL = "helgrind-lib-spin7"


def _subset():
    raw = os.environ.get("REPRO_PERF_SUBSET", "")
    return int(raw) if raw else 0


def test_f7_streaming_memory(benchmark, parsec13):
    subset = _subset()
    names = F7_WORKLOADS[:subset] if subset else F7_WORKLOADS
    by_name = {wl.name: wl for wl in parsec13}
    workloads = [by_name[n] for n in names]

    def sweep():
        return {"parsec": measure_streaming(workloads, TOOL, repeats=2)}

    groups = run_once(benchmark, sweep)
    rows = groups["parsec"]
    s = streaming_summary(rows)

    print()
    print(
        format_table(
            ["Workload", "Events", "in-mem peak", "stream peak", "reduction"],
            [
                [
                    r.workload,
                    r.events,
                    f"{r.inmem_peak_alloc >> 10}KB",
                    f"{r.stream_peak_alloc >> 10}KB",
                    f"{r.reduction:.1f}x",
                ]
                for r in rows
            ],
            title=f"F7 — streaming-decode peak memory "
            f"(worst row {s['reduction_min']:.1f}x, "
            f"aggregate {s['reduction_aggregate']:.1f}x)",
        )
    )
    benchmark.extra_info["reduction_min"] = round(s["reduction_min"], 3)
    benchmark.extra_info["stream_peak_alloc"] = s["stream_peak_alloc"]

    # Streaming must be invisible in the verdicts — every row.
    mismatched = [r.workload for r in rows if not r.fingerprints_match]
    assert not mismatched, f"streamed report diverged from in-memory: {mismatched}"

    # Acceptance bar: >=4x peak-memory reduction on every measured trace.
    # tracemalloc peaks are deterministic, so the bar holds on subsets too.
    assert s["reduction_min"] >= 4.0, (
        f"streaming peak-memory reduction {s['reduction_min']:.2f}x "
        f"below the 4x acceptance bar"
    )

    out = os.environ.get("REPRO_BENCH_OUT", None)
    if out is None:
        out = BASELINE if not subset else ""
    baseline = load_streaming_baseline(BASELINE)
    if out:
        write_streaming_bench(out, groups)
        print(f"wrote {os.path.abspath(out)}")

    # Regression gate vs the committed baseline: streamed peak allocation
    # growing >30% on the measured rows fails (the whole point of the
    # streaming path is bounded memory — silent growth is a regression).
    committed = _baseline_stream_peak(baseline, "parsec", rows)
    if committed is not None:
        current = sum(r.stream_peak_alloc for r in rows)
        benchmark.extra_info["baseline_stream_peak_alloc"] = committed
        assert current <= 1.3 * committed, (
            f"streamed peak allocation regressed >30%: {current} bytes "
            f"vs committed {committed} bytes"
        )


def _baseline_stream_peak(baseline, group, measured_rows):
    """Committed streamed peak allocation over the measured rows.

    Returns ``None`` when the committed baseline doesn't cover them.
    """
    if not baseline:
        return None
    wanted = {(r.workload, r.tool) for r in measured_rows}
    total = 0
    hits = 0
    for row in baseline.get("rows", ()):
        if row.get("group") == group and (row["workload"], row["tool"]) in wanted:
            total += row["stream_peak_alloc"]
            hits += 1
    if hits < len(wanted) or total <= 0:
        return None
    return total
