"""The paper's figures and the reproduction's own, as config rows.

Each :class:`~repro.harness.perf.Figure` names its workloads and tools,
the run kinds it needs and its repeats, its summary as ratios of field
sums, its correctness oracle and acceptance bar, and its committed
``BENCH_*.json`` with the gate metric and direction.  The measurement,
summary, bench-file and gate code they all share is in
:mod:`repro.harness.perf`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.harness.perf import Figure, Ratio

#: rows whose two analysis paths produced different report fingerprints
_MISMATCHES = {"mismatches": Ratio("#-fingerprints_match")}

_MEMORY = Ratio("spin_words+spin_imap_words", "lib_words+lib_imap_words", how="mean")

#: F2 (slide 32): VM + detector wall-clock, lib vs lib+spin(k), each
#: charged for its instrumentation phase (the spin feature's static
#: analysis runs before execution), with the bare machine as baseline
F2 = Figure(
    "f2",
    "F2 — detector runtime (spin feature off vs on, incl. instrumentation)",
    kinds=("bare", "live"),
    tools=("helgrind-lib", "helgrind-lib-spin{k}"),
    variants=("lib", "spin"),
    rename={"run_s": "s"},
    repeats=3,
    columns=("workload", "bare_s", "lib_s", "spin_s", "spin_instr_s", "mean_runtime_overhead"),
    ratios={
        "mean_runtime_overhead": Ratio("spin_s+spin_instr_s", "lib_s+lib_instr_s", how="mean"),
        "mean_memory_overhead": _MEMORY,
        "max_memory_overhead": dataclasses.replace(_MEMORY, how="max"),
        "min_lib_slowdown": Ratio("lib_s", "bare_s", how="min"),
    },
    summary=("mean_runtime_overhead",),
    # slight overhead on average, and detection itself does work
    bar=(("mean_runtime_overhead", "<", 2.0), ("min_lib_slowdown", ">=", 0.5)),
)

#: F1 (slide 31): the same cells.  Detector state (shadow memory, vector
#: clocks, locksets, reports) plus marker tables and ad-hoc engine state,
#: in words; deterministic, so one repeat suffices.
F1 = dataclasses.replace(
    F2,
    key="f1",
    title="F1 — detector memory consumption (spin feature off vs on)",
    repeats=1,
    columns=("workload", "lib_words", "spin_words", "spin_imap_words", "mean_memory_overhead"),
    summary=("mean_memory_overhead",),
    # never doubles, and within ~50% on average: suppression removes
    # shadow/warning state while marker tables add some back
    bar=(
        ("mean_memory_overhead", ">", 0.5),
        ("mean_memory_overhead", "<", 1.5),
        ("max_memory_overhead", "<", 2.0),
    ),
)

#: F3: events per *analysis* second — with-detector wall-clock minus the
#: bare interpreter's (the F2 accounting), floored at 2% of it (below
#: timer resolution).  The gate reads wall events/s: the difference is
#: sub-noise on small subsets, wall throughput is stable and still sinks.
F3 = Figure(
    "f3",
    "F3 — analysis-pipeline throughput (events per analysis-second)",
    groups=(("t1_suite", "suite"), ("parsec", "parsec")),
    kinds=("bare", "live"),
    tools=("helgrind-lib", "helgrind-lib-spin{k}"),
    repeats=3,
    columns=("workload", "tool", "spin", "events", "run_s", "bare_s", "events_per_s",
             "words", "racy_contexts"),
    ratios={
        "analysis_s": Ratio("run_s-bare_s"),
        "events_per_s": Ratio("events", "run_s-bare_s", floor=1e-9, floor_rel=0.02),
        "wall_events_per_s": Ratio("events", "run_s"),
    },
    summary=("events", "analysis_s", "events_per_s", "wall_events_per_s", "words"),
    golden="fingerprint",
    bench="BENCH_pipeline.json",
    gate=("t1_suite", "wall_events_per_s", 0.7),
)

#: F4: bare steps/s on the threaded-code interpreter; the one-time decode
#: (cold cache) is reported apart, not charged to ``run_s``
F4 = Figure(
    "f4",
    "F4 — interpreter throughput (steps per second, no detector)",
    kinds=("bare",),
    tools=(),
    rename={"bare_s": "run_s"},
    repeats=5,
    columns=("workload", "steps", "run_s", "decode_s", "steps_per_s"),
    ratios={"steps_per_s": Ratio("steps", "run_s")},
    summary=("steps", "run_s", "decode_s", "steps_per_s"),
    golden="state",
    bench="BENCH_interpreter.json",
    key_fields=("workload",),
    gate=("parsec", "steps_per_s", 0.7),
)

#: F6: each workload recorded once (``record_s``, one-time per cell), then
#: every tool analyzed live and from the recording; both sides share the
#: live run's event count
F6 = Figure(
    "f6",
    "F6 — replay throughput (stored-trace analysis vs live)",
    kinds=("live", "replay"),
    tools=("helgrind-lib", "helgrind-lib-spin{k}", "drd"),
    rename={"run_s": "live_s"},
    repeats=3,
    columns=("workload", "tool", "spin", "events", "record_s", "live_s", "replay_s",
             "live_events_per_s", "replay_events_per_s", "speedup", "fingerprints_match"),
    ratios={
        "record_s": Ratio("record_s|workload"),
        "live_events_per_s": Ratio("events", "live_s"),
        "replay_events_per_s": Ratio("events", "replay_s"),
        "speedup": Ratio("live_s", "replay_s"),
        "configs_per_recording": Ratio("#", "#|workload"),
        **_MISMATCHES,
    },
    summary=("events", "live_s", "replay_s", "record_s", "live_events_per_s",
             "replay_events_per_s", "speedup", "configs_per_recording", "mismatches"),
    oracle=(("mismatches", "==", 0),),
    bar=(("speedup", ">=", 5.0), ("configs_per_recording", ">=", 3)),
    bench="BENCH_replay.json",
    gate=("parsec", "replay_events_per_s", 0.7),
)

#: a streamed pass can hold arbitrarily little; flooring its peak at
#: 64 KiB keeps the reduction finite and conservative
_REDUCTION = Ratio("inmem_peak_alloc", "stream_peak_alloc", floor=64 << 10)

#: F7: peak traced allocation (tracemalloc: byte-precise, deterministic)
#: of store read + analysis, materialized vs streamed, on the four
#: largest recordings; whole-process peak RSS is supporting data only
F7 = Figure(
    "f7",
    "F7 — streaming-decode peak memory (trace analysis RSS)",
    groups=(("parsec", "raytrace,facesim,vips,streamcluster"),),
    kinds=("probe",),
    tools=("helgrind-lib-spin{k}",),
    repeats=2,
    columns=("workload", "tool", "events", "inmem_peak_alloc", "stream_peak_alloc",
             "inmem_total_peak", "stream_total_peak", "inmem_s", "stream_s", "reduction",
             "fingerprints_match"),
    ratios={
        "reduction": _REDUCTION,
        "reduction_aggregate": _REDUCTION,
        "reduction_min": dataclasses.replace(_REDUCTION, how="min"),
        **_MISMATCHES,
    },
    summary=("events", "inmem_peak_alloc", "stream_peak_alloc", "reduction_min",
             "reduction_aggregate", "mismatches"),
    oracle=(("mismatches", "==", 0),),
    bar=(("reduction_min", ">=", 4.0),),
    bar_on_subsets=True,  # tracemalloc peaks are deterministic
    bench="BENCH_streaming.json",
    gate=("parsec", "stream_peak_alloc", 1.3),
)

_PATHS = ("cold", "cached", "degraded")

#: F9: a real daemon driven over HTTP by concurrent clients.  The gate is
#: cold p50 latency — per-request cost compares across subset sizes,
#: aggregate requests/s does not — bounded at 1/0.7x, the latency image
#: of a 30% throughput drop.
F9 = Figure(
    "f9",
    "F9 — service load (requests/s and latency: cold, cached, degraded)",
    groups=(("service", "locks_mutex_counter_t2"),),
    kinds=("service",),
    tools=("helgrind-lib-spin{k}",),
    repeats=1,
    columns=("path", "requests", "clients", "workers", "total_s", "requests_per_s",
             "p50_ms", "p99_ms", "errors", "fingerprints_match"),
    ratios={
        "requests_per_s": Ratio("requests", "total_s"),
        **{f"{p}_requests_per_s": Ratio(f"requests@path={p}", f"total_s@path={p}")
           for p in _PATHS},
        **{f"{p}_{ms}": Ratio(f"{ms}@path={p}")
           for p in _PATHS for ms in ("p50_ms", "p99_ms")},
        "cached_speedup_p50": Ratio("p50_ms@path=cold", "p50_ms@path=cached", floor=1e-9),
        "cached_speedup_p99": Ratio("p99_ms@path=cold", "p99_ms@path=cached", floor=1e-9),
        **_MISMATCHES,
    },
    summary=("requests", "errors", "mismatches",
             *(f"{p}_{m}" for p in _PATHS for m in ("requests_per_s", "p50_ms", "p99_ms")),
             "cached_speedup_p50", "cached_speedup_p99"),
    oracle=(("errors", "==", 0), ("mismatches", "==", 0)),
    # the verdict index must short-circuit recomputation
    bar=(("cached_speedup_p99", ">=", 10.0),),
    bench="BENCH_service.json",
    key_fields=("path", "workers"),
    gate=("service", "cold_p50_ms", 1 / 0.7),
)

FIGURES: Dict[str, Figure] = {f.key: f for f in (F1, F2, F3, F4, F6, F7, F9)}
