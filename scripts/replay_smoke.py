#!/usr/bin/env python
"""Record-once-analyze-anywhere smoke test for the trace store.

1. Runs a live serial baseline of a PARSEC subset under two presets.
2. Runs the same sweep in replay mode on 2 workers: the parent records
   each (program, seed) cell once into the trace store, workers analyze
   detector-only, and every outcome's report fingerprint — and every
   record's status, steps, events, detector words, spin loops, ad-hoc
   edges, racy contexts and faults — must equal the live baseline's.
3. Re-analyzes the *same* recordings under a second preset set (drd,
   eraser) — zero new recordings may be made — and checks those
   fingerprints and records against live runs too.
4. Asserts the store holds exactly one entry per cell (the recording is
   shared across presets) and that a cached replay re-run executes
   nothing.

Exits non-zero (with a message) on any violation.  Used by the CI
``replay-smoke`` job; safe to run locally from the repo root.
"""

from __future__ import annotations

import dataclasses

from _smoke_common import fail, parsec_names, workdir

from repro.harness.parallel import (  # noqa: E402
    ResultCache,
    run_sweep,
    sweep_specs,
)
from repro.trace import TraceStore  # noqa: E402

FIRST_TOOLS = ["helgrind-lib", "helgrind-lib-spin7"]
SECOND_TOOLS = ["drd", "eraser"]
SEEDS = [1]
LIMIT = 4


def _specs(tools, trace_mode):
    return [
        dataclasses.replace(s, trace_mode=trace_mode)
        for s in sweep_specs(parsec_names(LIMIT), tools, SEEDS)
    ]


#: the RunRecord fields a replay must reproduce from the live run
RECORD_FIELDS = (
    "status", "steps", "events", "detector_words", "spin_loops",
    "adhoc_edges", "racy_contexts", "faults",
)


def fingerprints(result):
    return {
        (o.workload.name, o.config.name, o.seed): o.report.fingerprint()
        for o in result.outcomes
    }


def records(result):
    return {
        (r.workload, r.tool, r.seed): tuple(getattr(r, f) for f in RECORD_FIELDS)
        for r in result.records
    }


def check_records(result, baseline, what):
    for key, fields in records(result).items():
        if fields != baseline[key]:
            diff = {
                f: (want, got)
                for f, want, got in zip(RECORD_FIELDS, baseline[key], fields)
                if want != got
            }
            fail(f"{what} record diverged from live for {key}: {diff}")


def check(work) -> int:
    trace_dir = work / "traces"

    # 1. live baseline, both preset sets
    live = run_sweep(_specs(FIRST_TOOLS + SECOND_TOOLS, "live"), workers=0)
    if live.failed:
        fail(f"live baseline failed: {live.failed}")
    baseline = fingerprints(live)
    baseline_records = records(live)

    # 2. replay-mode sweep on 2 workers, first preset set
    replayed = run_sweep(
        _specs(FIRST_TOOLS, "replay"), workers=2, trace_dir=trace_dir
    )
    if replayed.failed:
        fail(f"replay sweep failed: {replayed.failed}")
    for key, fp in fingerprints(replayed).items():
        if fp != baseline[key]:
            fail(f"replayed fingerprint diverged from live for {key}")
    check_records(replayed, baseline_records, "replayed")
    for o in replayed.outcomes:
        if o.trace_mode != "replay":
            fail(f"outcome {o.workload.name}/{o.config.name} not marked replay")

    store = TraceStore(trace_dir)
    if len(store) != LIMIT:
        fail(f"expected {LIMIT} recordings (one per cell), store has {len(store)}")

    # 3. second preset set over the SAME recordings: no new recordings
    second = run_sweep(
        _specs(SECOND_TOOLS, "replay"), workers=2, trace_dir=trace_dir
    )
    if second.failed:
        fail(f"second replay sweep failed: {second.failed}")
    for key, fp in fingerprints(second).items():
        if fp != baseline[key]:
            fail(f"second-preset fingerprint diverged from live for {key}")
    check_records(second, baseline_records, "second-preset")
    if len(store) != LIMIT:
        fail(f"second preset set grew the store to {len(store)} entries")

    # 4. cached replay re-run executes nothing
    cache = ResultCache(work / "cache")
    first = run_sweep(_specs(FIRST_TOOLS, "replay"), workers=0, cache=cache)
    again = run_sweep(_specs(FIRST_TOOLS, "replay"), workers=0, cache=cache)
    if again.summary().executed != 0 or again.summary().cached != len(first.records):
        fail("cached replay re-run re-executed instead of serving the cache")
    return len(baseline)


def main() -> None:
    with workdir(".replay-smoke") as work:
        cells = check(work)
    print(
        f"replay smoke OK: {cells} live cells matched across "
        f"{len(FIRST_TOOLS) + len(SECOND_TOOLS)} presets from {LIMIT} recordings"
    )


if __name__ == "__main__":
    main()
