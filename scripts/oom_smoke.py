#!/usr/bin/env python
"""Memory-budget smoke test for the resource-governed sweep runner.

1. Runs an unbudgeted serial baseline of a small PARSEC sweep and a
   budget-free 2-worker pass to measure the workers' natural peak RSS.
2. Reruns journaled under a memory budget sized so that the ballast
   knob (``REPRO_RSS_BALLAST_MB``) pushes every first attempt over the
   cap: each worker must be preempted and retried once in degraded
   mode (which drops the ballast), the sweep must complete with zero
   crashes and zero failed records, and every record must match the
   baseline on all stable fields (a degraded retry is invisible in the
   verdicts).
3. Resumes the same journal and asserts every record is served from the
   checkpoint without re-execution.
4. Reruns with the ``!`` ballast form (over budget on degraded retries
   too) and asserts the runs land as structured ``poison`` records —
   skipped, never failed, never a crashed sweep.

Exits non-zero (with a message) on any violation.  Used by the CI
``oom-smoke`` job; safe to run locally from the repo root.
"""

from __future__ import annotations

import os
from pathlib import Path

from _smoke_common import fail, parsec_names, workdir

from repro.harness.parallel import run_sweep, sweep_specs  # noqa: E402
from repro.harness.resources import BALLAST_ENV, ResourceBudget  # noqa: E402

TOOLS = ["helgrind-lib-spin7"]
SEEDS = [1]
BALLAST_MB = 200
HEADROOM = 100 << 20  # budget sits this far above the natural peak

#: RunRecord fields that must be identical between the budgeted
#: (degraded) run and the unbudgeted baseline — everything
#: except wall-clock timings and the governance bookkeeping itself.
STABLE_FIELDS = (
    "workload", "tool", "seed", "steps", "events",
    "detector_words", "spin_loops", "adhoc_edges", "racy_contexts", "faults",
)

#: Governed sweeps need a short heartbeat (RSS samples) and an explicit
#: hung-after bound: the default (ten heartbeats, 0.2 s) would misread a
#: worker's startup and ballast allocation as a hang.
GOVERNED = dict(heartbeat_s=0.02, hung_after_s=10, timeout_s=120)


def _specs():
    return sweep_specs(parsec_names(4), TOOLS, SEEDS)


def stable(rec):
    return tuple(getattr(rec, f) for f in STABLE_FIELDS)


def measure_natural_peak(work: Path):
    specs = _specs()
    print(f"baseline: {len(specs)} specs, serial, unbudgeted ...")
    baseline = run_sweep(specs, workers=0)
    if any(r.failed for r in baseline.records):
        fail("unbudgeted baseline had failures; smoke preconditions broken")

    print("measuring natural worker peak RSS (2 workers, no budget) ...")
    free = run_sweep(
        specs, workers=2, trace_dir=work / "traces-free", **GOVERNED
    )
    peak = max(r.peak_rss for r in free.records)
    if peak <= 0:
        fail("heartbeats reported no RSS; cannot size a budget")
    print(f"natural peak RSS: {peak >> 20} MiB")
    return baseline, peak


def budget_degrade_check(work: Path, baseline, natural_peak: int) -> None:
    specs = _specs()
    budget = ResourceBudget(max_rss_bytes=natural_peak + HEADROOM)
    journal_dir = work / "journal"
    os.environ[BALLAST_ENV] = str(BALLAST_MB)  # first attempts blow the cap
    try:
        print(
            f"budgeted sweep: cap {budget.max_rss_bytes >> 20} MiB, "
            f"ballast {BALLAST_MB} MiB, 2 workers, journaled ..."
        )
        governed = run_sweep(
            specs,
            workers=2,
            journal_dir=journal_dir,
            trace_dir=work / "traces",
            budget=budget,
            **GOVERNED,
        )
    finally:
        del os.environ[BALLAST_ENV]

    summary = governed.summary()
    if any(r.failed for r in governed.records):
        fail("budgeted sweep reported failed records; expected degraded retries")
    if summary.oom_preempted < len(specs):
        fail(
            f"expected every first attempt preempted "
            f"({len(specs)}), got {summary.oom_preempted}"
        )
    if summary.degraded < len(specs):
        fail(
            f"expected every run to complete degraded "
            f"({len(specs)}), got {summary.degraded}"
        )
    if summary.peak_rss <= budget.max_rss_bytes:
        fail("preempted sweep never saw an over-budget RSS sample")
    got = [stable(r) for r in governed.records]
    want = [stable(r) for r in baseline.records]
    if got != want:
        for g, w in zip(got, want):
            if g != w:
                fail(f"degraded record diverged from baseline: {g} != {w}")
        fail(f"record count mismatch: {len(got)} != {len(want)}")
    print(
        f"degrade OK: {summary.oom_preempted} preemptions, "
        f"{summary.degraded} degraded retries, 0 failures, "
        f"records identical to the unbudgeted baseline"
    )

    resumed = run_sweep(
        specs,
        workers=2,
        journal_dir=journal_dir,
        resume=True,
        trace_dir=work / "traces",
        budget=budget,
        **GOVERNED,
    )
    if resumed.resumed < len(specs):
        fail(
            f"resume re-executed work: {resumed.resumed}/{len(specs)} "
            "served from the journal"
        )
    if [stable(r) for r in resumed.records] != want:
        fail("resumed records diverged from the baseline")
    print(f"resume OK: {resumed.resumed}/{len(specs)} served from journal")


def poison_check(work: Path, natural_peak: int) -> None:
    specs = _specs()[:2]
    budget = ResourceBudget(max_rss_bytes=natural_peak + HEADROOM)
    os.environ[BALLAST_ENV] = f"{BALLAST_MB}!"  # degraded retries blow it too
    try:
        print("poison sweep: ballast persists through degraded retries ...")
        governed = run_sweep(
            specs,
            workers=2,
            trace_dir=work / "traces-poison",
            budget=budget,
            **GOVERNED,
        )
    finally:
        del os.environ[BALLAST_ENV]

    statuses = [r.status for r in governed.records]
    if statuses != ["poison"] * len(specs):
        fail(f"expected poison records, got {statuses}")
    if any(r.failed for r in governed.records):
        fail("poison records must count as skipped, not failed")
    if not all("oom-preempted" in r.error for r in governed.records):
        fail("poison records carry no structured preemption error")
    print(
        f"poison OK: {len(specs)} unsalvageable runs quarantined "
        f"as structured skips, sweep completed"
    )


def main() -> None:
    with workdir(".repro-oom-smoke") as work:
        baseline, natural_peak = measure_natural_peak(work)
        budget_degrade_check(work, baseline, natural_peak)
        poison_check(work, natural_peak)
    print("oom smoke: all checks passed")


if __name__ == "__main__":
    main()
