#!/usr/bin/env python
"""Kill-and-resume smoke test for the sweep checkpoint journal.

1. Runs an uninterrupted serial baseline of a PARSEC sweep.
2. Launches the same sweep (2 workers, journaled, cached) in a
   subprocess and SIGKILLs the whole process group mid-flight, once the
   journal holds some — but not all — completed records.
3. Runs ``ResultCache.doctor(purge=True)`` on the killed sweep's cache
   and asserts only valid entries remain: no ``*.tmp.*`` debris from a
   put the kill interrupted, and an empty ``corrupt/``.
4. Reruns with ``resume=True`` and asserts the merged result is
   identical to the baseline on every stable field, with at least the
   pre-kill journaled fraction served without re-execution.
5. Bit-flips a cache entry and asserts the corruption is quarantined
   with a structured note — never raised — and that the sweep heals by
   re-executing.

Exits non-zero (with a message) on any violation.  Used by the CI
``resume-smoke`` job; safe to run locally from the repo root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from _smoke_common import (
    fail,
    journal_entries,
    parsec_names,
    sigkill_when,
    spawn_child,
    workdir,
)

from repro.harness.parallel import ResultCache, run_sweep, sweep_specs  # noqa: E402

TOOLS = ["helgrind-lib", "helgrind-lib-spin7"]
SEEDS = [1]

#: RunRecord fields that must survive kill+resume bit-identically
#: (everything except wall-clock timings and the attempt counter)
STABLE_FIELDS = (
    "workload", "tool", "seed", "status", "steps", "events",
    "detector_words", "spin_loops", "adhoc_edges", "racy_contexts", "faults",
)


def _specs():
    return sweep_specs(parsec_names(), TOOLS, SEEDS)


def stable(rec):
    status = "ok" if rec.status == "cached" else rec.status
    return (status,) + tuple(
        getattr(rec, f) for f in STABLE_FIELDS if f != "status"
    )


def child_main(work: str) -> None:
    run_sweep(
        _specs(),
        workers=2,
        journal_dir=Path(work) / "journal",
        cache=ResultCache(Path(work) / "killed-cache"),
    )


def killed_cache_check(cache_dir: Path) -> None:
    report = ResultCache(cache_dir).doctor(purge=True)
    debris = sorted(p.name for p in cache_dir.glob("*.tmp.*"))
    if debris:
        fail(f"doctor --purge left temp-file debris: {debris}")
    if list((cache_dir / "corrupt").glob("*")):
        fail("doctor --purge left entries in corrupt/")
    after = ResultCache(cache_dir).doctor()
    if after.ok != after.scanned or after.quarantined:
        fail(f"invalid entries survived the purge: {after}")
    print(
        f"killed cache OK: {report.scanned} entries scanned, "
        f"{len(report.quarantined)} quarantined and purged, no temp debris"
    )


def kill_resume_check(work: Path) -> None:
    journal_dir = work / "journal"
    specs = _specs()
    print(f"baseline: {len(specs)} specs, serial ...")
    baseline = run_sweep(specs, workers=0)

    print("launching journaled 2-worker sweep to be SIGKILLed ...")
    proc = spawn_child(__file__, str(work))
    pre_kill = sigkill_when(
        proc,
        lambda: journal_entries(journal_dir),
        min_count=2,
        what="child sweep",
    )
    if pre_kill >= len(specs):
        fail("sweep completed before the kill landed; nothing to resume")
    print(f"killed with {pre_kill}/{len(specs)} records journaled")
    killed_cache_check(work / "killed-cache")

    resumed = run_sweep(specs, workers=2, journal_dir=journal_dir, resume=True)
    if resumed.resumed < pre_kill:
        fail(
            f"only {resumed.resumed} of {pre_kill} journaled runs were "
            "served from the checkpoint"
        )
    got = [stable(r) for r in resumed.records]
    want = [stable(r) for r in baseline.records]
    if got != want:
        for g, w in zip(got, want):
            if g != w:
                fail(f"resumed record diverged from baseline: {g} != {w}")
        fail(f"record count mismatch: {len(got)} != {len(want)}")
    print(
        f"resume OK: {resumed.resumed} served from journal, "
        f"{len(specs) - resumed.resumed} re-executed, records identical"
    )


def cache_corruption_check(work: Path) -> None:
    cache_dir = work / "cache"
    cache = ResultCache(cache_dir)
    specs = _specs()[:4]
    run_sweep(specs, workers=0, cache=cache)
    entries = sorted(cache_dir.glob("*.pkl"))
    if not entries:
        fail("cache primed no entries")
    blob = bytearray(entries[0].read_bytes())
    blob[-1] ^= 0xFF  # payload bit-flip: framing intact, checksum wrong
    entries[0].write_bytes(bytes(blob))

    result = run_sweep(specs, workers=0, cache=ResultCache(cache_dir))
    if any(r.failed for r in result.records):
        fail("sweep over a corrupted cache reported failures")
    notes = list((cache_dir / "corrupt").glob("*.note.json"))
    if len(notes) != 1:
        fail(f"expected 1 quarantine note, found {len(notes)}")
    note = json.loads(notes[0].read_text())
    if note.get("reason") != "checksum-mismatch":
        fail(f"unexpected quarantine reason: {note}")
    report = ResultCache(cache_dir).doctor()
    if report.corrupt_entries != 1:
        fail(f"doctor saw {report.corrupt_entries} corrupt entries, expected 1")
    print(
        f"cache OK: corruption quarantined ({note['reason']}), sweep healed, "
        f"doctor scanned {report.scanned} with {report.ok} ok"
    )


def main() -> None:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        child_main(sys.argv[2])
        return
    with workdir(".repro-resume-smoke") as work:
        kill_resume_check(work)
        cache_corruption_check(work)
    print("kill-resume smoke: all checks passed")


if __name__ == "__main__":
    main()
