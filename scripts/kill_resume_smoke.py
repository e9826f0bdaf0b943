#!/usr/bin/env python
"""Kill-and-resume smoke test for the sweep checkpoint journal.

1. Runs an uninterrupted serial baseline of a PARSEC sweep.
2. Launches the same sweep (2 workers, journaled, cached) in a
   subprocess and SIGKILLs the whole process group mid-flight, once the
   journal holds some — but not all — completed records.
3. Runs ``ResultCache.doctor(purge=True)`` on the killed sweep's cache
   and asserts only valid entries remain: no ``*.tmp.*`` debris from a
   put the kill interrupted, and an empty ``corrupt/``.  Every
   journaled run has its cache entry: entries are committed before
   their journal lines.
4. Reruns with ``resume=True`` and asserts the merged result is
   identical to the baseline on every stable field, with at least the
   journal lines on disk served without re-execution.
   Steps 1-4 run twice: on the PARSEC sweep (long cells) and on the
   480-cell suite sweep of Table 1, whose cells take milliseconds, so
   the kill lands while finished runs are queued for commit.
5. Bit-flips a cache entry and asserts the corruption is quarantined
   with a structured note — never raised — and that the sweep heals by
   re-executing.
6. Launches the sweep again and SIGKILLs only its parent process, after
   reading the parent's worker pids from ``/proc``: the long-lived
   workers must notice the dead parent and exit within 10 s, not
   linger as orphans.

Exits non-zero (with a message) on any violation.  Used by the CI
``resume-smoke`` job; safe to run locally from the repo root.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import time
from pathlib import Path

from _smoke_common import (
    fail,
    journal_entries,
    parsec_names,
    sigkill_group,
    sigkill_when,
    spawn_child,
    workdir,
)

from repro.harness.checkpoint import SweepJournal, spec_key, sweep_digest  # noqa: E402
from repro.harness.parallel import ResultCache, run_sweep, sweep_specs  # noqa: E402

TOOLS = ["helgrind-lib", "helgrind-lib-spin7"]
SEEDS = [1]
#: the paper's four Table 1 tools, for the suite phase
PAPER_TOOLS = ["helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7", "drd"]

#: RunRecord fields that must survive kill+resume bit-identically
#: (everything except wall-clock timings and the attempt counter)
STABLE_FIELDS = (
    "workload", "tool", "seed", "status", "steps", "events",
    "detector_words", "spin_loops", "adhoc_edges", "racy_contexts", "faults",
)


def _specs(phase: str = "parsec"):
    if phase == "suite":
        from repro.workloads import build_suite

        return sweep_specs([wl.name for wl in build_suite()], PAPER_TOOLS)
    return sweep_specs(parsec_names(), TOOLS, SEEDS)


def stable(rec):
    status = "ok" if rec.status == "cached" else rec.status
    return (status,) + tuple(
        getattr(rec, f) for f in STABLE_FIELDS if f != "status"
    )


def child_main(work: str, phase: str = "parsec") -> None:
    run_sweep(
        _specs(phase),
        workers=2,
        journal_dir=Path(work) / "journal",
        cache=ResultCache(Path(work) / "killed-cache"),
    )


def killed_cache_check(cache_dir: Path, journal_dir: Path, specs) -> None:
    report = ResultCache(cache_dir).doctor(purge=True)
    debris = sorted(p.name for p in cache_dir.glob("*.tmp.*"))
    if debris:
        fail(f"doctor --purge left temp-file debris: {debris}")
    if list((cache_dir / "corrupt").glob("*")):
        fail("doctor --purge left entries in corrupt/")
    after = ResultCache(cache_dir).doctor()
    if after.ok != after.scanned or after.quarantined:
        fail(f"invalid entries survived the purge: {after}")
    journaled = SweepJournal(
        journal_dir, sweep_digest(spec_key(s) for s in specs)
    ).load()
    uncached = [
        key for key, rec in journaled.items()
        if rec.status == "ok" and not ResultCache(cache_dir).has(key)
    ]
    if uncached:
        fail(f"{len(uncached)} journaled run(s) have no cache entry")
    print(
        f"killed cache OK: {report.scanned} entries scanned, "
        f"{len(report.quarantined)} quarantined and purged, no temp debris, "
        f"every journaled run cached"
    )


def kill_resume_check(work: Path, phase: str) -> None:
    work = work / phase
    journal_dir = work / "journal"
    specs = _specs(phase)
    print(f"{phase} baseline: {len(specs)} specs, serial ...")
    baseline = run_sweep(specs, workers=0)

    print(f"launching journaled 2-worker {phase} sweep to be SIGKILLed ...")
    proc = spawn_child(__file__, str(work), phase)
    # The suite's millisecond cells finish in bursts: let a quarter of
    # them commit, so the kill lands with the sweep in full flow.
    pre_kill = sigkill_when(
        proc,
        lambda: journal_entries(journal_dir),
        min_count=len(specs) // 4 if phase == "suite" else 2,
        what=f"child {phase} sweep",
    )
    if pre_kill >= len(specs):
        fail("sweep completed before the kill landed; nothing to resume")
    print(f"killed with {pre_kill}/{len(specs)} records journaled")
    killed_cache_check(work / "killed-cache", journal_dir, specs)

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


def _proc_stat(pid: int):
    """``(state, ppid)`` of a live process from ``/proc``, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def _children(pid: int):
    return sorted(
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and (_proc_stat(int(entry)) or ("", 0))[1] == pid
    )


def _running(pid: int) -> bool:
    """Alive and not a zombie (an exited orphan may await its reaper)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def orphan_check(work: Path) -> None:
    """SIGKILL only the sweep parent; its workers must exit on their own."""
    sweep_dir = work / "orphan"
    proc = spawn_child(__file__, str(sweep_dir))
    try:
        deadline = time.monotonic() + 120
        workers = []
        while len(workers) < 2 or journal_entries(sweep_dir / "journal") < 1:
            if proc.poll() is not None:
                fail("orphan-check sweep finished before it could be killed")
            if time.monotonic() > deadline:
                fail("orphan-check sweep started no workers in 120s")
            time.sleep(0.01)
            workers = _children(proc.pid)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        if orphans:
            fail(f"worker(s) {orphans} outlived their SIGKILLed parent by 10s")
    finally:
        # Nothing is left by now unless a check failed.
        with contextlib.suppress(ProcessLookupError):
            sigkill_group(proc)
    print(f"orphan check OK: all {len(workers)} workers exited after the parent died")


def main() -> None:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        child_main(*sys.argv[2:4])
        return
    with workdir(".repro-resume-smoke") as work:
        kill_resume_check(work, "parsec")
        kill_resume_check(work, "suite")
        cache_corruption_check(work)
        orphan_check(work)
    print("kill-resume smoke: all checks passed")


if __name__ == "__main__":
    main()
