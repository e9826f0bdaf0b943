"""Epoch fast-path internals: lazy write frames and the per-thread read cache."""

from repro.detectors.base import WriteRecord
from repro.detectors.hybrid import HybridAlgorithm
from repro.detectors.reports import Report
from repro.detectors.vectorclock import ThreadClock


def _algo():
    return HybridAlgorithm(report=Report(tool="t", granularity="symbol"))


def test_write_record_lazy_vc_matches_snapshot():
    t = ThreadClock(3)
    t.tick()
    t.tick()
    other = ThreadClock(1)
    other.tick()
    t.join(other.snapshot())
    rec = WriteRecord(t.tid, t.clock, 0, ("f", "b", 0), False, frozenset(), t.frame())
    assert rec.vc == t.snapshot()


def test_write_record_update_in_place():
    t = ThreadClock(0)
    rec = WriteRecord(0, t.clock, 1, ("f", "b", 0), False, frozenset(), t.frame())
    before = id(rec)
    t.tick()
    rec.update(t.clock, 2, ("f", "b", 1), False, frozenset(), t.frame())
    assert id(rec) == before
    assert rec.clock == t.clock
    assert rec.value == 2
    assert rec.vc == t.snapshot()


def test_frame_survives_tick_but_not_join():
    t = ThreadClock(0)
    f1 = t.frame()
    t.tick()
    assert t.frame() is f1  # tick only moves own clock; frame is others'
    other = ThreadClock(1)
    other.tick()
    t.join(other.snapshot())
    f2 = t.frame()
    assert f2 is not f1
    assert f2[1] == other.clock


def test_version_bumps_on_tick_and_effective_join():
    t = ThreadClock(0)
    v0 = t.version
    t.tick()
    assert t.version > v0
    other = ThreadClock(1)
    other.tick()
    v1 = t.version
    t.join(other.snapshot())
    assert t.version > v1
    v2 = t.version
    t.join(other.snapshot())  # no-op join: nothing new to learn
    assert t.version == v2


def test_repeated_same_thread_reads_hit_cache():
    algo = _algo()
    loc = ("f", "b", 0)
    algo.read(0, 100, loc, atomic=False)
    cell = algo.shadow[100]
    record = cell.reads[0]
    assert record.version == algo.thread(0).version
    before = (record.clock, record.loc, record.atomic, record.lockset, record.version)
    algo.read(0, 100, loc, atomic=False)
    # the fast path returned before touching the read record
    assert cell.reads[0] is record
    assert (record.clock, record.loc, record.atomic, record.lockset, record.version) == before


def test_cache_invalidated_by_write_even_in_place():
    algo = _algo()
    loc = ("f", "b", 0)
    algo.write(0, 100, 1, loc, atomic=False)
    algo.read(0, 100, loc, atomic=False)
    assert 0 in algo.shadow[100].reads
    # same-thread write updates the write record *in place* — identity
    # alone could not reveal it, so the write must drop the read records
    algo.write(0, 100, 2, loc, atomic=False)
    assert not algo.shadow[100].reads


def test_cache_invalidated_by_clock_movement():
    algo = _algo()
    loc = ("f", "b", 0)
    algo.read(0, 100, loc, atomic=False)
    t = algo.thread(0)
    record = algo.shadow[100].reads[0]
    cached_version = record.version
    t.tick()
    # stale version: fast path must fall through and re-record
    algo.read(0, 100, loc, atomic=False)
    assert record.version != cached_version
    assert record.version == t.version
    assert algo.shadow[100].reads[0].clock == t.clock


def test_threads_alternately_rereading_one_flag_both_hit(monkeypatch):
    """Two spinners on one address do not evict each other's cache."""
    algo = _algo()
    writer_loc, loc = ("f", "b", 0), ("f", "b", 1)
    algo.write(0, 100, 1, writer_loc, atomic=False)
    for tid in (1, 2):
        # both readers are ordered after the write: silent checks
        algo.thread(tid).join(algo.thread(0).snapshot())
        algo.read(tid, 100, loc, atomic=False)
    records = dict(algo.shadow[100].reads)
    checks = []
    saw = ThreadClock.saw
    monkeypatch.setattr(
        ThreadClock, "saw", lambda self, tid, clock: checks.append(tid) or saw(self, tid, clock)
    )
    for _ in range(5):
        for tid in (1, 2):
            algo.read(tid, 100, loc, atomic=False)
    assert checks == []
    assert algo.shadow[100].reads == records
    assert all(algo.shadow[100].reads[t] is records[t] for t in (1, 2))
    assert algo.accesses_checked == 1 + 2 + 10


def _count_reports(algo):
    calls = []
    report = algo._report

    def counting(*args):
        calls.append(args)
        return report(*args)

    algo._report = counting
    return calls


def test_reported_racy_reread_skips_report():
    algo = _algo()
    algo.write(0, 100, 1, ("f", "b", 0), atomic=False)
    calls = _count_reports(algo)
    for _ in range(3):
        algo.read(1, 100, ("f", "b", 1), atomic=False)
    assert len(calls) == 1
    assert len(algo.report.warnings) == 1
    assert algo.accesses_checked == 1 + 3


def test_long_run_still_counts_up_to_the_second_offense():
    algo = HybridAlgorithm(report=Report(tool="t", granularity="symbol"), long_run=True)
    algo.write(0, 100, 1, ("f", "b", 0), atomic=False)
    calls = _count_reports(algo)
    algo.read(1, 100, ("f", "b", 1), atomic=False)
    # the first offense is tolerated and the record stays uncached
    assert len(calls) == 1 and not algo.report.warnings
    assert algo.shadow[100].offenses == 1
    algo.read(1, 100, ("f", "b", 1), atomic=False)
    assert len(calls) == 2 and len(algo.report.warnings) == 1
    assert algo.shadow[100].offenses == 2
    # the pair is now in cell.reported: further re-reads are cache hits
    algo.read(1, 100, ("f", "b", 1), atomic=False)
    algo.read(1, 100, ("f", "b", 1), atomic=False)
    assert len(calls) == 2
