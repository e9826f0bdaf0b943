"""Epoch fast-path internals: lazy write frames and the read cache."""

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
    t = algo.thread(0)
    loc = ("f", "b", 0)
    algo.read(0, 100, loc, atomic=False)
    cell = algo.shadow[100]
    cached = cell.rcache
    assert cached is not None and cached[0] == 0
    first_read = cell.reads[0]
    algo.read(0, 100, loc, atomic=False)
    # the fast path returned before touching the read table
    assert cell.reads[0] is first_read
    assert cell.rcache is cached


def test_cache_invalidated_by_write_even_in_place():
    algo = _algo()
    loc = ("f", "b", 0)
    algo.write(0, 100, 1, loc, atomic=False)
    algo.read(0, 100, loc, atomic=False)
    assert algo.shadow[100].rcache is not None
    # same-thread write updates the record *in place* — identity alone
    # could not reveal it, so the write must clear the cache explicitly
    algo.write(0, 100, 2, loc, atomic=False)
    assert algo.shadow[100].rcache is None


def test_cache_invalidated_by_clock_movement():
    algo = _algo()
    loc = ("f", "b", 0)
    algo.read(0, 100, loc, atomic=False)
    t = algo.thread(0)
    cached = algo.shadow[100].rcache
    t.tick()
    # stale version: fast path must fall through and re-record
    algo.read(0, 100, loc, atomic=False)
    assert algo.shadow[100].rcache != cached
    assert algo.shadow[100].reads[0].clock == t.clock
