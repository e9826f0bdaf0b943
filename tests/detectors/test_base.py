"""Core algorithm machinery: hb checks, locksets, suppression, long-run."""

from repro.isa.program import CodeLocation
from repro.detectors.base import VectorClockAlgorithm
from repro.detectors.happensbefore import PureHappensBeforeAlgorithm
from repro.detectors.hybrid import HybridAlgorithm
from repro.detectors.reports import Report

L = lambda i: CodeLocation("f", "b", i)


def _hb(suppressor=None, **kw):
    return PureHappensBeforeAlgorithm(Report("hb"), suppressor=suppressor, **kw)


def _hy(**kw):
    return HybridAlgorithm(Report("hy"), **kw)


class TestHappensBeforeCore:
    def test_concurrent_write_read_reported(self):
        a = _hb()
        a.write(1, 0x10, 5, L(0), False)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1
        assert a.report.warnings[0].kind == "write-read"

    def test_spawn_orders_parent_writes(self):
        a = _hb()
        a.write(0, 0x10, 5, L(0), False)
        a.spawn(0, 1)
        a.read(1, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_join_orders_child_writes(self):
        a = _hb()
        a.spawn(0, 1)
        a.write(1, 0x10, 5, L(0), False)
        a.join(0, 1)
        a.read(0, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_concurrent_write_write_reported(self):
        a = _hb()
        a.write(1, 0x10, 1, L(0), False)
        a.write(2, 0x10, 2, L(1), False)
        assert a.report.warnings[0].kind == "write-write"

    def test_read_then_concurrent_write_reported(self):
        a = _hb()
        a.spawn(0, 1)
        a.spawn(0, 2)
        a.read(1, 0x10, L(0), False)
        a.write(2, 0x10, 9, L(1), False)
        kinds = {w.kind for w in a.report.warnings}
        assert "read-write" in kinds

    def test_atomic_atomic_pair_not_reported(self):
        a = _hb()
        a.write(1, 0x10, 1, L(0), True)
        a.write(2, 0x10, 2, L(1), True)
        a.read(2, 0x10, L(2), True)
        assert a.report.racy_contexts == 0

    def test_plain_vs_atomic_reported(self):
        a = _hb()
        a.write(1, 0x10, 1, L(0), True)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1

    def test_same_thread_never_races(self):
        a = _hb()
        a.write(1, 0x10, 1, L(0), False)
        a.read(1, 0x10, L(1), False)
        a.write(1, 0x10, 2, L(2), False)
        assert a.report.racy_contexts == 0

    def test_lock_hb_orders_in_pure_hb(self):
        a = _hb()
        a.acquire_lock(1, 0x99)
        a.write(1, 0x10, 1, L(0), False)
        a.release_lock(1, 0x99)
        a.acquire_lock(2, 0x99)
        a.read(2, 0x10, L(1), False)
        a.release_lock(2, 0x99)
        assert a.report.racy_contexts == 0

    def test_per_write_tick_bounds_adhoc_edges(self):
        """A write after the counterpart write must not be covered by an
        edge taken from the counterpart's snapshot."""
        a = _hb()
        a.write(1, 0x10, 7, L(0), False)  # counterpart write
        rec = a.last_write(0x10)
        a.write(1, 0x20, 9, L(1), False)  # later write, same thread
        a.adhoc_acquire(2, rec.vc)
        a.read(2, 0x20, L(2), False)  # must still race
        assert a.report.racy_contexts == 1
        a2 = _hb()
        a2.write(1, 0x20, 9, L(1), False)  # earlier write
        a2.write(1, 0x10, 7, L(0), False)  # counterpart write
        rec = a2.last_write(0x10)
        a2.adhoc_acquire(2, rec.vc)
        a2.read(2, 0x20, L(2), False)  # covered by the edge
        assert a2.report.racy_contexts == 0


class TestSyncOperations:
    def test_signal_wait_edge(self):
        a = _hb()
        a.write(1, 0x10, 5, L(0), False)
        a.signal(1, 0x77)
        a.wait_return(2, 0x77)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_wait_without_signal_no_edge(self):
        a = _hb()
        a.write(1, 0x10, 5, L(0), False)
        a.wait_return(2, 0x77)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1

    def test_sem_post_wait_edge(self):
        a = _hb()
        a.write(1, 0x10, 5, L(0), False)
        a.sem_post(1, 0x55)
        a.sem_wait_return(2, 0x55)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_barrier_orders_all_participants(self):
        a = _hb()
        a.write(1, 0x10, 5, L(0), False)
        a.write(2, 0x20, 6, L(1), False)
        for t in (1, 2, 3):
            a.barrier_enter(t, 0x44)
        for t in (1, 2, 3):
            a.barrier_leave(t, 0x44)
        a.read(3, 0x10, L(2), False)
        a.read(3, 0x20, L(3), False)
        assert a.report.racy_contexts == 0

    def test_barrier_episode_reset(self):
        a = _hb()
        for t in (1, 2):
            a.barrier_enter(t, 0x44)
        for t in (1, 2):
            a.barrier_leave(t, 0x44)
        # Second episode: a write before it is ordered; but a write by 1
        # after its own leave is NOT ordered for 2's post-barrier read
        # until the next barrier.
        a.write(1, 0x10, 5, L(0), False)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1

    def test_coarse_cv_pool_hides_unrelated_signal(self):
        a = _hb(coarse_cv=True)
        a.write(1, 0x10, 5, L(0), False)
        a.signal(1, 0xAA)  # condvar A
        a.signal(3, 0xBB)  # condvar B
        a.wait_return(2, 0xBB)  # waited on B, but pool joins A's too
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_precise_cv_does_not_join_unrelated(self):
        a = _hb(coarse_cv=False)
        a.write(1, 0x10, 5, L(0), False)
        a.signal(1, 0xAA)
        a.signal(3, 0xBB)
        a.wait_return(2, 0xBB)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1


class TestSuppression:
    def test_suppressed_address_not_checked(self):
        sync = {0x10}
        a = _hb(suppressor=sync)
        a.write(1, 0x10, 1, L(0), False)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 0

    def test_suppressed_write_still_recorded_for_adhoc(self):
        sync = {0x10}
        a = _hb(suppressor=sync)
        a.write(1, 0x10, 7, L(0), False)
        rec = a.last_write(0x10)
        assert rec is not None and rec.value == 7 and rec.tid == 1


class TestLongRun:
    def test_first_offense_tolerated(self):
        a = _hy(long_run=True)
        a.write(1, 0x10, 1, L(0), False)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 0  # first offense swallowed
        a.read(3, 0x10, L(2), False)
        assert a.report.racy_contexts == 1  # second offense reported

    def test_short_run_reports_immediately(self):
        a = _hy(long_run=False)
        a.write(1, 0x10, 1, L(0), False)
        a.read(2, 0x10, L(1), False)
        assert a.report.racy_contexts == 1


class TestAccounting:
    def test_memory_words_grows_with_state(self):
        a = _hb()
        before = a.memory_words()
        for addr in range(0x10, 0x40):
            a.write(1, addr, 0, L(0), False)
        assert a.memory_words() > before
