"""The ad-hoc synchronization runtime engine."""

from repro.isa.program import CodeLocation
from repro.detectors import RaceDetector, ToolConfig
from repro.detectors.adhoc import AdhocSyncEngine
from repro.detectors.hybrid import HybridAlgorithm
from repro.detectors.reports import Report
from repro.vm.events import READ

L = lambda i: CodeLocation("f", "b", i)


def _engine():
    algo = HybridAlgorithm(Report("hy"))
    eng = AdhocSyncEngine(algo)
    algo.suppressor = eng.sync_addrs
    return eng, algo


def _enter(eng, tid, loop_id=0):
    eng.loop_enter(tid, loop_id)


def _exit(eng, tid, loop_id=0):
    eng.loop_exit(tid, loop_id)


def _read(eng, tid, addr, value, loop_id=0):
    eng.cond_read(tid, loop_id, addr, value)


class TestSyncClassification:
    def test_cond_read_classifies_address(self):
        eng, algo = _engine()
        _enter(eng, 2)
        _read(eng, 2, 0x20, 0)
        assert 0x20 in eng.sync_addrs
        assert not 0x21 in eng.sync_addrs

    def test_read_outside_loop_ignored(self):
        eng, algo = _engine()
        _read(eng, 2, 0x20, 0)  # never entered the loop
        assert not 0x20 in eng.sync_addrs

    def test_loop_stack_nesting(self):
        eng, algo = _engine()
        _enter(eng, 2, loop_id=0)
        _enter(eng, 2, loop_id=1)  # nested marked loop
        _read(eng, 2, 0x20, 0, loop_id=0)  # outer loop still active
        assert 0x20 in eng.sync_addrs
        _exit(eng, 2, loop_id=1)
        _exit(eng, 2, loop_id=0)
        _read(eng, 2, 0x30, 0, loop_id=0)  # loop exited: ignored
        assert not 0x30 in eng.sync_addrs

    def test_header_reentry_does_not_stack(self):
        eng, algo = _engine()
        _enter(eng, 2)
        _enter(eng, 2)  # second iteration
        _exit(eng, 2)
        assert eng._active[2] == []


class TestCounterpartMatching:
    def test_value_match_creates_edge(self):
        eng, algo = _engine()
        algo.write(1, 0x10, 5, L(0), False)  # data
        algo.write(1, 0x20, 1, L(1), False)  # counterpart write
        _enter(eng, 2)
        _read(eng, 2, 0x20, 1)  # observes the written value
        assert eng.edges == 1
        algo.read(2, 0x10, L(2), False)
        assert algo.report.racy_contexts == 0

    def test_value_mismatch_no_edge(self):
        eng, algo = _engine()
        algo.write(1, 0x20, 1, L(0), False)
        _enter(eng, 2)
        _read(eng, 2, 0x20, 99)  # stale/different value
        assert eng.edges == 0

    def test_own_write_no_edge(self):
        eng, algo = _engine()
        algo.write(2, 0x20, 1, L(0), False)
        _enter(eng, 2)
        _read(eng, 2, 0x20, 1)
        assert eng.edges == 0

    def test_no_prior_write_no_edge(self):
        eng, algo = _engine()
        _enter(eng, 2)
        _read(eng, 2, 0x20, 0)  # initial value, never written
        assert eng.edges == 0

    def test_read_of_classified_sync_variable_matches(self):
        """Any read of a classified sync variable pairs with its writer
        (the CAS-grab / guard-recheck path)."""
        det = RaceDetector(ToolConfig.helgrind_nolib_spin(7))
        eng, algo = det.adhoc, det.algorithm
        _enter(eng, 2)
        _read(eng, 2, 0x20, 0)  # classify, no edge
        _exit(eng, 2)
        algo.write(1, 0x20, 1, L(0), False)
        # plain read outside any loop
        det.consume_batch([(READ, 3, 0x20, 1, L(2), False, False, None)])
        assert eng.edges == 1

    def test_read_of_unclassified_addr_ignored(self):
        det = RaceDetector(ToolConfig.helgrind_nolib_spin(7))
        det.algorithm.write(1, 0x30, 1, L(0), False)
        det.consume_batch([(READ, 2, 0x30, 1, L(2), False, False, None)])
        assert det.adhoc.edges == 0


class TestSuppression:
    def test_flag_accesses_not_reported(self):
        """The synchronization race on the flag itself is suppressed."""
        eng, algo = _engine()
        _enter(eng, 2)
        _read(eng, 2, 0x20, 0)  # classify before any conflict
        algo.read(2, 0x20, L(1), False)
        algo.write(1, 0x20, 1, L(0), False)
        assert algo.report.racy_contexts == 0


class TestAccounting:
    def test_stats_and_memory(self):
        eng, algo = _engine()
        _enter(eng, 2)
        _read(eng, 2, 0x20, 0)
        _exit(eng, 2)
        assert eng.loops_entered == 1
        assert eng.loop_exits == 1
        assert eng.cond_reads == 1
        assert eng.memory_words() > 0
