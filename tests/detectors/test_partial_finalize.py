"""Graceful degradation: detectors must finalize truncated event streams.

A faulted or clamped run hands the detector a prefix of a valid stream —
cut mid-critical-section (locks still held), mid-marked-loop (spin
entered, never exited), or mid-condvar-wait.  ``finalize(partial=True)``
must always return a report and never raise, for every algorithm family
(hybrid, pure-hb, lockset) and for the ad-hoc and condvar companions.
"""

import pytest

from repro.analysis import instrument_program
from repro.detectors import RaceDetector, ToolConfig
from repro.trace import EventColumns
from repro.vm import (
    LibExit,
    Machine,
    MarkedCondRead,
    MarkedLoopEnter,
    RandomScheduler,
)
from repro.vm.events import event_row
from repro.vm.faults import ClampSteps, FaultPlan
from repro.workloads import chaos_workloads

from tests.conftest import flag_handoff_program

CONFIGS = [
    ToolConfig.helgrind_lib(),         # hybrid
    ToolConfig.helgrind_lib_spin(7),   # hybrid + ad-hoc engine
    ToolConfig.helgrind_nolib_spin(7),
    ToolConfig.drd(),                  # pure happens-before
    ToolConfig.eraser(),               # lockset
]


def _chaos_program(name):
    by_name = {wl.name: wl for wl in chaos_workloads()}
    return by_name[name].fresh_program()


def _stream(program, config, seed=1, max_steps=8_000):
    """The (possibly budget-truncated) stream as ``config`` observes it."""
    imap = None
    if config.spin:
        imap = instrument_program(
            program,
            max_blocks=config.spin_max_blocks,
            inline_depth=config.inline_depth,
        )
    columns = EventColumns()
    machine = Machine(
        program,
        scheduler=RandomScheduler(seed),
        listener=columns,
        instrumentation=imap,
        max_steps=max_steps,
    )
    machine.run()
    return list(columns.iter_events())


def _cut_points(events):
    """Prefix lengths that truncate at interesting protocol boundaries."""
    cuts = {1, len(events) // 3, len(events) // 2, len(events) - 1}
    for marker in (LibExit, MarkedLoopEnter, MarkedCondRead):
        for i, e in enumerate(events):
            if isinstance(e, marker):
                cuts.add(i + 1)  # right after: mid-CS / mid-loop / mid-read
                break
    return sorted(c for c in cuts if 0 < c < len(events))


def _finalize_prefix(events, config, cut):
    detector = RaceDetector(config)
    detector.consume_batch([event_row(e) for e in events[:cut]])
    return detector, detector.finalize(partial=True)


PROGRAMS = ["chaos_lock_pair", "chaos_cv_lost_signal", "chaos_flag_handoff"]


class TestTruncatedStreams:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_every_cut_finalizes_without_raising(self, config, name):
        events = _stream(_chaos_program(name), config)
        assert events
        for cut in _cut_points(events):
            _, report = _finalize_prefix(events, config, cut)
            assert report.partial
            assert "(partial stream)" in report.summary()

    def test_mid_marked_loop_cut_reaches_adhoc_engine(self):
        config = ToolConfig.helgrind_lib_spin(7)
        events = _stream(flag_handoff_program(), config)
        cut = next(
            i + 1 for i, e in enumerate(events) if isinstance(e, MarkedCondRead)
        )
        detector, report = _finalize_prefix(events, config, cut)
        assert detector.adhoc is not None
        assert report.partial

    def test_mid_critical_section_cut_leaves_locks_held(self):
        config = ToolConfig.helgrind_lib()
        events = _stream(_chaos_program("chaos_lock_pair"), config)
        cut = next(i + 1 for i, e in enumerate(events) if isinstance(e, LibExit))
        detector, report = _finalize_prefix(events, config, cut)
        # the stream ended inside the critical section: a lock is still
        # held, and finalize must cope instead of asserting balance
        assert any(held for held in detector.algorithm._held.values())
        assert report.partial


class TestFinalizeContract:
    def test_idempotent(self):
        config = ToolConfig.helgrind_lib_spin(7)
        events = _stream(flag_handoff_program(), config)
        detector, report = _finalize_prefix(events, config, len(events) // 2)
        again = detector.finalize(partial=True)
        assert again is report
        assert again.notes == report.notes

    def test_complete_stream_is_not_partial(self):
        config = ToolConfig.helgrind_lib()
        events = _stream(flag_handoff_program(), config)
        detector = RaceDetector(config)
        detector.consume_batch([event_row(e) for e in events])
        report = detector.finalize()
        assert not report.partial
        assert "(partial stream)" not in report.summary()

    def test_empty_stream_finalizes(self):
        for config in CONFIGS:
            report = RaceDetector(config).finalize(partial=True)
            assert report.partial

    def test_clamped_live_run_finalizes(self):
        # End-to-end: the detector listens to a machine whose budget is
        # clamped mid-execution, exactly as the harness drives it.
        config = ToolConfig.helgrind_lib_spin(7)
        program = _chaos_program("chaos_lock_pair")
        imap = instrument_program(
            program,
            max_blocks=config.spin_max_blocks,
            inline_depth=config.inline_depth,
        )
        detector = RaceDetector(config)
        machine = Machine(
            program,
            scheduler=RandomScheduler(1),
            listener=detector,
            instrumentation=imap,
            faults=FaultPlan(faults=(ClampSteps(max_steps=60),)),
        )
        result = machine.run()
        assert result.timed_out
        report = detector.finalize(partial=not result.ok)
        assert report.partial
