"""Trace record/replay: fidelity against live runs, the trace file."""

import pytest

from repro.detectors import ToolConfig
from repro.trace import (
    Trace,
    TraceStore,
    analyze_trace,
    open_trace_file,
    record_trace,
    replay_trace,
    save_trace_file,
)
from repro.workloads.dr_test.suite import build_suite

from tests.conftest import detect, flag_handoff_program

SUITE = {w.name: w for w in build_suite()}


def _stream_rows(stream):
    """A reopened recording's rows, every chunk concatenated."""
    return [row for chunk in stream.row_batches() for row in chunk]


def _live(program, config, seed):
    det, result = detect(program, config, seed=seed, max_steps=500_000)
    assert result.ok
    return det.report


class TestReplayFidelity:
    @pytest.mark.parametrize(
        "case",
        [
            "adhoc_flag_basic",
            "adhoc7_handoff",
            "hard_funcptr",
            "locks_mutex_counter_t2",
            "locks_taslock_t2",
            "racy_counter_t2",
            "racy_lockmask_basic",
            "cv_handoff_c1",
        ],
    )
    def test_replay_matches_live_for_every_tool(self, case):
        """One recorded execution, replayed under each tool, must report
        exactly what a live run with the same seed reports."""
        wl = SUITE[case]
        trace = record_trace(wl.build(), seed=wl.seed, max_blocks=8)
        assert trace.ok
        for config in ToolConfig.paper_tools(7):
            live = _live(wl.build(), config, wl.seed)
            replayed = replay_trace(trace, config).report
            assert replayed.contexts == live.contexts, (case, config.name)

    def test_replay_spin_window_filtering(self):
        """A size-7 loop must be visible to spin(7) replays and invisible
        to spin(6) replays of the same trace."""
        wl = SUITE["adhoc7_handoff"]
        trace = record_trace(wl.build(), seed=wl.seed, max_blocks=8)
        clean = replay_trace(trace, ToolConfig.helgrind_lib_spin(7))
        noisy = replay_trace(trace, ToolConfig.helgrind_lib_spin(6))
        assert clean.report.racy_contexts == 0
        assert noisy.report.racy_contexts > 0

    def test_replay_universal_hybrid(self):
        wl = SUITE["locks_taslock_t2"]
        trace = record_trace(wl.build(), seed=wl.seed)
        nolib = replay_trace(trace, ToolConfig.helgrind_nolib_spin(7))
        univ = replay_trace(trace, ToolConfig.universal_hybrid(7))
        assert nolib.report.racy_contexts > 0
        assert univ.report.racy_contexts == 0

    def test_replay_wider_window_than_recording_rejected(self):
        trace = record_trace(flag_handoff_program(), max_blocks=4)
        with pytest.raises(ValueError, match="max_blocks"):
            replay_trace(trace, ToolConfig.helgrind_lib_spin(7))

    def test_replay_mismatched_inline_depth_rejected(self):
        from dataclasses import replace

        trace = record_trace(flag_handoff_program(), inline_depth=1)
        cfg = replace(ToolConfig.helgrind_lib_spin(7), inline_depth=2)
        with pytest.raises(ValueError, match="inline_depth"):
            replay_trace(trace, cfg)


class TestTraceFile:
    """``save_trace_file`` / ``open_trace_file``: a recording's one file form."""

    @staticmethod
    def _reopen(trace, tmp_path):
        path = tmp_path / "t.trc"
        save_trace_file(trace, path)
        return open_trace_file(path)

    def test_file_round_trip(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=3)
        back = self._reopen(trace, tmp_path)
        assert back.program_name == trace.program_name
        assert back.seed == trace.seed
        assert back.steps == trace.steps
        assert back.loop_sizes == trace.loop_sizes
        assert back.lock_sites == trace.lock_sites
        assert back.symbols == trace.symbols
        assert _stream_rows(back) == list(trace.columns.rows())
        assert back.status == trace.status == "ok"

    def test_file_holds_the_store_entry_bytes(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=3)
        store = TraceStore(tmp_path / "store")
        store.put("k", trace)
        save_trace_file(trace, tmp_path / "t.trc")
        assert (tmp_path / "t.trc").read_bytes() == store._path("k").read_bytes()

    def test_file_is_stable_across_cache_schema_bumps(self, tmp_path, monkeypatch):
        """Trace artifacts outlive cache generations: the file bytes must
        not depend on the harness CACHE_SCHEMA in any way."""
        import repro.harness.checkpoint as checkpoint

        trace = record_trace(flag_handoff_program(), seed=3)
        save_trace_file(trace, tmp_path / "before.trc")
        monkeypatch.setattr(checkpoint, "CACHE_SCHEMA", checkpoint.CACHE_SCHEMA + 1)
        save_trace_file(trace, tmp_path / "after.trc")
        before = (tmp_path / "before.trc").read_bytes()
        assert (tmp_path / "after.trc").read_bytes() == before
        back = open_trace_file(tmp_path / "before.trc")
        assert _stream_rows(back) == list(trace.columns.rows())
        assert back.status == trace.status

    def test_fault_events_round_trip(self, tmp_path):
        """Chaos traces carry injected-fault events; forensics needs them
        to survive the file, and the reopened file to analyze exactly as
        the recording in memory does."""
        from repro.harness.chaos import chaos_spec
        from repro.vm import events as ev
        from repro.workloads.dr_test.faults import chaos_cases

        case = next(c for c in chaos_cases() if c.name == "drop-flag-store")
        spec = chaos_spec(case, ToolConfig.helgrind_lib_spin(7))
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        assert trace.status == "livelock"
        assert any(isinstance(e, ev.StoreDroppedEvent) for e in trace.events)
        back = self._reopen(trace, tmp_path)
        assert _stream_rows(back) == list(trace.columns.rows())
        assert back.status == "livelock"
        for config in ToolConfig.paper_tools(7):
            assert (
                analyze_trace(back, config).fingerprint
                == analyze_trace(trace, config).fingerprint
            ), config.name

    def test_reopened_livelock_is_not_ok(self, tmp_path):
        from repro.harness.chaos import chaos_spec
        from repro.workloads.dr_test.faults import chaos_cases

        case = next(c for c in chaos_cases() if c.name == "drop-flag-store")
        spec = chaos_spec(case, ToolConfig.helgrind_lib_spin(7))
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        back = self._reopen(trace, tmp_path)
        assert back.ok is trace.ok is False
        assert back.status == trace.status == "livelock"

    def test_reopened_file_replays_identically(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=3)
        back = self._reopen(trace, tmp_path)
        for config in ToolConfig.paper_tools(7):
            a = replay_trace(trace, config).report
            b = replay_trace(back, config).report
            assert a.contexts == b.contexts

    def test_symbol_map_reconstruction(self):
        trace = record_trace(flag_handoff_program())
        sm = trace.symbol_map()
        assert sm.resolve(sm.base_of("FLAG")) == "FLAG"
        assert sm.resolve(sm.base_of("DATA")) == "DATA"


class TestTraceContents:
    def test_events_cover_all_kinds(self):
        from repro.vm import events as ev

        wl = SUITE["cv_handoff_c1"]
        trace = record_trace(wl.build(), seed=wl.seed)
        kinds = {type(e) for e in trace.events}
        assert ev.MemRead in kinds
        assert ev.MemWrite in kinds
        assert ev.LibEnter in kinds
        assert ev.ThreadSpawnEvent in kinds
        assert ev.MarkedCondRead in kinds

    def test_loop_sizes_recorded(self):
        trace = record_trace(flag_handoff_program())
        assert trace.loop_sizes
        assert all(1 <= size <= 8 for size in trace.loop_sizes.values())


class TestColumns:
    def test_values_beyond_64_bits_survive(self):
        from repro.isa.program import CodeLocation
        from repro.trace import EventColumns
        from repro.vm import events as ev

        loc = CodeLocation("main", "entry", 0)
        events = [
            ev.MemWrite(1, 0, 4096, 7, loc),
            ev.MemWrite(2, 0, 4096, 2**70, loc),
            ev.MemRead(3, 1, 4096, -(2**80), loc, True, False),
        ]
        cols = EventColumns.from_events(events)
        assert list(cols.iter_events()) == events
        assert [row[3] for row in cols.rows()] == [7, 2**70, -(2**80)]

    def test_copies_share_columns_and_cache_nothing(self):
        from dataclasses import replace

        trace = record_trace(flag_handoff_program(), seed=3)
        copy = replace(trace)
        replay_trace(copy, ToolConfig.helgrind_lib_spin(7))
        assert copy.columns is trace.columns
        assert set(vars(copy)) == set(vars(trace)) == {
            f for f in Trace.__dataclass_fields__
        }
