"""Trace record/replay: fidelity against live runs, serialization."""

import pytest

from repro.detectors import ToolConfig
from repro.trace import Trace, record_trace, replay_trace
from repro.workloads.dr_test.suite import build_suite

from tests.conftest import detect, flag_handoff_program

SUITE = {w.name: w for w in build_suite()}


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


class TestSerialization:
    def test_json_round_trip(self):
        trace = record_trace(flag_handoff_program(), seed=3)
        text = trace.to_json()
        back = Trace.from_json(text)
        assert back.program_name == trace.program_name
        assert back.seed == trace.seed
        assert back.steps == trace.steps
        assert back.loop_sizes == trace.loop_sizes
        assert back.lock_sites == trace.lock_sites
        assert back.symbols == trace.symbols
        assert back.events == trace.events
        assert back.status == trace.status == "ok"

    def test_json_is_stable_across_cache_schema_bumps(self, monkeypatch):
        """Trace artifacts outlive cache generations: the JSON layout must
        not depend on the harness CACHE_SCHEMA in any way."""
        import repro.harness.checkpoint as checkpoint

        trace = record_trace(flag_handoff_program(), seed=3)
        before = trace.to_json()
        monkeypatch.setattr(checkpoint, "CACHE_SCHEMA", checkpoint.CACHE_SCHEMA + 1)
        assert trace.to_json() == before
        back = Trace.from_json(before)
        assert back.events == trace.events and back.status == trace.status

    def test_from_json_tolerates_pre_status_traces(self):
        """Artifacts recorded before the status field still load."""
        import json

        trace = record_trace(flag_handoff_program(), seed=3)
        data = json.loads(trace.to_json())
        del data["status"]
        back = Trace.from_json(json.dumps(data))
        assert back.status == "ok"
        data["ok"] = False
        assert Trace.from_json(json.dumps(data)).status == "step-limit"

    def test_fault_events_round_trip(self):
        """Chaos traces carry injected-fault events; forensics needs them
        to survive serialization."""
        from repro.harness.chaos import chaos_spec
        from repro.detectors import ToolConfig as TC
        from repro.vm import events as ev
        from repro.workloads.dr_test.faults import chaos_cases

        case = next(c for c in chaos_cases() if c.name == "drop-flag-store")
        spec = chaos_spec(case, TC.helgrind_lib_spin(7))
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        assert trace.status == "livelock"
        assert any(isinstance(e, ev.StoreDroppedEvent) for e in trace.events)
        back = Trace.from_json(trace.to_json())
        assert back.events == trace.events
        assert back.status == "livelock"

    def test_round_tripped_trace_replays_identically(self):
        trace = record_trace(flag_handoff_program(), seed=3)
        back = Trace.from_json(trace.to_json())
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
    def test_recorded_columns_are_the_per_event_stream(self):
        """The VM's row buffer and step log fill the columns with exactly
        the events, steps included, that a per-event listener sees."""
        from repro.analysis import instrument_program
        from repro.harness.registry import build_scheduler
        from repro.vm import Machine

        wl = SUITE["cv_handoff_c1"]
        trace = record_trace(wl.build(), seed=wl.seed)
        events = []
        Machine(
            wl.build(),
            scheduler=build_scheduler("random", wl.seed),
            listener=events.append,
            instrumentation=instrument_program(wl.build(), max_blocks=8),
            max_steps=500_000,
        ).run()
        assert trace.events == events
        assert len(trace.columns) == len(events)

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
