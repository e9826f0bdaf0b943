"""Record-once-analyze-anywhere differential gate.

The tentpole guarantee: for any recorded execution, running any tool
preset over the stored trace (:func:`repro.trace.analyze_trace`) yields
a report whose *full fingerprint* is bit-identical to a live run of the
same (program, seed, faults) cell under that preset.  The golden verdict
corpus (``tests/integration/test_golden_corpus.py``) pins that for the
suite, the chaos cases whose traces truncate partially (deadlock /
livelock / fault-killed threads) and PARSEC; this module gates the
streamed source (a :class:`~repro.trace.TraceStream` read off a store)
against the in-memory one.

Also pinned here: the no-spin wide-loop regression (the replay filter
must only apply under spin configurations), scheduler-spec recording,
``RunSpec.trace_mode`` sweep plumbing, and the ``repro.run(trace=...)``
session front door.
"""

import dataclasses
import json

import pytest

import repro
import repro.trace.stream
from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_spec
from repro.harness.parallel import RunSpec, prewarm_traces, run_sweep, sweep_specs
from repro.harness.registry import resolve_tool
from repro.trace import (
    Trace,
    TraceStore,
    TraceStream,
    analyze_trace,
    record_trace,
    synthesize_result,
)
from repro.workloads.dr_test.faults import chaos_cases
from repro.workloads.dr_test.suite import build_suite

from tests.conftest import flag_handoff_program

SUITE = build_suite()
PRESET_NAMES = ToolConfig.presets()
PRESETS = [resolve_tool(name) for name in PRESET_NAMES]

#: instrumentation wide enough for every preset (the store convention)
MAX_BLOCKS = max([8, *(c.spin_max_blocks for c in PRESETS)])

_trace_memo = {}


def _recorded(wl):
    """One recording per suite case, shared across the preset params."""
    if wl.name not in _trace_memo:
        _trace_memo[wl.name] = record_trace(
            wl.build(), seed=wl.seed, max_steps=wl.max_steps, max_blocks=MAX_BLOCKS
        )
    return _trace_memo[wl.name]


class TestSuiteDifferential:
    def test_presets_share_one_instrumentation_depth(self):
        # The shared-recording convention relies on every preset using
        # the same inline depth; a new preset that changes it needs its
        # own recording tier, and this test is the tripwire.
        assert len({c.inline_depth for c in PRESETS}) == 1


class TestChaosDifferential:
    """Partial traces: fault-truncated runs must replay faithfully."""

    def test_chaos_suite_contains_partial_traces(self):
        """The golden corpus's chaos cells must exercise non-ok finalization."""
        statuses = set()
        for c in chaos_cases():
            spec = chaos_spec(c, ToolConfig.helgrind_lib_spin(7))
            trace = record_trace(
                spec.resolve().fresh_program(),
                seed=spec.effective_seed(),
                max_steps=spec.effective_max_steps(),
                fault_plan=spec.fault_plan,
                livelock_bound=spec.livelock_bound,
            )
            statuses.add(trace.status)
        assert statuses - {"ok"}, "no chaos case produced a partial trace"


@pytest.fixture(scope="module")
def suite_store(tmp_path_factory):
    """One store shared by the streaming params — each suite case is
    framed to disk once and re-opened per preset."""
    return TraceStore(tmp_path_factory.mktemp("stream-suite"))


def _streamed(store, wl):
    if not store.has(wl.name):
        store.put(wl.name, _recorded(wl))
    stream = store.open_stream(wl.name)
    assert stream is not None
    return stream


class TestStreamingDifferential:
    """The bounded-memory source is fingerprint-invisible.

    :func:`analyze_trace` over a :class:`~repro.trace.TraceStream` must
    match it over the in-memory :class:`Trace` bit-for-bit on the full
    report fingerprint — across the whole
    120-case suite, every named preset, and the chaos cases whose
    recordings truncate partially — and since the in-memory path is
    already gated against live runs above, transitivity extends the
    guarantee to live execution.
    """

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_streaming_fingerprint_equals_in_memory_across_the_suite(
        self, preset, suite_store
    ):
        cfg = resolve_tool(preset)
        mismatches = []
        for wl in SUITE:
            inmem = analyze_trace(_recorded(wl), cfg)
            streamed = analyze_trace(_streamed(suite_store, wl), cfg)
            if streamed.report.fingerprint() != inmem.report.fingerprint():
                mismatches.append(wl.name)
        assert not mismatches, f"{preset}: streaming diverged on {mismatches}"

    @pytest.mark.parametrize("case", [c.name for c in chaos_cases()])
    def test_chaos_streaming_matches_in_memory_for_every_preset(
        self, case, tmp_path
    ):
        spec = chaos_spec(
            next(c for c in chaos_cases() if c.name == case),
            ToolConfig.helgrind_lib_spin(7),
        )
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            max_blocks=MAX_BLOCKS,
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        store = TraceStore(tmp_path)
        store.put("c", trace)
        mismatches = []
        for cfg in PRESETS:
            inmem = analyze_trace(trace, cfg)
            stream = store.open_stream("c")
            streamed = analyze_trace(stream, cfg)
            # partial (fault-truncated) recordings must finalize
            # identically, and the synthesized machine result must agree
            assert streamed.report.partial == (trace.status != "ok")
            assert synthesize_result(stream) == synthesize_result(trace)
            assert synthesize_result(stream).status == trace.status
            if streamed.report.fingerprint() != inmem.report.fingerprint():
                mismatches.append(cfg.name)
        assert not mismatches, f"{case}: streaming diverged under {mismatches}"

    def test_chunk_size_is_invisible(self, suite_store, monkeypatch):
        # Chunk boundaries must not leak into the three-way seq merge.
        wl = next(w for w in SUITE if w.name == "adhoc7_handoff")
        cfg = resolve_tool("helgrind-lib-spin7")
        prints = {}
        for chunk in (1, 3, 2048):
            monkeypatch.setattr(repro.trace.stream, "CHUNK_EVENTS", chunk)
            stream = _streamed(suite_store, wl)
            assert max(len(rows) for rows in stream.row_batches()) <= chunk
            prints[chunk] = analyze_trace(stream, cfg).report.fingerprint()
        assert len(set(prints.values())) == 1

    def test_streaming_carries_a_provenance_note(self, suite_store):
        wl = SUITE[0]
        cfg = resolve_tool("helgrind-lib-spin7")
        streamed = analyze_trace(_streamed(suite_store, wl), cfg)
        assert streamed.notes == ("streaming-decode",)
        assert analyze_trace(_recorded(wl), cfg).notes == ()


class TestNoSpinWideLoopRegression:
    """The replay-side loop filter is a spin(k) feature: a preset with
    ``spin=False`` must see every recorded event regardless of its
    (latent) ``spin_max_blocks`` value.

    Regression: ``replay_trace`` used to apply the wide-loop filter from
    ``spin_max_blocks`` unconditionally, silently dropping the marked
    events of wider loops — events a live no-spin run delivers as plain
    reads — and diverging from the live fingerprint.
    """

    def _case(self):
        return next(wl for wl in SUITE if wl.name == "adhoc7_handoff")

    def test_no_spin_preset_with_narrow_latent_window(self):
        wl = self._case()
        trace = record_trace(wl.build(), seed=wl.seed, max_blocks=8)
        # the recording must contain a loop wider than the latent window
        assert any(size > 3 for size in trace.loop_sizes.values())
        cfg = dataclasses.replace(resolve_tool("helgrind-lib"), spin_max_blocks=3)
        assert not cfg.spin
        live = repro.run(wl, cfg, seed=wl.seed)
        replayed = analyze_trace(trace, cfg)
        assert replayed.report.fingerprint() == live.report.fingerprint()

    def test_spin_preset_still_filters(self):
        wl = self._case()
        trace = record_trace(wl.build(), seed=wl.seed, max_blocks=8)
        narrow = analyze_trace(trace, ToolConfig.helgrind_lib_spin(6))
        wide = analyze_trace(trace, ToolConfig.helgrind_lib_spin(7))
        assert narrow.report.racy_contexts > 0
        assert wide.report.racy_contexts == 0


class TestSchedulerRecording:
    def test_round_robin_replay_matches_live(self):
        program = flag_handoff_program()
        cfg = ToolConfig.helgrind_lib_spin(7)
        live = repro.run(flag_handoff_program, cfg, seed=2, scheduler="round-robin")
        trace = record_trace(program, seed=2, scheduler="round-robin")
        assert trace.scheduler == "round-robin"
        replayed = analyze_trace(trace, cfg)
        assert replayed.report.fingerprint() == live.report.fingerprint()

    def test_adversarial_recording_is_deterministic(self):
        a = record_trace(flag_handoff_program(), seed=5, scheduler="adversarial")
        b = record_trace(flag_handoff_program(), seed=5, scheduler="adversarial")
        assert a.scheduler == b.scheduler == "adversarial"
        assert a.events == b.events

    def test_scheduler_changes_the_interleaving_key_not_just_metadata(self):
        rnd = record_trace(flag_handoff_program(), seed=2)
        rr = record_trace(flag_handoff_program(), seed=2, scheduler="round-robin")
        assert rnd.scheduler == "random"
        assert rnd.events != rr.events

    def test_scheduler_survives_json(self):
        trace = record_trace(flag_handoff_program(), seed=2, scheduler="round-robin")
        assert Trace.from_json(trace.to_json()).scheduler == "round-robin"

    def test_pre_scheduler_json_defaults_to_random(self):
        import json

        trace = record_trace(flag_handoff_program(), seed=2)
        data = json.loads(trace.to_json())
        del data["scheduler"]
        assert Trace.from_json(json.dumps(data)).scheduler == "random"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            record_trace(flag_handoff_program(), scheduler="fifo")


TOOLS3 = ["helgrind-lib", "helgrind-lib-spin7", "drd"]


class TestSweepTraceModes:
    def _specs(self, mode):
        specs = sweep_specs(["adhoc7_handoff"], TOOLS3, seeds=[1])
        return [dataclasses.replace(s, trace_mode=mode) for s in specs]

    def test_replay_sweep_matches_live_sweep(self, tmp_path):
        live = run_sweep(self._specs("live"), workers=0)
        replay = run_sweep(self._specs("replay"), workers=0, trace_dir=tmp_path)
        assert len(replay.outcomes) == len(live.outcomes) == 3
        by_key = {
            (o.workload.name, o.config.name, o.seed): o for o in live.outcomes
        }
        for o in replay.outcomes:
            assert o.trace_mode == "replay"
            twin = by_key[(o.workload.name, o.config.name, o.seed)]
            assert twin.trace_mode == "live"
            assert o.report.fingerprint() == twin.report.fingerprint()
            assert o.result.status == twin.result.status
            assert o.steps == twin.steps

    def test_one_recording_serves_all_configs(self, tmp_path):
        run_sweep(self._specs("replay"), workers=0, trace_dir=tmp_path)
        assert len(TraceStore(tmp_path)) == 1

    def test_prewarm_record_mode_rerecords(self, tmp_path):
        replay_specs = self._specs("replay")
        assert prewarm_traces(replay_specs, tmp_path) == 1
        assert prewarm_traces(replay_specs, tmp_path) == 0  # store hit
        record_specs = self._specs("record")
        assert prewarm_traces(record_specs, tmp_path) == 1  # forced
        assert prewarm_traces(record_specs, tmp_path) == 1  # forced again

    def test_trace_dir_defaults_under_the_cache(self, tmp_path):
        from repro.harness.parallel import ResultCache

        cache = ResultCache(tmp_path / "cache")
        run_sweep(self._specs("replay"), workers=0, cache=cache)
        assert len(TraceStore(tmp_path / "cache" / "traces")) == 1

    def test_non_live_without_store_location_rejected(self):
        with pytest.raises(ValueError, match="trace_dir"):
            run_sweep(self._specs("replay"), workers=0)

    def test_unknown_trace_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trace_mode"):
            run_sweep(self._specs("offline"), workers=0, trace_dir=tmp_path)

    def test_pool_replay_sweep_matches_serial(self, tmp_path):
        serial = run_sweep(self._specs("replay"), workers=0, trace_dir=tmp_path)
        pooled = run_sweep(
            self._specs("replay"), workers=2, trace_dir=tmp_path
        )
        assert len(TraceStore(tmp_path)) == 1  # prewarmed once, shared
        by_key = {
            (o.workload.name, o.config.name): o.report.fingerprint()
            for o in serial.outcomes
        }
        for o in pooled.outcomes:
            assert o.report.fingerprint() == by_key[(o.workload.name, o.config.name)]


#: the RunRecord fields a replay must reproduce from the live run
RECORD_FIELDS = (
    "status", "steps", "events", "detector_words", "spin_loops",
    "adhoc_edges", "racy_contexts", "faults",
)
PAPER_TOOLS = ["helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7", "drd"]


class TestReplayRecordsEqualLive:
    """A replayed cell's journaled record is the live cell's record.

    Fingerprint equality alone let the two modes count ``events``
    differently (delivered vs accepted) for the same cell.
    """

    def _specs(self):
        specs = sweep_specs(
            ["adhoc7_handoff", "locks_mutex_counter_t2", "blackscholes"], PAPER_TOOLS
        )
        cases = {c.name: c for c in chaos_cases()}
        specs += [
            chaos_spec(cases[name], tool)
            for name in ("drop-flag-store", "kill-lock-holder")
            for tool in PAPER_TOOLS
        ]
        return specs

    def test_replay_records_match_live(self, tmp_path):
        specs = self._specs()
        live = run_sweep(specs, workers=0)
        replay = run_sweep(
            [dataclasses.replace(s, trace_mode="replay") for s in specs],
            workers=0,
            trace_dir=tmp_path,
        )
        assert not live.failed and not replay.failed
        for spec, want, got in zip(specs, live.records, replay.records):
            assert [getattr(got, f) for f in RECORD_FIELDS] == [
                getattr(want, f) for f in RECORD_FIELDS
            ], (spec.workload_name, want.tool)


def _live_fingerprints(specs):
    return {
        (s.workload, s.config): repro.run(s.workload, s.config).report.fingerprint()
        for s in specs
    }


class TestStoreBackedReplayStreams:
    """Every store-backed replay cell streams its recording.

    ``RunSpec.execute`` reads a stored recording through ``open_stream`` and
    never materializes it; prewarm tests for a hit the same way.  A
    stored payload that is checksum-valid but malformed is quarantined
    mid-stream and the cell re-records, in workers as in the parent.
    """

    WORKLOADS = ["adhoc7_handoff", "locks_mutex_counter_t2"]

    def _specs(self):
        specs = sweep_specs(self.WORKLOADS, TOOLS3, seeds=[None])
        return [dataclasses.replace(s, trace_mode="replay") for s in specs]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_replay_sweep_never_materializes_a_stored_trace(
        self, tmp_path, monkeypatch, workers
    ):
        specs = self._specs()
        assert prewarm_traces(specs, tmp_path) == len(self.WORKLOADS)

        def no_decode(self, payload):
            raise AssertionError("a stored trace was materialized")

        # A decode that raises is quarantined as corruption, so any
        # materializing read would leave a note under corrupt/ (the
        # forked workers inherit the patch).
        monkeypatch.setattr(TraceStore, "decode", no_decode)
        prewarm_traces(specs, tmp_path)
        result = run_sweep(specs, workers=workers, trace_dir=tmp_path)
        assert not list((tmp_path / "corrupt").glob("*"))
        assert len(TraceStore(tmp_path)) == len(self.WORKLOADS)
        live = _live_fingerprints(specs)
        assert [r.status for r in result.records] == ["ok"] * len(specs)
        for spec, outcome in zip(specs, result.outcomes):
            assert outcome.trace_mode == "replay"
            assert outcome.report.fingerprint() == live[(spec.workload, spec.config)]

    def test_pooled_sweep_quarantines_a_corrupt_stream_and_rerecords(self, tmp_path):
        from repro.trace.store import key_for_spec

        from tests.integration.test_trace_codec import _cut_mid_jsonl_line

        specs = [s for s in self._specs() if s.workload == "adhoc7_handoff"]
        prewarm_traces(specs, tmp_path)
        store = TraceStore(tmp_path)
        key = key_for_spec(specs[0])
        path = store._path(key)
        path.write_bytes(_cut_mid_jsonl_line(path.read_bytes()))
        # checksum-valid: prewarm sees a hit and records nothing
        assert prewarm_traces(specs, tmp_path) == 0

        result = run_sweep(specs, workers=2, trace_dir=tmp_path)
        assert [r.status for r in result.records] == ["ok"] * len(specs)
        live = _live_fingerprints(specs)
        for spec, outcome in zip(specs, result.outcomes):
            assert outcome.report.fingerprint() == live[(spec.workload, spec.config)]
        notes = [
            json.loads(n.read_text()) for n in (tmp_path / "corrupt").glob("*.note.json")
        ]
        assert notes and all(n["key"] == key for n in notes)
        assert all("undecodable" in n["reason"] for n in notes)
        stream = TraceStore(tmp_path).open_stream(key)
        assert stream is not None
        # the re-recorded entry streams cleanly to its full length
        assert sum(len(rows) for rows in stream.row_batches()) == stream.meta["events"]


class TestSessionTraceRuns:
    def test_session_replay_matches_live(self):
        cfg = "helgrind-lib-spin7"
        live = repro.run(flag_handoff_program, cfg, seed=2)
        trace = record_trace(flag_handoff_program(), seed=2)
        offline = repro.run(config=cfg, trace=trace)
        assert offline.report.fingerprint() == live.report.fingerprint()
        assert offline.program is None and offline.machine is None
        assert offline.trace is trace
        assert offline.seed == 2
        assert offline.result.ok and offline.result.status == "ok"
        assert "flag_handoff" in str(offline)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_session_replay_matches_live_for_every_preset(self, preset):
        live = repro.run(flag_handoff_program, preset, seed=2)
        trace = record_trace(flag_handoff_program(), seed=2, max_blocks=MAX_BLOCKS)
        offline = repro.run(config=preset, trace=trace)
        assert offline.report.fingerprint() == live.report.fingerprint()
        assert offline.config == live.config

    def test_session_accepts_a_trace_file(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=2)
        path = tmp_path / "t.json"
        path.write_text(trace.to_json())
        offline = repro.run(config="helgrind-lib-spin7", trace=path)
        assert (
            offline.report.fingerprint()
            == repro.run(config="helgrind-lib-spin7", trace=trace).report.fingerprint()
        )

    def test_session_streams_a_framed_trace_file(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=2)
        store = TraceStore(tmp_path)
        store.put("k", trace)
        offline = repro.run(
            config="helgrind-lib-spin7", trace=store._path("k")
        )
        inmem = repro.run(config="helgrind-lib-spin7", trace=trace)
        assert offline.report.fingerprint() == inmem.report.fingerprint()
        assert offline.notes == ("streaming-decode",)
        assert isinstance(offline.trace, TraceStream)  # never materialized
        assert offline.seed == 2
        assert inmem.notes == ()  # the in-memory path is unchanged

    def test_session_synthesizes_partial_status(self):
        case = next(c for c in chaos_cases() if c.name == "drop-flag-store")
        spec = chaos_spec(case, ToolConfig.helgrind_lib_spin(7))
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        offline = repro.run(config="helgrind-lib-spin7", trace=trace)
        assert offline.result.status == trace.status == "livelock"
        assert not offline.ok
        assert offline.report.partial

    def test_trace_and_program_are_mutually_exclusive(self):
        trace = record_trace(flag_handoff_program(), seed=2)
        with pytest.raises(ValueError, match="not both"):
            repro.run(flag_handoff_program, trace=trace)

    @pytest.mark.parametrize(
        "kw",
        [
            {"faults": object()},
            {"scheduler": "round-robin"},
            {"max_steps": 10},
            {"livelock_bound": 5},
            {"symbolize": str},
            {"seed": 5},
        ],
    )
    def test_live_only_knobs_rejected_for_trace_sessions(self, kw):
        trace = record_trace(flag_handoff_program(), seed=2)
        with pytest.raises(ValueError, match="live execution"):
            repro.run(trace=trace, **kw)

    def test_neither_program_nor_trace_rejected(self):
        with pytest.raises(ValueError, match="program/workload or a trace"):
            repro.run()
