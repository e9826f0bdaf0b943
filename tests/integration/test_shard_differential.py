"""Sharded-analysis differential gate.

The tentpole guarantee of :mod:`repro.trace.shard`: partitioning a
recorded trace's access events by address region, analyzing the K shards
independently (each with its own detector), and merging the shard
reports yields a :class:`~repro.detectors.reports.Report` whose *full
fingerprint* is bit-identical to unsharded
:func:`~repro.trace.analyze_trace` — across the whole 120-case suite,
every named preset, K ∈ {1, 2, 4, 8}, and the chaos cases whose traces
truncate partially (deadlock / livelock / fault-killed threads).

Also pinned here: the shard-boundary edge cases (a race whose warnings
come from different shards, shards that receive only replicated sync
traffic, more shards than address regions, K=1 identity), the merge
invariant battery (:class:`~repro.trace.shard.ShardMergeError`), the
fork-pool path (``workers > 0`` is fingerprint-invisible), and the
``repro.run(trace=..., shards=K)`` session front door.
"""

import pytest

import repro
from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_spec
from repro.harness.registry import resolve_tool
from repro.trace import (
    ShardMergeError,
    TraceStore,
    analyze_trace,
    analyze_trace_sharded,
    merge_shard_reports,
    plan_shards,
    record_trace,
    run_shard,
)
from repro.vm.events import READ, WRITE
from repro.workloads.dr_test.faults import chaos_cases
from repro.workloads.dr_test.suite import build_suite

from tests.conftest import flag_handoff_program

SUITE = build_suite()
PRESET_NAMES = ToolConfig.presets()
PRESETS = [resolve_tool(name) for name in PRESET_NAMES]
SHARD_COUNTS = (1, 2, 4, 8)

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
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_sharded_fingerprint_equals_unsharded_across_the_suite(self, preset):
        cfg = resolve_tool(preset)
        mismatches = []
        for wl in SUITE:
            trace = _recorded(wl)
            base = analyze_trace(trace, cfg).report.fingerprint()
            for k in SHARD_COUNTS:
                sharded = analyze_trace_sharded(trace, cfg, shards=k, workers=0)
                if sharded.report.fingerprint() != base:
                    mismatches.append((wl.name, k))
        assert not mismatches, f"{preset}: sharded merge diverged on {mismatches}"


class TestChaosDifferential:
    """Partial traces: fault-truncated recordings must shard faithfully."""

    @pytest.mark.parametrize("case", [c.name for c in chaos_cases()])
    def test_chaos_sharded_matches_unsharded_for_every_preset(self, case):
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
        mismatches = []
        for cfg in PRESETS:
            base = analyze_trace(trace, cfg).report
            for k in SHARD_COUNTS:
                sharded = analyze_trace_sharded(trace, cfg, shards=k, workers=0)
                assert sharded.report.partial == (trace.status != "ok")
                if sharded.report.fingerprint() != base.fingerprint():
                    mismatches.append((cfg.name, k))
        assert not mismatches, f"{case}: sharded merge diverged under {mismatches}"


class TestShardBoundaries:
    """The constructed edge cases a partition scheme can get wrong."""

    def _trace(self):
        if "flag_handoff" not in _trace_memo:
            _trace_memo["flag_handoff"] = record_trace(
                flag_handoff_program(), seed=2, max_blocks=MAX_BLOCKS
            )
        return _trace_memo["flag_handoff"]

    def test_k1_is_the_identity(self):
        trace = self._trace()
        cfg = resolve_tool("helgrind-lib")
        sharded = analyze_trace_sharded(trace, cfg, shards=1, workers=0)
        base = analyze_trace(trace, cfg)
        assert sharded.report.fingerprint() == base.report.fingerprint()
        assert sharded.shards == 1
        # one shard owns everything — nothing is replicated across peers
        assert sharded.plan.shards == 1
        assert set(sharded.plan.owner_of.values()) <= {0}

    def test_warnings_from_different_shards_merge_in_global_order(self):
        # Find a suite case whose racy addresses land in different shards
        # under K=8 — the merge's seq-sort is what keeps the report's
        # warning order (and therefore the fingerprint) global.
        cfg = resolve_tool("helgrind-lib")
        for wl in SUITE:
            trace = _recorded(wl)
            base = analyze_trace(trace, cfg)
            if base.report.racy_contexts < 2:
                continue
            reports = [run_shard(trace, cfg, i, 8) for i in range(8)]
            contributing = [r.shard_index for r in reports if r.warnings]
            if len(contributing) >= 2:
                merged = merge_shard_reports(reports)
                assert merged.fingerprint() == base.report.fingerprint()
                return
        pytest.fail("no suite case produced warnings from >= 2 shards at K=8")

    def test_sync_only_shards_still_merge(self):
        # With more shards than owned regions, some shards receive only
        # the replicated sync/ctrl stream; they must still contribute a
        # valid frontier and merge cleanly.
        trace = self._trace()
        cfg = resolve_tool("helgrind-lib-spin7")
        plan = plan_shards(trace, cfg, 8)
        owners = set(plan.owner_of.values())
        idle = set(range(8)) - owners
        assert idle, "expected at least one shard with no owned region"
        reports = [run_shard(trace, cfg, i, 8) for i in range(8)]
        for i in idle:
            assert not reports[i].warnings
        merged = merge_shard_reports(reports)
        assert merged.fingerprint() == analyze_trace(trace, cfg).report.fingerprint()

    def test_more_shards_than_regions(self):
        trace = self._trace()
        cfg = resolve_tool("helgrind-lib")
        sharded = analyze_trace_sharded(trace, cfg, shards=64, workers=0)
        assert sharded.report.fingerprint() == analyze_trace(
            trace, cfg
        ).report.fingerprint()

    def test_every_access_address_has_exactly_one_owner(self):
        trace = self._trace()
        cfg = resolve_tool("helgrind-lib-spin7")
        plan = plan_shards(trace, cfg, 4)
        cols = trace.columns
        addrs = {a for k, a in zip(cols.kind, cols.addr) if k in (READ, WRITE)}
        for addr in addrs:
            assert addr in plan.owner_of
            assert 0 <= plan.owner_of[addr] < 4

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            analyze_trace_sharded(self._trace(), resolve_tool("drd"), shards=0)

    def test_shard_index_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="index"):
            run_shard(self._trace(), resolve_tool("drd"), 4, 4)


class TestMergeInvariants:
    """A merge over inconsistent shard reports must refuse, not guess."""

    def _reports(self, k=2):
        return [
            run_shard(self._trace(), resolve_tool("helgrind-lib"), i, k)
            for i in range(k)
        ]

    def _trace(self):
        if "flag_handoff" not in _trace_memo:
            _trace_memo["flag_handoff"] = record_trace(
                flag_handoff_program(), seed=2, max_blocks=MAX_BLOCKS
            )
        return _trace_memo["flag_handoff"]

    def test_empty_merge_rejected(self):
        with pytest.raises(ShardMergeError):
            merge_shard_reports([])

    def test_missing_shard_rejected(self):
        with pytest.raises(ShardMergeError, match="expected 2 shards"):
            merge_shard_reports(self._reports(2)[:1])

    def test_duplicate_shard_rejected(self):
        a, _ = self._reports(2)
        with pytest.raises(ShardMergeError, match="indices"):
            merge_shard_reports([a, a])

    def test_cross_tool_merge_rejected(self):
        trace = self._trace()
        a = run_shard(trace, resolve_tool("helgrind-lib"), 0, 2)
        b = run_shard(trace, resolve_tool("drd"), 1, 2)
        with pytest.raises(ShardMergeError):
            merge_shard_reports([a, b])

    def test_tampered_frontier_rejected(self):
        a, b = self._reports(2)
        tid = next(iter(a.frontier), None)
        if tid is None:
            pytest.skip("no threads in frontier")
        a.frontier[tid] += 7
        with pytest.raises(ShardMergeError, match="frontier"):
            merge_shard_reports([a, b])


class TestForkPool:
    """``workers > 0`` forks the shard analyses; results must be
    bit-identical to the serial reference path."""

    def test_forked_matches_serial(self):
        trace = record_trace(flag_handoff_program(), seed=2, max_blocks=MAX_BLOCKS)
        cfg = resolve_tool("helgrind-lib-spin7")
        serial = analyze_trace_sharded(trace, cfg, shards=4, workers=0)
        forked = analyze_trace_sharded(trace, cfg, shards=4, workers=2)
        assert forked.report.fingerprint() == serial.report.fingerprint()
        assert forked.workers == 2

    def test_forked_partial_trace(self):
        spec = chaos_spec(
            next(c for c in chaos_cases() if c.name == "drop-flag-store"),
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
        assert trace.status != "ok"
        cfg = resolve_tool("helgrind-lib-spin7")
        forked = analyze_trace_sharded(trace, cfg, shards=4, workers=2)
        assert forked.report.partial
        assert forked.report.fingerprint() == analyze_trace(
            trace, cfg
        ).report.fingerprint()


class TestSessionSharding:
    def test_session_sharded_matches_unsharded(self):
        trace = record_trace(flag_handoff_program(), seed=2)
        cfg = "helgrind-lib-spin7"
        base = repro.run(config=cfg, trace=trace)
        sharded = repro.run(config=cfg, trace=trace, shards=2)
        assert sharded.report.fingerprint() == base.report.fingerprint()
        assert sharded.detector is None
        assert sharded.notes == ("sharded:2",)
        assert sharded.result.status == base.result.status

    def test_shards_require_a_trace(self):
        with pytest.raises(ValueError, match="trace"):
            repro.run(flag_handoff_program, shards=2)

    def test_shards_reject_framed_streams(self, tmp_path):
        trace = record_trace(flag_handoff_program(), seed=2)
        store = TraceStore(tmp_path)
        store.put("k", trace)
        with pytest.raises(ValueError, match="materialized"):
            repro.run(
                config="helgrind-lib-spin7", trace=store._path("k"), shards=2
            )
