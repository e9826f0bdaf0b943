"""The grand sweep's cell list (:func:`repro.harness.grand.grand_specs`):
whole replay-mode cells over the suite and the chaos matrix, and those
cells run through :func:`~repro.harness.parallel.run_sweep`."""

import dataclasses

import pytest

from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_cases, chaos_spec
from repro.harness.checkpoint import spec_key
from repro.harness.grand import grand_specs
from repro.harness.parallel import run_sweep
from repro.harness.registry import resolve_tool
from repro.trace import TraceStore, analyze_trace, key_for_spec
from repro.workloads import build_suite

TOOLS2 = ["helgrind-lib", "drd"]
CHAOS_NAMES = [c.name for c in chaos_cases()]


class TestGrandSpecs:
    def test_every_cell_is_a_replay(self):
        specs = grand_specs(TOOLS2, suite_limit=2)
        assert specs
        assert all(s.trace_mode == "replay" for s in specs)

    def test_count_is_suite_and_chaos_times_presets(self):
        n_chaos = len(chaos_cases())
        assert len(grand_specs(TOOLS2, suite_limit=3)) == 3 * 2 + n_chaos * 2
        assert len(grand_specs(TOOLS2, suite_limit=3, include_chaos=False)) == 3 * 2
        seeded = grand_specs(TOOLS2, suite_limit=3, include_chaos=False, seeds=(1, 2))
        assert len(seeded) == 3 * 2 * 2

    def test_chaos_cells_keep_fault_plans_and_livelock_bounds(self):
        specs = grand_specs(["drd"], suite_limit=1)
        chaos = specs[1:]
        expected = [chaos_spec(case, "drd") for case in chaos_cases()]
        assert [(s.workload, s.fault_plan, s.livelock_bound) for s in chaos] == [
            (e.workload, e.fault_plan, e.livelock_bound) for e in expected
        ]
        assert any(s.fault_plan for s in chaos)
        assert any(s.livelock_bound for s in chaos)

    def test_cell_major_layout(self):
        # workload-major, then preset, then seed: the cells of one
        # recording sit next to each other in the sweep log
        suite = [wl.name for wl in build_suite()[:2]]
        specs = grand_specs(TOOLS2, suite_limit=2, include_chaos=False, seeds=(1, 2, 3))
        assert [(s.workload, s.config, s.seed) for s in specs] == [
            (wl, cfg, seed) for wl in suite for cfg in TOOLS2 for seed in (1, 2, 3)
        ]

    @pytest.mark.parametrize("preset", ToolConfig.presets())
    def test_every_preset_expands_to_distinct_replay_cells(self, preset):
        specs = grand_specs([preset])
        assert len(specs) == len(build_suite()) + len(chaos_cases())
        assert all(s.trace_mode == "replay" for s in specs)
        assert {s.tool().name for s in specs} == {resolve_tool(preset).name}
        # no two cells share a cache / journal key
        assert len({spec_key(s) for s in specs}) == len(specs)


class TestGrandSweep:
    """Grand cells are ordinary replay specs: ``run_sweep`` runs them."""

    def test_needs_a_store_location(self):
        specs = grand_specs(TOOLS2, suite_limit=1, include_chaos=False)
        with pytest.raises(ValueError, match="trace"):
            run_sweep(specs, workers=0)

    @pytest.mark.parametrize("preset", ToolConfig.presets())
    def test_suite_cells_equal_direct_analysis(self, preset, tmp_path):
        specs = grand_specs([preset], suite_limit=2, include_chaos=False)
        result = run_sweep(specs, workers=0, trace_dir=tmp_path)
        assert not result.failed
        store = TraceStore(tmp_path)
        for spec, outcome in zip(result.specs, result.outcomes):
            assert outcome.trace_mode == "replay"
            trace = store.get(key_for_spec(spec))
            direct = analyze_trace(trace, resolve_tool(preset))
            assert outcome.report.fingerprint() == direct.report.fingerprint()

    @pytest.mark.parametrize("case", CHAOS_NAMES)
    def test_chaos_cell_equals_live_chaos_run(self, case, tmp_path):
        specs = [
            s
            for s in grand_specs(TOOLS2, suite_limit=1)
            if s.fault_plan or s.livelock_bound
        ]
        index = CHAOS_NAMES.index(case)
        cells = specs[index * len(TOOLS2) : (index + 1) * len(TOOLS2)]
        live_specs = [dataclasses.replace(s, trace_mode="live") for s in cells]
        replay = run_sweep(cells, workers=0, trace_dir=tmp_path)
        live = run_sweep(live_specs, workers=0)
        assert len(TraceStore(tmp_path)) == 1  # one recording, both presets
        for r, l, rr, lr in zip(
            replay.outcomes, live.outcomes, replay.records, live.records
        ):
            assert r.report.fingerprint() == l.report.fingerprint()
            assert r.result.status == l.result.status
            assert rr.status == lr.status

    def test_chaos_cells_flagged(self, tmp_path):
        # chaos cells end abnormally on purpose (livelock / fault), yet
        # none of them counts as a sweep failure
        specs = grand_specs(["drd"], suite_limit=1)
        result = run_sweep(specs, workers=0, trace_dir=tmp_path)
        statuses = [r.status for r in result.records]
        assert statuses[0] == "ok"
        assert set(statuses[1:]) - {"ok"}, "no chaos cell ended abnormally"
        assert not result.failed

    def test_journal_resume_restores_records(self, tmp_path):
        specs = grand_specs(TOOLS2, suite_limit=2, include_chaos=False)
        kw = dict(
            workers=0, trace_dir=tmp_path / "traces", journal_dir=tmp_path / "journal"
        )
        first = run_sweep(specs, **kw)
        again = run_sweep(specs, resume=True, **kw)
        assert again.resumed == len(specs)
        # resumed records are served verbatim from the journal
        assert again.records == first.records
