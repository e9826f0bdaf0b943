"""One read-only build per registered workload name, shared by every run.

Sweep cells, static prewarm, trace recording and ``repro.run`` by name
all run :func:`repro.harness.registry.shared_program`; forked sweep
workers inherit the parent's build.  These tests pin that a sweep builds
each program once per process tree and that no run, triage capture or
shrink mutates the shared build.
"""

import os

import pytest

import repro
from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_spec
from repro.harness.parallel import ResultCache, _failure_record, run_sweep, sweep_specs
from repro.harness.registry import (
    program_fingerprint,
    register_workload,
    resolve_workload,
    shared_program,
    unregister_workload,
)
from repro.harness.triage import apply_nops, capture_failure, shrink_candidates
from repro.harness.workload import Workload
from repro.isa.program import BasicBlock, Function, GlobalVar
from repro.session import run
from repro.workloads import build_suite, parsec_workloads
from repro.workloads.dr_test.faults import chaos_cases

from tests.conftest import flag_handoff_program

PAPER_PRESETS = ("helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7", "drd")


def _report_fps(result):
    return [o.report.fingerprint() for o in result.outcomes]


def _recomputed(program) -> str:
    program._fingerprint = None
    return program.fingerprint()


class TestOneBuildPerProcessTree:
    NAME = "_shared_build_counted"

    @pytest.fixture
    def counted(self, tmp_path):
        log = tmp_path / "builds.txt"

        def build():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return flag_handoff_program()

        register_workload(Workload(name=self.NAME, build=build, seed=1), replace=True)
        try:
            yield log
        finally:
            unregister_workload(self.NAME)

    def test_pooled_sweep_builds_once_in_the_parent(self, counted, tmp_path):
        specs = sweep_specs([self.NAME], PAPER_PRESETS, seeds=(1, 2))
        pooled = run_sweep(
            specs,
            workers=2,
            cache=ResultCache(tmp_path / "cache"),
            journal_dir=tmp_path / "journal",
        )
        assert not pooled.failed and len(pooled.records) == 8
        assert counted.read_text().split() == [str(os.getpid())]

        serial = run_sweep(specs, workers=0)
        assert counted.read_text().split() == [str(os.getpid())]
        assert _report_fps(pooled) == _report_fps(serial)

        wl = resolve_workload(self.NAME)
        fresh = [
            run(wl, spec.tool(), seed=spec.seed).report.fingerprint()
            for spec in specs
        ]
        assert _report_fps(pooled) == fresh

    def test_reregistering_swaps_and_unregistering_drops(self, counted):
        first = shared_program(self.NAME)
        assert shared_program(self.NAME) is first
        with pytest.raises(ValueError, match="read-only"):
            first.add_global(GlobalVar("extra"))
        fp = program_fingerprint(self.NAME)

        def other():
            p = flag_handoff_program()
            p.name = "swapped"
            return p

        register_workload(Workload(name=self.NAME, build=other), replace=True)
        second = shared_program(self.NAME)
        assert second is not first and second.name == "swapped"
        assert program_fingerprint(self.NAME) != fp

        unregister_workload(self.NAME)
        with pytest.raises(KeyError):
            shared_program(self.NAME)


class TestRunsNeverMutateSharedPrograms:
    def test_every_run_path_leaves_the_build_intact(self, monkeypatch):
        cases = chaos_cases()
        specs = sweep_specs([wl.name for wl in build_suite()], PAPER_PRESETS)
        specs += sweep_specs([wl.name for wl in parsec_workloads()], ["helgrind-lib-spin7"])
        # chaos cases carry both a fault plan and an armed watchdog
        specs += [chaos_spec(c, ToolConfig.helgrind_lib_spin(7)) for c in cases]
        assert any(s.fault_plan is not None for s in specs)
        assert any(s.livelock_bound is not None for s in specs)
        names = sorted({s.workload for s in specs})
        before = {n: shared_program(n).fingerprint() for n in names}

        # Every run must take the shared build: a fresh build is an error.
        def no_fresh_build(self):
            raise AssertionError(f"{self.name} rebuilt during a by-name run")

        monkeypatch.setattr(Workload, "fresh_program", no_fresh_build)
        result = run_sweep(specs, workers=0)
        assert not result.failed
        session = repro.run("streamcluster", "helgrind-lib-spin7")
        assert session.program is shared_program("streamcluster")
        monkeypatch.undo()

        assert {n: _recomputed(shared_program(n)) for n in names} == before

    def test_triage_shrinks_a_fresh_build(self, tmp_path):
        case = {c.name: c for c in chaos_cases()}["drop-flag-store"]
        spec = chaos_spec(case, ToolConfig.helgrind_lib_spin(7))
        shared = shared_program(spec.workload)
        before = shared.fingerprint()

        record = _failure_record(spec, "livelock", 1, "")
        dest = capture_failure(spec, record, tmp_path, key="cd" * 32)
        assert dest is not None and (dest / "shrunk_trace.trc").exists()

        assert shared_program(spec.workload) is shared
        assert _recomputed(shared) == before
        with pytest.raises(ValueError, match="read-only"):
            shared.add_function(Function("extra", blocks={"entry": BasicBlock("entry")}))
        with pytest.raises(ValueError, match="read-only"):
            apply_nops(shared, shrink_candidates(shared)[:1])
        assert _recomputed(shared) == before
