"""Failure forensics: artifact capture, ddmin shrinking, replay."""

import dataclasses
import json
import os

import pytest

from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_spec, run_chaos
from repro.harness.parallel import RunSpec, _failure_record, run_sweep
from repro.harness.triage import (
    ARTIFACT_KIND,
    CaptureUnit,
    capture_failure,
    capture_failures,
    chaos_oracle_predicate,
    failure_predicate,
    load_artifact,
    replay_artifact,
    shrink_candidates,
    shrink_failure,
)
from repro.harness.workload import Workload
from repro.isa import instructions as ins
from repro.trace import (
    FileColumns,
    analyze_trace,
    open_trace_file,
    record_trace,
    replay_trace,
)
from repro.workloads.dr_test.faults import chaos_cases

from tests.conftest import flag_handoff_program


def _case(name):
    return {c.name: c for c in chaos_cases()}[name]


CONFIG = ToolConfig.helgrind_lib_spin(7)


class TestPredicates:
    def test_wallclock_statuses_accept_any_abnormal_ending(self):
        for status in ("timeout", "hung", "crash", "error", "poison"):
            pred = failure_predicate(status)
            assert pred(_FakeTrace("livelock")) and pred(_FakeTrace("step-limit"))
            assert not pred(_FakeTrace("ok"))

    def test_exact_statuses_must_match(self):
        pred = failure_predicate("livelock")
        assert pred(_FakeTrace("livelock"))
        assert not pred(_FakeTrace("deadlock"))

    def test_fault_accepts_both_abnormal_shapes(self):
        pred = failure_predicate("fault")
        assert pred(_FakeTrace("deadlock")) and pred(_FakeTrace("step-limit"))
        assert not pred(_FakeTrace("ok"))


class _FakeTrace:
    def __init__(self, status):
        self.status = status


class TestShrinkCandidates:
    def test_excludes_library_terminators_and_nops(self):
        program = flag_handoff_program()
        locs = shrink_candidates(program)
        assert locs, "a real program offers candidates"
        for loc in locs:
            func = program.functions[loc.function]
            assert not func.is_library
            instr = program.instruction_at(loc)
            assert not ins.is_terminator(instr)
            assert not isinstance(instr, ins.Nop)


class TestShrinker:
    def test_shrinks_chaos_livelock_to_smaller_still_failing_repro(self):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CONFIG)
        workload = spec.resolve()
        trace, stats = shrink_failure(
            workload.fresh_program,
            failure_predicate("livelock"),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        assert trace is not None and trace.status == "livelock"
        assert stats.nopped > 0, "ddmin must remove something"
        assert stats.retained < stats.candidates
        assert stats.steps_spent > 0 and stats.trials > 1
        # the shrunk repro still fails under replay
        detector = replay_trace(trace, CONFIG)
        detector.finalize(partial=not trace.ok)
        assert trace.status != "ok"

    def test_non_reproducing_failure_reports_not_reproduced(self):
        wl = Workload(name="triage_healthy", build=flag_handoff_program, seed=1)
        trace, stats = shrink_failure(
            wl.fresh_program,
            failure_predicate("livelock"),  # a healthy run never livelocks
            seed=1,
            max_steps=100_000,
        )
        assert trace is None and stats.status == "not-reproduced"
        assert stats.nopped == 0

    def test_budget_bounds_the_loop(self):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CONFIG)
        _, stats = shrink_failure(
            spec.resolve().fresh_program,
            failure_predicate("livelock"),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
            step_budget=1,  # exhausted after the baseline run
        )
        assert stats.trials <= 2


class TestCaptureAndReplay:
    def test_capture_writes_committed_format_artifact(self, tmp_path):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CONFIG)
        record = _failure_record(spec, "timeout", 2, "exceeded 0.1s")
        dest = capture_failure(spec, record, tmp_path, key="ab" * 32)
        assert dest is not None
        meta = json.loads((dest / "repro.json").read_text())
        assert meta["format"] == ARTIFACT_KIND and meta["version"] == 2
        assert meta["trace_status"] == "livelock"
        assert open_trace_file(dest / "trace.trc").status == "livelock"
        assert meta["shrunk"] and (dest / "shrunk_trace.trc").exists()
        assert meta["shrink"]["nopped"] > 0
        # the tool config round-trips through the artifact
        assert ToolConfig(**meta["config"]) == CONFIG

    def test_capture_records_the_failing_run_once(self, tmp_path, monkeypatch):
        import repro.harness.triage as triage

        calls = []
        real = triage.record_trace

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(triage, "record_trace", counting)
        spec = chaos_spec(_case("drop-flag-store"), CONFIG)
        record = _failure_record(spec, "livelock", 1, "")
        dest = capture_failure(spec, record, tmp_path)
        shrink = load_artifact(dest)["shrink"]
        # the artifact's recording doubles as the shrinker's baseline
        # trial: one recording per trial, none on top
        assert shrink["trials"] > 1
        assert len(calls) == shrink["trials"]
        assert calls[0] == spec.effective_seed()

    def test_replay_artifact_reproduces_shrunk_failure(self, tmp_path):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CONFIG)
        record = _failure_record(spec, "livelock", 1, "")
        dest = capture_failure(spec, record, tmp_path)
        trace, detector = replay_artifact(dest, shrunk=True)
        assert trace.status == "livelock"
        assert detector.report is not None
        # a different tool can analyze the same failing execution
        trace2, _ = replay_artifact(dest, config="helgrind-lib", shrunk=True)
        assert trace2.status == "livelock"

    def test_isolated_capture_survives_a_crashing_workload(self, tmp_path):
        def exit_build():
            import os

            os._exit(17)

        wl = Workload(name="triage_exit", build=exit_build, seed=1)
        spec = RunSpec(wl, CONFIG, 1)
        record = _failure_record(spec, "crash", 1, "exit code 17")
        # the pool runs the capture in a worker: the os._exit kills the
        # worker, not this test process, and capture reports failure
        (dest,) = capture_failures([CaptureUnit(spec, record, tmp_path)], workers=1)
        assert dest is None

    def test_load_artifact_rejects_foreign_json(self, tmp_path):
        (tmp_path / "repro.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError):
            load_artifact(tmp_path)
        # a version 1 artifact holds JSON traces, which nothing reads
        (tmp_path / "repro.json").write_text(
            json.dumps({"format": ARTIFACT_KIND, "version": 1, "trace": "trace.json"})
        )
        with pytest.raises(ValueError, match="artifact version 1"):
            load_artifact(tmp_path)

    def test_replay_artifact_streams_and_matches_in_memory_analysis(self, tmp_path):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CONFIG)
        record = _failure_record(spec, "livelock", 1, "")
        dest = capture_failure(spec, record, tmp_path, shrink=False)
        assert load_artifact(dest)["shrunk"] is None
        stream, detector = replay_artifact(dest)
        assert isinstance(stream.columns, FileColumns)
        trace = record_trace(
            spec.resolve().fresh_program(),
            seed=spec.effective_seed(),
            max_steps=spec.effective_max_steps(),
            max_blocks=8,
            fault_plan=spec.fault_plan,
            livelock_bound=spec.livelock_bound,
        )
        assert len(stream.columns) == len(trace.columns)
        expected = analyze_trace(trace, CONFIG).report.fingerprint()
        assert detector.report.fingerprint() == expected
        with pytest.raises(ValueError, match="no shrunk trace"):
            replay_artifact(dest, shrunk=True)


class TestSweepForensics:
    def test_failed_run_produces_artifact(self, tmp_path):
        from tests.harness.test_parallel import _spin_forever_program

        # a busy spin that exhausts a 300k-step budget: slow enough to
        # trip a 50ms wall-clock timeout in the pool, fast enough for
        # the forensic re-run (which is step- not wall-clock-bounded)
        wl = Workload(
            name="triage_slow_spin",
            build=_spin_forever_program,
            seed=1,
            max_steps=300_000,
        )
        spec = RunSpec(wl, CONFIG, 1)
        result = run_sweep(
            [spec],
            workers=1,
            timeout_s=0.05,
            retries=0,
            forensics_dir=tmp_path,
        )
        (rec,) = result.records
        assert rec.status == "timeout"
        artifacts = list(tmp_path.glob("*/repro.json"))
        assert len(artifacts) == 1
        meta = json.loads(artifacts[0].read_text())
        assert meta["record"]["status"] == "timeout"
        assert meta["trace_status"] == "step-limit"

    def test_pooled_forensics_survive_a_crashing_capture(self, tmp_path):
        from tests.harness.test_parallel import _spin_forever_program

        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:  # spare the parent's key and prewarm
                os._exit(23)
            return flag_handoff_program()

        slow = Workload(
            name="triage_pool_spin",
            build=_spin_forever_program,
            seed=1,
            max_steps=300_000,
        )
        exiting = Workload(name="triage_pool_exit", build=exit_build, seed=1)
        result = run_sweep(
            [RunSpec(slow, CONFIG, 1), RunSpec(exiting, CONFIG, 1)],
            workers=2,
            timeout_s=0.05,
            retries=0,
            forensics_dir=tmp_path,
        )
        assert sorted(r.status for r in result.records) == ["crash", "timeout"]
        # the crashing workload takes its capture worker down, not the
        # sweep: only the spinning run leaves an artifact
        artifacts = list(tmp_path.glob("*/repro.json"))
        assert len(artifacts) == 1
        meta = json.loads(artifacts[0].read_text())
        assert meta["workload"] == "triage_pool_spin"

    def test_serial_resume_captures_journaled_crash_off_process(self, tmp_path):
        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:  # spare the parent's key computation
                os._exit(29)
            return flag_handoff_program()

        wl = Workload(name="triage_resume_exit", build=exit_build, seed=1)
        spec = RunSpec(wl, CONFIG, 1)
        journal = tmp_path / "journal"
        first = run_sweep([spec], workers=2, retries=0, journal_dir=journal)
        assert [r.status for r in first.records] == ["crash"]
        # a serial resume serves the journaled crash without running it;
        # its capture still runs in a pool worker, where the build exits.
        # In this process the build succeeds, so an inline capture would
        # have written an artifact.
        resumed = run_sweep(
            [spec],
            workers=0,
            retries=0,
            journal_dir=journal,
            resume=True,
            forensics_dir=tmp_path / "forensics",
        )
        assert resumed.resumed == 1
        assert [r.status for r in resumed.records] == ["crash"]
        assert list((tmp_path / "forensics").glob("*/repro.json")) == []

    def test_capture_pool_that_cannot_fork_does_not_sink_the_sweep(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.harness.parallel import WorkerPool

        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:
                os._exit(31)
            return flag_handoff_program()

        fork = WorkerPool._fork

        def refusing_fork(self):
            if self._table and isinstance(self._table[0], CaptureUnit):
                raise OSError("fork refused")
            return fork(self)

        monkeypatch.setattr(WorkerPool, "_fork", refusing_fork)
        wl = Workload(name="triage_nofork", build=exit_build, seed=1)
        spec = RunSpec(wl, CONFIG, 1)
        with caplog.at_level("WARNING"):
            result = run_sweep([spec], workers=1, retries=0, forensics_dir=tmp_path)
        assert [r.status for r in result.records] == ["crash"]
        assert list(tmp_path.glob("*/repro.json")) == []
        assert "forensics capture pool failed" in caplog.text


class TestChaosForensics:
    def test_oracle_mismatch_produces_shrunk_artifact(self, tmp_path):
        # force a mismatch: the case expects "ok" but the fault livelocks
        case = dataclasses.replace(
            _case("drop-flag-store"), expect_statuses=("ok",), expect_cond_symbol=""
        )
        shrunk = {}
        for workers in (0, 2):
            root = tmp_path / f"w{workers}"
            report = run_chaos(
                cases=[case], config=CONFIG, workers=workers, forensics_dir=root
            )
            assert not report.ok
            artifacts = list(root.glob("*/repro.json"))
            assert len(artifacts) == 1
            dest = artifacts[0].parent
            trace, _ = replay_artifact(dest, shrunk=True)
            # the shrunk repro still violates the (doctored) oracle
            assert chaos_oracle_predicate(case, CONFIG)(trace)
            shrunk[workers] = (dest.name, (dest / "shrunk_trace.trc").read_bytes())
        # the oracle predicate reaches a forked capture worker intact
        assert shrunk[0] == shrunk[2]

    def test_passing_chaos_suite_writes_no_artifacts(self, tmp_path):
        cases = [_case("drop-flag-store")]
        report = run_chaos(
            cases=cases, config=CONFIG, workers=0, forensics_dir=tmp_path
        )
        assert report.ok
        assert list(tmp_path.glob("*/repro.json")) == []
