"""The chaos sweep: oracle pinning, determinism, cache keys, diagnostics."""

import pytest

from repro.detectors import ToolConfig
from repro.harness.chaos import (
    ChaosReport,
    chaos_spec,
    chaos_table,
    run_chaos,
    verify_case,
)
from repro.harness.parallel import FAILED_STATUSES, ResultCache, RunSpec, run_sweep
from repro.harness.registry import register_workload, unregister_workload
from repro.harness.runner import run_workload
from repro.harness.workload import Workload
from repro.isa import ProgramBuilder, instructions as ins
from repro.vm.faults import DropStore, FaultPlan
from repro.workloads import chaos_cases, chaos_workloads

CFG = ToolConfig.helgrind_lib_spin(7)


def _case(name):
    return next(c for c in chaos_cases() if c.name == name)


def _workload(name):
    return next(w for w in chaos_workloads() if w.name == name)


class TestOracle:
    def test_every_case_passes_serially(self):
        report = run_chaos(workers=0)
        assert report.ok, "\n".join(
            f"{v.case}: {v.detail}" for v in report.failed
        )
        assert len(report.verdicts) == len(chaos_cases())

    def test_no_run_is_failed_or_raises(self):
        report = run_chaos(workers=0)
        assert not any(r.failed for r in report.records)
        assert not any(r.status in FAILED_STATUSES for r in report.records)

    def test_abnormal_statuses_carry_diagnostics(self):
        report = run_chaos(workers=0)
        for rec in report.records:
            if rec.status in ("livelock", "fault"):
                assert rec.error, rec.workload
            if rec.status == "livelock":
                assert "stuck in marked loop" in rec.error
            assert rec.faults >= 1

    def test_table_renders(self):
        report = run_chaos(workers=0)
        table = chaos_table(report)
        assert "Chaos suite" in table and "PASS" in table


class TestDeterminism:
    def test_parallel_matches_serial(self):
        serial = run_chaos(workers=0)
        parallel = run_chaos(workers=2)
        assert [(v.case, v.status, v.passed) for v in serial.verdicts] == [
            (v.case, v.status, v.passed) for v in parallel.verdicts
        ]
        assert [(r.workload, r.status, r.faults) for r in serial.records] == [
            (r.workload, r.status, r.faults) for r in parallel.records
        ]

    def test_same_spec_reproduces_report_and_diagnosis(self):
        case = _case("drop-flag-store")
        outs = [
            run_workload(
                _workload(case.workload),
                CFG,
                seed=case.seed,
                fault_plan=case.plan,
                livelock_bound=case.livelock_bound,
            )
            for _ in range(2)
        ]
        a, b = outs
        assert a.result.status == b.result.status == "livelock"
        assert a.result.diagnose() == b.result.diagnose()
        assert sorted(map(str, a.report.warnings)) == sorted(
            map(str, b.report.warnings)
        )

    def test_cached_rerun_still_satisfies_the_oracle(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_chaos(workers=0, cache=cache)
        assert first.ok
        second = run_chaos(workers=0, cache=cache)
        assert second.ok
        assert all(r.status == "cached" for r in second.records)


class TestDurability:
    def test_infra_failures_cover_supervision_verdicts(self):
        # a hung worker is an infrastructure failure, not an oracle failure
        assert set(FAILED_STATUSES) == {"timeout", "crash", "error", "hung"}

    def test_resumed_chaos_matches_fresh_verdicts(self, tmp_path):
        # journal gives record durability; the cache supplies the detector
        # outcomes that note/livelock oracles inspect on resume
        cache = ResultCache(tmp_path / "cache")
        jdir = tmp_path / "journal"
        fresh = run_chaos(workers=0, cache=cache, journal_dir=jdir)
        resumed = run_chaos(
            workers=0, cache=cache, journal_dir=jdir, resume=True
        )
        assert fresh.ok and resumed.ok
        assert [(v.case, v.status, v.passed) for v in fresh.verdicts] == [
            (v.case, v.status, v.passed) for v in resumed.verdicts
        ]
        # every record came straight from the one sweep's journal
        assert len(resumed.records) == len(fresh.records)
        journals = list(jdir.glob("sweep-*.jsonl"))
        assert len(journals) == 1
        journaled = len(journals[0].read_text().splitlines()) - 1
        assert journaled == len(fresh.records)

    def test_resume_without_a_cache_is_rejected(self, tmp_path):
        # the journal alone restores records, not the outcomes the
        # livelock/note oracles read: resumed verdicts would be bogus FAILs
        jdir = tmp_path / "journal"
        with pytest.raises(ValueError, match="cache"):
            run_chaos(workers=0, journal_dir=jdir, resume=True)
        assert not jdir.exists()


class TestCacheKey:
    def test_key_varies_with_fault_plan_and_bound(self, tmp_path):
        cache = ResultCache(tmp_path)
        register_workload(_workload("chaos_flag_handoff"), replace=True)
        try:
            base = RunSpec("chaos_flag_handoff", CFG, 1)
            plan = FaultPlan(faults=(DropStore(symbol="FLAG"),))
            keys = {
                cache.key(base),
                cache.key(RunSpec("chaos_flag_handoff", CFG, 1, fault_plan=plan)),
                cache.key(
                    RunSpec(
                        "chaos_flag_handoff", CFG, 1, fault_plan=plan,
                        livelock_bound=500,
                    )
                ),
                cache.key(
                    RunSpec("chaos_flag_handoff", CFG, 1, livelock_bound=500)
                ),
            }
            assert len(keys) == 4
        finally:
            unregister_workload("chaos_flag_handoff")

    def test_chaos_spec_carries_the_case(self):
        case = _case("clamp-lock-pair")
        spec = chaos_spec(case, CFG)
        assert spec.workload == case.workload
        assert spec.fault_plan == case.plan
        assert spec.livelock_bound == case.livelock_bound


def _self_join_deadlock():
    """Main joins itself: every alive thread blocked -> VM deadlock."""
    pb = ProgramBuilder("chaos_self_join")
    mn = pb.function("main")
    self_tid = mn.const(0)
    mn.emit(ins.Join(self_tid))
    mn.halt()
    return pb.build()


class TestDeadlockDiagnostics:
    def test_record_carries_blocked_on_detail(self):
        wl = Workload(name="chaos_self_join", build=_self_join_deadlock, seed=1)
        result = run_sweep([RunSpec(wl, ToolConfig.helgrind_lib(), 1)], workers=0)
        (rec,) = result.records
        assert rec.status == "deadlock"
        assert not rec.failed
        # the failure log names who is blocked on whom
        assert "T0" in rec.error and "joining T0" in rec.error

    def test_deadlock_outcome_finalizes_partial(self):
        wl = Workload(name="chaos_self_join2", build=_self_join_deadlock, seed=1)
        out = run_workload(wl, ToolConfig.helgrind_lib())
        assert out.result.deadlocked
        assert out.report.partial
        diag = out.result.thread_diags[0]
        assert diag.status == "blocked_join" and diag.blocked_on_tid == 0


class TestVerifyCase:
    def test_oracle_mismatch_is_reported_not_raised(self):
        case = _case("drop-flag-store")
        spec = chaos_spec(case, CFG)
        result = run_sweep([spec], workers=0)
        (rec,), (out,) = result.records, result.outcomes
        good = verify_case(case, rec, out)
        assert good.passed
        import dataclasses

        wrong = dataclasses.replace(case, expect_statuses=("ok",))
        bad = verify_case(wrong, rec, out)
        assert not bad.passed and "not in expected" in bad.detail

    def test_report_failed_property(self):
        report = ChaosReport()
        assert report.ok and report.failed == []
