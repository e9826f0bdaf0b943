"""Fault injection: every fault class, determinism, structured diagnostics."""

import pytest

from repro.analysis import instrument_program
from repro.trace import EventColumns
from repro.vm import (
    Machine,
    MemWrite,
    RandomScheduler,
    SpuriousWakeEvent,
    StarvationEvent,
    StepBudgetClampedEvent,
    StoreDelayedEvent,
    StoreDroppedEvent,
    ThreadKilledEvent,
)
from repro.vm.faults import (
    FAULT_CLASSES,
    ClampSteps,
    DelayStore,
    DropStore,
    FaultPlan,
    KillThread,
    LivelockReport,
    SpuriousWakeup,
    StarveThread,
)
from repro.workloads import chaos_workloads


def _chaos_program(name):
    by_name = {wl.name: wl for wl in chaos_workloads()}
    return by_name[name].fresh_program()


def _run(program, faults=None, seed=1, livelock_bound=5_000, max_steps=100_000):
    imap = instrument_program(program)
    columns = EventColumns()
    machine = Machine(
        program,
        scheduler=RandomScheduler(seed),
        listener=columns,
        instrumentation=imap,
        max_steps=max_steps,
        faults=faults,
        livelock_bound=livelock_bound,
    )
    result = machine.run()
    return machine, result, list(columns.iter_events())


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(ClampSteps(max_steps=10),))

    def test_classes_are_canonically_ordered(self):
        plan = FaultPlan(
            faults=(ClampSteps(max_steps=10), KillThread(tid=1), DropStore("F"))
        )
        assert plan.classes == ("kill-thread", "drop-store", "clamp-steps")

    @pytest.mark.parametrize("fault_class", FAULT_CLASSES)
    def test_sample_is_deterministic(self, fault_class):
        a = FaultPlan.sample(fault_class, 3)
        b = FaultPlan.sample(fault_class, 3)
        assert a == b
        assert a.classes == (fault_class,)

    def test_sample_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            FaultPlan.sample("meteor-strike", 1)

    def test_unknown_symbol_fails_fast_at_attach(self):
        plan = FaultPlan(faults=(DropStore(symbol="NO_SUCH_GLOBAL"),))
        with pytest.raises(ValueError, match="NO_SUCH_GLOBAL"):
            Machine(_chaos_program("chaos_flag_handoff"), faults=plan)


class TestDropStore:
    PLAN = FaultPlan(faults=(DropStore(symbol="FLAG"),))

    def test_lost_counterpart_write_livelocks_the_spinner(self):
        _, result, events = self._go()
        assert result.livelocked and result.status == "livelock"
        assert not result.ok
        report = result.livelock
        assert isinstance(report, LivelockReport)
        assert report.tid == 1
        assert report.loop_name.startswith("consumer")
        assert report.cond_symbol.startswith("FLAG")
        assert report.spins > 0
        assert "livelock" in str(report) and "consumer" in str(report)

    def test_drop_is_announced_and_memory_never_written(self):
        machine, result, events = self._go()
        drops = [e for e in events if isinstance(e, StoreDroppedEvent)]
        assert len(drops) == 1
        addr = drops[0].addr
        # the dropped store emitted no MemWrite and left FLAG at 0
        assert not any(
            isinstance(e, MemWrite) and e.addr == addr for e in events
        )
        assert machine.memory.load(addr) == 0
        assert result.faults_injected == 1

    def _go(self):
        return _run(
            _chaos_program("chaos_flag_handoff"),
            faults=self.PLAN,
            livelock_bound=1_000,
        )


class TestDelayStore:
    def test_delayed_visibility_recovers(self):
        _, result, events = _run(
            _chaos_program("chaos_flag_handoff"),
            faults=FaultPlan(faults=(DelayStore(symbol="FLAG", delay=300),)),
        )
        assert result.ok and result.status == "ok"
        (delayed,) = [e for e in events if isinstance(e, StoreDelayedEvent)]
        # the buffered store is applied later as a real MemWrite
        applied = [
            e
            for e in events
            if isinstance(e, MemWrite) and e.addr == delayed.addr
        ]
        assert applied and applied[-1].step >= delayed.step + delayed.delay
        assert applied[-1].value == delayed.value


class TestKillThread:
    def test_killed_producer_never_raises_the_flag(self):
        _, result, events = _run(
            _chaos_program("chaos_flag_handoff"),
            faults=FaultPlan(faults=(KillThread(tid=2, at_step=0),)),
            livelock_bound=1_000,
        )
        assert any(isinstance(e, ThreadKilledEvent) for e in events)
        assert result.livelocked
        assert result.livelock.cond_symbol.startswith("FLAG")
        assert result.thread_diags[2].status == "killed"

    def test_crashed_holder_abandons_the_lock(self):
        _, result, _ = _run(
            _chaos_program("chaos_lock_pair"),
            faults=FaultPlan(faults=(KillThread(tid=1, at_step=5, when_holding=True),)),
            livelock_bound=1_000,
        )
        assert result.livelocked
        assert result.livelock.loop_name.startswith("mutex_lock")
        assert result.livelock.cond_symbol.startswith("M")
        victim = result.thread_diags[1]
        assert victim.status == "killed"
        assert any(s.startswith("M") for s in victim.held_symbols)
        assert "abandoning" in victim.describe()
        assert "livelock" in result.diagnose()


class TestSpuriousWakeup:
    def test_wakeup_releases_a_lone_waiter(self):
        _, result, events = _run(
            _chaos_program("chaos_cv_spurious"),
            faults=FaultPlan(faults=(SpuriousWakeup(symbol="CV", at_step=600),)),
        )
        assert result.ok
        (wake,) = [e for e in events if isinstance(e, SpuriousWakeEvent)]
        assert wake.tid == -1  # injected from no thread


class TestStarvation:
    def test_starved_thread_catches_up(self):
        _, result, events = _run(
            _chaos_program("chaos_flag_handoff"),
            faults=FaultPlan(faults=(StarveThread(tid=1, start_step=0, duration=600),)),
        )
        assert result.ok
        (starve,) = [e for e in events if isinstance(e, StarvationEvent)]
        assert starve.tid == 1 and starve.duration == 600

    def test_sole_runnable_thread_is_never_starved(self):
        # Starving the only thread would stall the clock without modeling
        # anything: the filter must fall back to the unfiltered pool.
        _, result, _ = _run(
            _chaos_program("chaos_cv_spurious"),
            faults=FaultPlan(
                faults=(
                    StarveThread(tid=0, start_step=0, duration=50),
                    SpuriousWakeup(symbol="CV", at_step=600),
                )
            ),
        )
        assert result.ok


class TestClampSteps:
    def test_budget_clamp_truncates_the_run(self):
        machine, result, events = _run(
            _chaos_program("chaos_lock_pair"),
            faults=FaultPlan(faults=(ClampSteps(max_steps=60),)),
        )
        assert result.timed_out and not result.ok
        assert machine.step_count == 60
        (clamp,) = [e for e in events if isinstance(e, StepBudgetClampedEvent)]
        assert clamp.max_steps == 60
        assert result.faults_injected >= 1
        assert "step budget" in result.diagnose()


class TestDeterminism:
    CASES = [
        ("chaos_flag_handoff", FaultPlan(faults=(DropStore(symbol="FLAG"),))),
        ("chaos_flag_handoff", FaultPlan(faults=(KillThread(tid=2, at_step=0),))),
        ("chaos_flag_handoff", FaultPlan(faults=(DelayStore(symbol="FLAG", delay=123),))),
        ("chaos_lock_pair", FaultPlan(faults=(ClampSteps(max_steps=60),))),
    ]

    @pytest.mark.parametrize("name,plan", CASES)
    def test_same_seeds_byte_identical_streams(self, name, plan):
        runs = []
        for _ in range(2):
            _, result, events = _run(
                _chaos_program(name), faults=plan, livelock_bound=1_000
            )
            runs.append((result, [repr(e) for e in events]))
        (res_a, ev_a), (res_b, ev_b) = runs
        assert ev_a == ev_b
        assert res_a.steps == res_b.steps
        assert res_a.status == res_b.status
        assert res_a.diagnose() == res_b.diagnose()

    def test_different_scheduler_seed_may_differ_but_stays_structured(self):
        plan = FaultPlan(faults=(DropStore(symbol="FLAG"),))
        for seed in (1, 2, 3):
            _, result, _ = _run(
                _chaos_program("chaos_flag_handoff"),
                faults=plan,
                seed=seed,
                livelock_bound=1_000,
            )
            assert result.status == "livelock"
            assert result.livelock.cond_symbol.startswith("FLAG")


class TestLivelockWatchdogWithoutFaults:
    def test_bound_none_never_reports(self):
        _, result, _ = _run(_chaos_program("chaos_flag_handoff"), livelock_bound=None)
        assert result.ok and result.livelock is None

    def test_generous_bound_stays_quiet_on_healthy_run(self):
        _, result, _ = _run(_chaos_program("chaos_flag_handoff"), livelock_bound=5_000)
        assert result.ok and not result.livelocked
