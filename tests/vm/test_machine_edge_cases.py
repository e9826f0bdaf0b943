"""Interpreter edge cases: deep stacks, yields, spawn trees, print order."""

import pytest

import repro
from repro.isa import instructions as ins
from repro.isa.builder import ProgramBuilder
from repro.vm import Machine, MachineError, Scheduler

from tests.conftest import run_program


class TestCallStack:
    def test_deep_recursion(self):
        pb = ProgramBuilder("t")
        f = pb.function("down", params=("n",))
        base = f.le("n", 0)
        f.br(base, "stop", "rec")
        f.label("stop")
        f.ret(0)
        f.label("rec")
        r = f.call("down", [f.sub("n", 1)], want_result=True)
        f.ret(f.add(r, 1))
        mn = pb.function("main")
        mn.print_(mn.call("down", [200], want_result=True))
        mn.halt()
        _, result = run_program(pb.build())
        assert result.outputs == [(0, 200)]

    def test_mutual_recursion(self):
        pb = ProgramBuilder("t")
        even = pb.function("is_even", params=("n",))
        z = even.eq("n", 0)
        even.br(z, "yes", "no")
        even.label("yes")
        even.ret(1)
        even.label("no")
        r = even.call("is_odd", [even.sub("n", 1)], want_result=True)
        even.ret(r)
        odd = pb.function("is_odd", params=("n",))
        z = odd.eq("n", 0)
        odd.br(z, "yes", "no")
        odd.label("yes")
        odd.ret(0)
        odd.label("no")
        r = odd.call("is_even", [odd.sub("n", 1)], want_result=True)
        odd.ret(r)
        mn = pb.function("main")
        mn.print_(mn.call("is_even", [10], want_result=True))
        mn.print_(mn.call("is_even", [7], want_result=True))
        mn.halt()
        _, result = run_program(pb.build())
        assert [v for _, v in result.outputs] == [1, 0]

    def test_arguments_are_frame_local(self):
        pb = ProgramBuilder("t")
        h = pb.function("shadow", params=("x",))
        doubled = h.mul("x", 2)
        h.ret(doubled)
        mn = pb.function("main")
        x = mn.const(5)
        r = mn.call("shadow", [x], want_result=True)
        mn.print_(r)
        mn.print_(x)  # caller's register untouched
        mn.halt()
        _, result = run_program(pb.build())
        assert [v for _, v in result.outputs] == [10, 5]


class TestSpawnTrees:
    def test_threads_spawning_threads(self):
        pb = ProgramBuilder("t")
        pb.global_("LEAVES", 1)
        leaf = pb.function("leaf")
        a = leaf.addr("LEAVES")
        leaf.atomic_add(a, 1)
        leaf.ret()
        mid = pb.function("mid")
        t1 = mid.spawn("leaf", [])
        t2 = mid.spawn("leaf", [])
        mid.join(t1)
        mid.join(t2)
        mid.ret()
        mn = pb.function("main")
        kids = [mn.spawn("mid", []) for _ in range(3)]
        for k in kids:
            mn.join(k)
        mn.print_(mn.load_global("LEAVES"))
        mn.halt()
        for seed in range(4):
            _, result = run_program(pb.build(), seed=seed)
            assert result.outputs == [(0, 6)]

    def test_double_join_is_fine(self):
        pb = ProgramBuilder("t")
        w = pb.function("w")
        w.ret()
        mn = pb.function("main")
        t = mn.spawn("w", [])
        mn.join(t)
        mn.join(t)  # joining an exited thread again is a no-op wait
        mn.halt()
        _, result = run_program(pb.build())
        assert result.ok

    def test_main_exit_without_join_still_terminates(self):
        pb = ProgramBuilder("t")
        w = pb.function("w")
        w.nop(30)
        w.ret()
        mn = pb.function("main")
        mn.spawn("w", [])
        mn.ret()  # main returns; worker keeps running
        _, result = run_program(pb.build())
        assert result.ok  # machine runs until all threads exit


class TestYield:
    def test_yield_depresses_thread(self):
        """Under round-robin both threads alternate; a repeatedly yielding
        thread under the random scheduler runs less often."""
        pb = ProgramBuilder("t")
        pb.global_("SPUN", 1)
        spinner = pb.function("spinner")
        a = spinner.addr("SPUN")
        spinner.jmp("loop")
        spinner.label("loop")
        spinner.atomic_add(a, 1)
        spinner.yield_()
        spinner.jmp("loop")
        worker = pb.function("worker")
        worker.nop(200)
        worker.ret()
        mn = pb.function("main")
        s = mn.spawn("spinner", [])
        w = mn.spawn("worker", [])
        mn.join(w)
        mn.halt()
        _, result = run_program(pb.build(), max_steps=50_000)
        assert result.ok
        # The worker finished despite the infinite spinner: fairness works.


class TestOutputs:
    def test_print_order_within_thread(self):
        pb = ProgramBuilder("t")
        mn = pb.function("main")
        for v in (3, 1, 4, 1, 5):
            mn.print_(mn.const(v))
        mn.halt()
        _, result = run_program(pb.build())
        assert [v for _, v in result.outputs] == [3, 1, 4, 1, 5]

    def test_outputs_tag_thread_ids(self):
        pb = ProgramBuilder("t")
        w = pb.function("w")
        w.print_(w.const(7))
        w.ret()
        mn = pb.function("main")
        t = mn.spawn("w", [])
        mn.join(t)
        mn.print_(mn.const(8))
        mn.halt()
        _, result = run_program(pb.build())
        assert (1, 7) in result.outputs and (0, 8) in result.outputs


class TestEventCount:
    def test_event_count_tracks_emissions(self):
        pb = ProgramBuilder("t")
        pb.global_("G", 1)
        mn = pb.function("main")
        mn.store_global("G", 1)
        mn.halt()
        machine = Machine(pb.build())
        machine.run()
        assert machine.event_count >= 2  # the store + thread events


class TestSchedulerContract:
    def test_user_scheduler_picking_a_blocked_thread_is_refused(self):
        """A scheduler is outside input: one that returns a thread the
        runnable list did not offer (here main, blocked in its join)
        gets a MachineError, not a step of a blocked thread."""

        class AlwaysMain(Scheduler):
            def __init__(self):
                super().__init__(window=0)

            def pick(self, runnable):
                return 0

        pb = ProgramBuilder("t")
        w = pb.function("worker")
        w.nop(5)
        w.ret()
        mn = pb.function("main")
        mn.join(mn.spawn("worker", []))
        mn.halt()
        with pytest.raises(MachineError, match="thread 0 not runnable"):
            repro.run(pb.build(), "drd", scheduler=AlwaysMain())
