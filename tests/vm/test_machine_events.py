"""The event stream: contents, ordering, interception metadata."""

from repro.analysis import instrument_program
from repro.isa.builder import ProgramBuilder
from repro.isa.program import SyncKind
from repro.runtime import MUTEX_SIZE, build_library
from repro.trace import EventColumns
from repro.vm import (
    LibEnter,
    LibExit,
    Machine,
    MarkedCondRead,
    MarkedLoopEnter,
    MarkedLoopExit,
    MemRead,
    MemWrite,
    RandomScheduler,
    ThreadJoinEvent,
    ThreadSpawnEvent,
)

from tests.conftest import flag_handoff_program


def _collect(program, seed=1, instrumentation=None):
    columns = EventColumns()
    machine = Machine(
        program,
        scheduler=RandomScheduler(seed),
        listener=columns,
        instrumentation=instrumentation,
    )
    result = machine.run()
    assert result.ok
    return list(columns.iter_events())


class TestMemoryEvents:
    def test_reads_and_writes_carry_values(self):
        pb = ProgramBuilder("t")
        pb.global_("G", 1, init=(5,))
        mn = pb.function("main")
        a = mn.addr("G")
        mn.store(a, mn.add(mn.load(a), 1))
        mn.halt()
        events = _collect(pb.build())
        reads = [e for e in events if isinstance(e, MemRead)]
        writes = [e for e in events if isinstance(e, MemWrite)]
        assert reads[0].value == 5
        assert writes[0].value == 6
        assert reads[0].addr == writes[0].addr

    def test_atomic_flag_set(self):
        pb = ProgramBuilder("t")
        pb.global_("G", 1)
        mn = pb.function("main")
        a = mn.addr("G")
        mn.atomic_add(a, 2)
        mn.halt()
        events = _collect(pb.build())
        mem = [e for e in events if isinstance(e, (MemRead, MemWrite))]
        assert all(e.atomic for e in mem)
        assert isinstance(mem[0], MemRead) and isinstance(mem[1], MemWrite)

    def test_failed_cas_emits_read_only(self):
        pb = ProgramBuilder("t")
        pb.global_("G", 1, init=(9,))
        mn = pb.function("main")
        a = mn.addr("G")
        mn.atomic_cas(a, 0, 1)  # fails: G == 9
        mn.halt()
        events = _collect(pb.build())
        assert any(isinstance(e, MemRead) for e in events)
        assert not any(isinstance(e, MemWrite) for e in events)


class TestThreadEvents:
    def test_spawn_and_join_events(self):
        pb = ProgramBuilder("t")
        w = pb.function("worker")
        w.ret()
        mn = pb.function("main")
        t = mn.spawn("worker", [])
        mn.join(t)
        mn.halt()
        events = _collect(pb.build())
        spawns = [e for e in events if isinstance(e, ThreadSpawnEvent)]
        joins = [e for e in events if isinstance(e, ThreadJoinEvent)]
        assert spawns[0].tid == 0 and spawns[0].child == 1
        assert joins[0].tid == 0 and joins[0].joined == 1


class TestLibraryEvents:
    def test_mutex_lock_emits_enter_exit(self):
        pb = ProgramBuilder("t")
        pb.global_("M", MUTEX_SIZE)
        mn = pb.function("main")
        m = mn.addr("M")
        mn.call("mutex_lock", [m])
        mn.call("mutex_unlock", [m])
        mn.halt()
        pb.link(build_library())
        events = _collect(pb.build())
        enters = [e for e in events if isinstance(e, LibEnter)]
        exits = [e for e in events if isinstance(e, LibExit)]
        assert [e.kind for e in enters] == [SyncKind.LOCK_ACQUIRE, SyncKind.LOCK_RELEASE]
        assert [e.kind for e in exits] == [SyncKind.LOCK_ACQUIRE, SyncKind.LOCK_RELEASE]
        assert enters[0].obj_addr == exits[0].obj_addr

    def test_library_internal_memory_flagged(self):
        pb = ProgramBuilder("t")
        pb.global_("M", MUTEX_SIZE)
        mn = pb.function("main")
        m = mn.addr("M")
        mn.call("mutex_lock", [m])
        mn.call("mutex_unlock", [m])
        mn.halt()
        pb.link(build_library())
        events = _collect(pb.build())
        mem = [e for e in events if isinstance(e, (MemRead, MemWrite))]
        assert mem, "mutex internals must produce memory traffic"
        assert all(e.in_library for e in mem)

    def test_nested_annotated_call_flagged_in_library(self):
        """cv_wait calls mutex_unlock internally; the inner annotated
        events must carry in_library=True so the interceptor skips them."""
        from repro.runtime import CONDVAR_SIZE

        pb = ProgramBuilder("t")
        pb.global_("M", MUTEX_SIZE)
        pb.global_("CV", CONDVAR_SIZE)
        sig = pb.function("signaler")
        sig.nop(30)
        cv = sig.addr("CV")
        sig.call("cv_signal", [cv])
        sig.ret()
        mn = pb.function("main")
        t = mn.spawn("signaler", [])
        m = mn.addr("M")
        cv = mn.addr("CV")
        mn.call("mutex_lock", [m])
        mn.call("cv_wait", [cv, m])
        mn.call("mutex_unlock", [m])
        mn.join(t)
        mn.halt()
        pb.link(build_library())
        events = _collect(pb.build())
        inner = [
            e
            for e in events
            if isinstance(e, LibEnter)
            and e.kind in (SyncKind.LOCK_ACQUIRE, SyncKind.LOCK_RELEASE)
            and e.in_library
        ]
        assert inner, "cv_wait's internal mutex ops must be marked nested"
        wait_exit = [
            e for e in events if isinstance(e, LibExit) and e.kind is SyncKind.CV_WAIT
        ]
        assert wait_exit and wait_exit[0].obj2_addr is not None


class TestMarkedEvents:
    def test_marked_events_for_spin_loop(self):
        prog = flag_handoff_program()
        imap = instrument_program(prog, max_blocks=7)
        events = _collect(prog, instrumentation=imap)
        assert any(isinstance(e, MarkedLoopEnter) for e in events)
        assert any(isinstance(e, MarkedLoopExit) for e in events)
        assert any(isinstance(e, MarkedCondRead) for e in events)

    def test_cond_read_precedes_mem_read(self):
        prog = flag_handoff_program()
        imap = instrument_program(prog, max_blocks=7)
        events = _collect(prog, instrumentation=imap)
        for i, e in enumerate(events):
            if isinstance(e, MarkedCondRead) and not e.in_library:
                nxt = events[i + 1]
                assert isinstance(nxt, MemRead)
                assert nxt.addr == e.addr and nxt.value == e.value
                break
        else:
            raise AssertionError("no user-level MarkedCondRead observed")

    def test_no_marked_events_without_instrumentation(self):
        prog = flag_handoff_program()
        events = _collect(prog)
        assert not any(
            isinstance(e, (MarkedLoopEnter, MarkedLoopExit, MarkedCondRead))
            for e in events
        )

    def test_steps_monotonic(self):
        prog = flag_handoff_program()
        events = _collect(prog)
        steps = [e.step for e in events]
        assert steps == sorted(steps)
