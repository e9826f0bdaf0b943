"""Batched event delivery mechanics (machine-side)."""

import pytest

from repro import ProgramBuilder, RaceDetector, ToolConfig, build_library
from repro.analysis import instrument_program
from repro.isa.asm import assemble
from repro.isa.program import CodeLocation
from repro.vm import Machine, RandomScheduler, RoundRobinScheduler
from repro.vm import machine as machine_mod
from repro.runtime.library import SPINLOCK_SIZE
from repro.vm.events import (
    COND_READ,
    JOIN,
    LIB_ENTER,
    LIB_EXIT,
    LOOP_ENTER,
    LOOP_EXIT,
    NOTE,
    READ,
    SPAWN,
    WRITE,
    ThreadExitEvent,
    ThreadJoinEvent,
    ThreadSpawnEvent,
    ThreadStartEvent,
)


def _two_writer_program():
    pb = ProgramBuilder("batch_demo")
    pb.global_("X", 1)
    worker = pb.function("worker")
    x = worker.addr("X")
    worker.store(x, worker.add(worker.load(x), 1))
    worker.ret()
    main = pb.function("main")
    t1 = main.spawn("worker", [])
    t2 = main.spawn("worker", [])
    main.join(t1)
    main.join(t2)
    main.halt()
    pb.link(build_library())
    return pb.build()


def _locked_counter_program():
    """Two workers increment X under a library spinlock: annotated
    library calls (flush points) with library-internal traffic."""
    pb = ProgramBuilder("batch_locks")
    pb.global_("X", 1)
    pb.global_("L", SPINLOCK_SIZE)
    worker = pb.function("worker")
    lock = worker.addr("L")
    worker.call("spinlock_acquire", [lock])
    x = worker.addr("X")
    worker.store(x, worker.add(worker.load(x), 1))
    worker.call("spinlock_release", [lock])
    worker.ret()
    main = pb.function("main")
    t1 = main.spawn("worker", [])
    t2 = main.spawn("worker", [])
    main.join(t1)
    main.join(t2)
    main.halt()
    pb.link(build_library())
    return pb.build()


class RecordingSink:
    """A minimal batch-consuming listener recording delivery shapes."""

    skip_in_library_traffic = False

    def __init__(self):
        self.batches = []
        self.step_log = []

    def consume_batch(self, rows):
        self.batches.append(list(rows))


class LibSkippingSink(RecordingSink):
    skip_in_library_traffic = True


def _run(listener, program=_two_writer_program):
    machine = Machine(program(), scheduler=RandomScheduler(1), listener=listener)
    return machine, machine.run()


def test_batch_sink_gets_rows_not_events():
    sink = RecordingSink()
    machine, result = _run(sink)
    assert result.ok
    assert sink.batches, "no batch was ever flushed"
    # everything, control events included, arrived through consume_batch
    rows = [r for batch in sink.batches for r in batch]
    # row shape: (kind, tid, addr, value, loc, atomic, in_library, aux)
    assert all(len(r) == 8 for r in rows)
    kinds = {r[0] for r in rows}
    assert {READ, WRITE, SPAWN, JOIN} <= kinds
    assert len(rows) == machine.event_count


HANDOFF_SOURCE = """\
program pinned entry=main
global FLAG size=1 init=1
global X size=1 init=0
func worker() {
entry:
    a = addr X
    one = const 1
    store a+0, one
    ret
}
func main() {
entry:
    t = spawn worker()
    f = addr FLAG
    jmp wait
wait:
    v = load f+0
    br v, done, wait
done:
    join t
    halt
}
"""


def test_rows_and_steps_of_a_hand_traced_program():
    """Every row and step of a tiny run, worked out by hand from the
    round-robin rotation 0, 1, 0, 1, ... — an oracle that does not
    come from the emitter.

    A thread's start is emitted when it is first picked, before its
    step counter ticks; each instruction's events carry the step it
    executes as.  ``wait`` is the one marked loop (id 0): entering it
    emits LOOP_ENTER before the load, the load emits COND_READ then
    READ, and FLAG=1 sends the ``br`` out along the marked exit edge.
    """
    program = assemble(HANDOFF_SOURCE)
    imap = instrument_program(program)
    assert list(imap.loop_headers.values()) == [0]
    sink = RecordingSink()
    machine = Machine(
        program, scheduler=RoundRobinScheduler(), listener=sink, instrumentation=imap
    )
    result = machine.run()
    assert result.ok and result.steps == 11
    flag = machine.memory.symbols.base_of("FLAG")
    x = machine.memory.symbols.base_of("X")
    spawn_at = CodeLocation("main", "entry", 0)
    join_at = CodeLocation("main", "done", 0)

    def control(kind, event):
        return (kind, event.tid, 0, 0, None, False, False, event)

    # step 1 main spawn, 2 worker addr, 3 main addr, 4 worker const,
    # 5 main jmp, 6 worker store, 7 main load, 8 worker ret,
    # 9 main br (worker gone), 10 main join, 11 main halt (exits main)
    expected = [
        (0, control(NOTE, ThreadStartEvent(0, 0))),
        (1, control(SPAWN, ThreadSpawnEvent(1, 0, 1, spawn_at))),
        (1, control(NOTE, ThreadStartEvent(1, 1))),
        (6, (WRITE, 1, x, 1, CodeLocation("worker", "entry", 2), False, False, None)),
        (6, (LOOP_ENTER, 0, 0, 0, CodeLocation("main", "wait", 0), False, False, 0)),
        (7, (COND_READ, 0, flag, 1, CodeLocation("main", "wait", 0), False, False, 0)),
        (7, (READ, 0, flag, 1, CodeLocation("main", "wait", 0), False, False, None)),
        (8, control(NOTE, ThreadExitEvent(8, 1))),
        (9, (LOOP_EXIT, 0, 0, 0, CodeLocation("main", "wait", 1), False, False, 0)),
        (10, control(JOIN, ThreadJoinEvent(10, 0, 1, join_at))),
        (11, control(NOTE, ThreadExitEvent(11, 0))),
    ]
    rows = [r for batch in sink.batches for r in batch]
    assert rows == [row for _step, row in expected]
    assert sink.step_log == [step for step, _row in expected]
    assert machine.event_count == len(expected)
    # the marked-loop exit is a flush point: it closes the first batch
    assert sink.batches[0][-1][0] == LOOP_EXIT


def test_a_plain_callable_listener_is_refused():
    with pytest.raises(TypeError, match="consume_batch"):
        Machine(_two_writer_program(), listener=[].append)


def test_flush_points_are_sync_points():
    sink = RecordingSink()
    _run(sink, program=_locked_counter_program)
    assert len(sink.batches) > 1
    # with a roomy size cap every batch but the last ends at an
    # annotated library call (entry or return)
    for batch in sink.batches[:-1]:
        assert batch[-1][0] in (LIB_ENTER, LIB_EXIT)


def test_skip_in_library_traffic_drops_library_internal_rows():
    full = RecordingSink()
    _run(full, program=_locked_counter_program)
    skipping = LibSkippingSink()
    _run(skipping, program=_locked_counter_program)
    internal = [
        r for batch in full.batches for r in batch if r[0] <= WRITE and r[6]
    ]
    assert internal, "the spinlock's own loads/stores are library-internal"
    rows = [r for batch in skipping.batches for r in batch]
    assert not [r for r in rows if r[0] <= LOOP_EXIT and r[6]]
    assert rows == [
        r for batch in full.batches for r in batch if not (r[0] <= LOOP_EXIT and r[6])
    ]


def test_size_cap_forces_intermediate_flushes(monkeypatch):
    big = RecordingSink()
    _run(big)
    monkeypatch.setattr(machine_mod, "BATCH_SIZE", 4)
    small = RecordingSink()
    _run(small)
    assert len(small.batches) > len(big.batches)
    # the cap is checked between steps, and a step of this program
    # emits at most two rows (a thread's start plus its first event)
    assert max(len(b) for b in small.batches) <= 3 + 2
    # same rows either way
    flat = lambda b: [r for batch in b for r in batch]
    assert flat(small.batches) == flat(big.batches)


def test_skip_in_library_traffic_follows_interception_mode():
    assert RaceDetector(ToolConfig.helgrind_lib()).skip_in_library_traffic
    assert not RaceDetector(
        ToolConfig.helgrind_nolib_spin(7)
    ).skip_in_library_traffic
