"""Batched event delivery mechanics (machine-side)."""

from repro import ProgramBuilder, RaceDetector, ToolConfig, build_library
from repro.vm import Machine, RandomScheduler
from repro.runtime.library import SPINLOCK_SIZE
from repro.vm.events import (
    JOIN,
    LIB_ENTER,
    LIB_EXIT,
    LOOP_EXIT,
    READ,
    SPAWN,
    WRITE,
    Event,
    MemRead,
    MemWrite,
    event_row,
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
        self.events = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)

    def consume_batch(self, rows):
        self.batches.append(list(rows))


class LibSkippingSink(RecordingSink):
    skip_in_library_traffic = True


def _run(listener, batch_size=4096, program=_two_writer_program):
    machine = Machine(
        program(),
        scheduler=RandomScheduler(1),
        listener=listener,
        batch_size=batch_size,
    )
    return machine, machine.run()


def test_batch_sink_gets_rows_not_events():
    sink = RecordingSink()
    machine, result = _run(sink)
    assert result.ok
    assert sink.batches, "no batch was ever flushed"
    # everything, control events included, arrived through consume_batch
    assert not sink.events
    rows = [r for batch in sink.batches for r in batch]
    # row shape: (kind, tid, addr, value, loc, atomic, in_library, aux)
    assert all(len(r) == 8 for r in rows)
    kinds = {r[0] for r in rows}
    assert {READ, WRITE, SPAWN, JOIN} <= kinds
    assert len(rows) == machine.event_count


def test_rows_arrive_in_emission_order():
    """The one buffer is the per-event stream, row for row, in order."""
    for program in (_two_writer_program, _locked_counter_program):
        sink = RecordingSink()
        _run(sink, program=program)
        legacy = LegacyListener()
        _run(legacy, program=program)
        rows = [r for batch in sink.batches for r in batch]
        assert rows == [event_row(e) for e in legacy.events]


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


def test_small_batch_size_forces_intermediate_flushes():
    big = RecordingSink()
    _run(big, batch_size=100_000)
    small = RecordingSink()
    _run(small, batch_size=4)
    assert len(small.batches) > len(big.batches)
    # same rows either way
    flat = lambda b: [r for batch in b for r in batch]
    assert flat(small.batches) == flat(big.batches)


class LegacyListener:
    def __init__(self):
        self.events = []

    def __call__(self, event: Event) -> None:
        self.events.append(event)


def test_legacy_listener_still_gets_events():
    legacy = LegacyListener()
    machine, result = _run(legacy)
    assert result.ok
    assert any(isinstance(e, MemWrite) for e in legacy.events)
    assert machine._sink is None


def test_direct_step_bypasses_batching():
    """Batching only engages inside run(); manual stepping delivers
    per-event so external drivers (traces, debuggers) see everything."""
    sink = RecordingSink()
    machine = Machine(
        _two_writer_program(), scheduler=RandomScheduler(1), listener=sink
    )
    for _ in range(200):
        runnable = machine._runnable()
        if not runnable:
            break
        machine.step(machine.scheduler.pick(runnable))
    assert not sink.batches
    assert any(isinstance(e, (MemRead, MemWrite)) for e in sink.events)


def test_skip_in_library_traffic_follows_interception_mode():
    assert RaceDetector(ToolConfig.helgrind_lib()).skip_in_library_traffic
    assert not RaceDetector(
        ToolConfig.helgrind_nolib_spin(7)
    ).skip_in_library_traffic
