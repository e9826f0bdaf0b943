"""Trace recording, VM-free analysis, replay, and the event codec.

A :class:`Trace` stores its event stream column-wise
(:class:`EventColumns`): the VM's row buffer flushes straight into the
columns while recording, and a replay feeds the columns to the detector
kernel as rows — a recording is just another event source.  A stored
recording can also be replayed without materializing it, through a
:class:`~repro.trace.stream.TraceStream`; :func:`analyze_trace` takes
either.  The event codec at the bottom serves the store's payload
(:mod:`repro.trace.store`), the one on-disk form of a recording.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis import instrument_program_cached, lock_site_locations
from repro.detectors import RaceDetector, ToolConfig
from repro.isa.program import CodeLocation, Program, SyncKind
from repro.vm import Machine
from repro.vm import events as ev
from repro.vm.faults import FaultPlan
from repro.vm.machine import RunResult
from repro.vm.memory import SymbolMap

if TYPE_CHECKING:
    from repro.trace.stream import TraceStream


class EventColumns:
    """A recorded event stream stored column-wise.

    Row ``i`` of the stream is ``kind[i], tid[i], addr[i], value[i],
    loc[i], atomic[i], in_library[i], aux[i]`` — the detector kernel's
    row form (:func:`repro.vm.events.event_row`) — recorded at
    ``step[i]``.  The integer columns are arrays and ``aux`` holds the
    Event objects of the rare kinds, so a recording of N events holds a
    handful of containers instead of N objects for the garbage
    collector to traverse.

    An ``EventColumns`` is also the recorder's batch sink: the VM
    appends each buffered row's step to :attr:`step_log` at emission and
    flushes the rows themselves into :meth:`consume_batch`.
    """

    __slots__ = (
        "kind", "step", "tid", "addr", "value", "loc", "atomic", "in_library", "aux",
    )

    #: recordings keep library-internal traffic; replays filter per config
    skip_in_library_traffic = False

    def __init__(self) -> None:
        self.kind = array("b")
        self.step = array("q")
        self.tid = array("q")
        self.addr = array("q")
        #: an array unless some value overflowed 64 bits (then a list)
        self.value = array("q")
        self.loc: list = []
        self.atomic: List[bool] = []
        self.in_library: List[bool] = []
        self.aux: list = []

    @classmethod
    def from_events(cls, events: Iterable[ev.Event]) -> "EventColumns":
        cols = cls()
        events = list(events)
        cols.consume_batch([ev.event_row(e) for e in events])
        cols.step.extend(e.step for e in events)
        return cols

    @property
    def step_log(self) -> array:
        return self.step

    def __len__(self) -> int:
        return len(self.kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return all(
            list(getattr(self, name)) == list(getattr(other, name))
            for name in self.__slots__
        )

    def consume_batch(self, rows: Sequence[tuple]) -> None:
        """Append rows (their steps go to :attr:`step_log` separately)."""
        if not rows:
            return
        kind, tid, addr, value, loc, atomic, in_library, aux = zip(*rows)
        self.kind.extend(kind)
        self.tid.extend(tid)
        self.addr.extend(addr)
        col = self.value
        if type(col) is array:
            try:
                value = array("q", value)
            except OverflowError:
                col = self.value = col.tolist()
        col.extend(value)
        self.loc.extend(loc)
        self.atomic.extend(atomic)
        self.in_library.extend(in_library)
        self.aux.extend(aux)

    def rows(self) -> Iterator[tuple]:
        """The stream as kernel rows, in order."""
        return zip(
            self.kind, self.tid, self.addr, self.value, self.loc,
            self.atomic, self.in_library, self.aux,
        )

    def iter_events(self) -> Iterator[ev.Event]:
        """The stream as Event objects, built on demand."""
        for step, row in zip(self.step, self.rows()):
            yield ev.row_event(step, *row)

    def notes(self) -> List[ev.Event]:
        """The bookkeeping events (thread start/exit, prints, faults)."""
        return [a for k, a in zip(self.kind, self.aux) if k == ev.NOTE]


@dataclass
class Trace:
    """A recorded execution: event columns plus replay metadata."""

    program_name: str
    seed: int
    columns: EventColumns
    #: effective basic-block size per marked loop id (for spin(k) filtering)
    loop_sizes: Dict[int, int]
    #: statically inferred lock-acquire CAS sites (for infer_locks replays)
    lock_sites: FrozenSet[CodeLocation]
    #: symbol segments: (name, base, size)
    symbols: List[Tuple[str, int, int]]
    #: instrumentation settings used at record time
    max_blocks: int
    inline_depth: int
    steps: int
    ok: bool
    #: machine termination status ("ok", "step-limit", "deadlock",
    #: "livelock") — richer than the boolean, used by failure triage
    status: str = "ok"
    #: canonical scheduler spec the recording ran under (see
    #: :func:`repro.harness.registry.canonical_scheduler`); pre-spec
    #: traces were always recorded under the seeded random scheduler
    scheduler: str = "random"

    @property
    def events(self) -> List[ev.Event]:
        """The recorded events as a fresh list of Event objects."""
        return list(self.columns.iter_events())

    def symbol_map(self) -> SymbolMap:
        sm = SymbolMap()
        for name, base, size in self.symbols:
            sm.add(name, base, size)
        return sm

    def row_batches(self) -> Tuple[Iterator[tuple]]:
        """The recording as one batch of detector-kernel rows."""
        return (self.columns.rows(),)

    def note_events(self) -> List[ev.Event]:
        """The bookkeeping events (thread start/exit, prints, faults)."""
        return self.columns.notes()


#: what offline analysis reads: a recording in memory, or one streamed
#: off a store without materialization
TraceSource = Union[Trace, "TraceStream"]


def record_trace(
    program: Program,
    seed: int = 1,
    max_steps: int = 500_000,
    max_blocks: int = 8,
    inline_depth: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
    scheduler: Optional[str] = None,
    machine_sink: Optional[Callable[[object], None]] = None,
) -> Trace:
    """Execute ``program`` once and capture everything replays need.

    ``max_blocks`` should be at least the widest spin window any replay
    will use (the paper's configurations top out at 8).  ``fault_plan``
    and ``livelock_bound`` reproduce a chaos run's machine environment —
    failure forensics records failing runs under the same faults that
    made them fail.  ``scheduler`` is a canonical spec string (see
    :func:`repro.harness.registry.canonical_scheduler`); ``None`` keeps
    the historical seeded-random default, so a forensic recording of a
    round-robin or adversarial failure replays the interleaving that
    actually failed instead of a random stand-in.  The VM's row buffer
    flushes straight into the recording's columns.  The marker tables
    come from the instrumentation cache, so recording a program again
    (another seed, scheduler or fault plan) reuses them.
    ``machine_sink`` gets the :class:`Machine` before it runs, as in
    :func:`repro.session.run_pipeline`.
    """
    # Imported lazily: repro.harness.triage imports this module, so a
    # module-level import of the registry would be circular.
    from repro.harness.registry import build_scheduler, canonical_scheduler

    sched_spec = canonical_scheduler(scheduler)
    imap = instrument_program_cached(
        program, max_blocks=max_blocks, inline_depth=inline_depth
    )
    columns = EventColumns()
    machine = Machine(
        program,
        scheduler=build_scheduler(sched_spec, seed),
        listener=columns,
        instrumentation=imap,
        max_steps=max_steps,
        faults=fault_plan,
        livelock_bound=livelock_bound,
    )
    if machine_sink is not None:
        machine_sink(machine)
    result = machine.run()
    symbols = [
        (seg.name, seg.base, seg.size) for seg in machine.memory.symbols.segments()
    ]
    loop_sizes = {i: spin.effective_blocks for i, spin in enumerate(imap.loops)}
    return Trace(
        program_name=program.name,
        seed=seed,
        columns=columns,
        loop_sizes=loop_sizes,
        lock_sites=lock_site_locations(program),
        symbols=symbols,
        max_blocks=max_blocks,
        inline_depth=inline_depth,
        steps=machine.step_count,
        ok=result.ok,
        status=result.status,
        scheduler=sched_spec,
    )


# ---------------------------------------------------------------------------
# VM-free analysis
# ---------------------------------------------------------------------------


def _validate_replay(trace: TraceSource, config: ToolConfig) -> None:
    """Reject a spin config the recording's instrumentation cannot serve."""
    if config.spin:
        if config.spin_max_blocks > trace.max_blocks:
            raise ValueError(
                f"trace recorded with max_blocks={trace.max_blocks}, "
                f"cannot replay spin({config.spin_max_blocks})"
            )
        if config.inline_depth != trace.inline_depth:
            raise ValueError(
                f"trace recorded with inline_depth={trace.inline_depth}, "
                f"cannot replay inline_depth={config.inline_depth}"
            )


def replay_trace(trace: TraceSource, config) -> RaceDetector:
    """Run one tool configuration over a recorded execution.

    The replayed interleaving is identical for every configuration —
    something re-execution-based tools cannot guarantee.  ``trace`` is
    an in-memory :class:`Trace`, whose columns feed the detector kernel
    in one ``consume_batch`` call, or a
    :class:`~repro.trace.stream.TraceStream`, which feeds it bounded
    chunks straight off the decoder; the kernel filters the rows for the
    configuration inline either way.  Low-level primitive: the returned
    detector is *not* finalized, so callers can inspect live state; most
    callers want :func:`analyze_trace`, which also seals the report with
    the trace's termination status.  ``config`` may be a
    :class:`~repro.detectors.ToolConfig` or a preset name.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_replay(trace, config)
    detector = RaceDetector(
        config,
        symbolize=trace.symbol_map().resolve,
        lock_sites=trace.lock_sites,
        loop_sizes=trace.loop_sizes,
    )
    consume = detector.consume_batch
    for rows in trace.row_batches():
        consume(rows)
    return detector


def analyze_trace(trace: TraceSource, config):
    """Run a tool configuration over a recording with no VM in the loop.

    ``trace`` is an in-memory :class:`Trace` or a
    :class:`~repro.trace.stream.TraceStream` read off a store in
    constant memory; ``config`` is a :class:`~repro.detectors.ToolConfig`
    or a preset name.  Returns the :class:`~repro.session.SessionResult`
    of :func:`repro.session.run_pipeline`, whose report fingerprint is
    bit-identical to the live run's.
    """
    from repro.session import run_pipeline  # lazy: import cycle

    return run_pipeline(trace, config)


def synthesize_result(trace: TraceSource) -> RunResult:
    """Reconstruct the machine-level outcome a recording observed.

    Offline analyses have no :class:`~repro.vm.machine.RunResult`; sweep
    bookkeeping (status tables, fault accounting, output checks) still
    wants one.  Termination flags come from ``trace.status``; outputs
    and the fault count from the recorded bookkeeping events — for a
    :class:`~repro.trace.stream.TraceStream`, the ones its last pass
    kept.
    """
    status = trace.status
    notes = trace.note_events()
    return RunResult(
        steps=trace.steps,
        timed_out=status == "step-limit",
        deadlocked=status == "deadlock",
        outputs=[(e.tid, e.value) for e in notes if type(e) is ev.PrintEvent],
        livelocked=status == "livelock",
        faults_injected=sum(1 for e in notes if isinstance(e, ev.FaultEvent)),
    )


# ---------------------------------------------------------------------------
# Event (de)serialization
# ---------------------------------------------------------------------------


def _loc_str(loc: CodeLocation) -> str:
    return f"{loc.function}:{loc.block}:{loc.index}"


def _loc_parse(text: str) -> CodeLocation:
    func, block, index = text.rsplit(":", 2)
    return CodeLocation(func, block, int(index))


def _encode_event(e: ev.Event) -> list:
    if isinstance(e, ev.MemRead):
        return ["r", e.step, e.tid, e.addr, e.value, _loc_str(e.loc), int(e.atomic), int(e.in_library)]
    if isinstance(e, ev.MemWrite):
        return ["w", e.step, e.tid, e.addr, e.value, _loc_str(e.loc), int(e.atomic), int(e.in_library)]
    if isinstance(e, ev.MarkedCondRead):
        return ["cr", e.step, e.tid, e.loop_id, e.addr, e.value, _loc_str(e.loc), int(e.in_library)]
    if isinstance(e, ev.MarkedLoopEnter):
        return ["le", e.step, e.tid, e.loop_id, _loc_str(e.loc), int(e.in_library)]
    if isinstance(e, ev.MarkedLoopExit):
        return ["lx", e.step, e.tid, e.loop_id, _loc_str(e.loc), int(e.in_library)]
    if isinstance(e, ev.LibEnter):
        return ["li", e.step, e.tid, e.func, e.kind.value, e.obj_addr, _loc_str(e.loc), int(e.in_library), e.obj2_addr]
    if isinstance(e, ev.LibExit):
        return ["lo", e.step, e.tid, e.func, e.kind.value, e.obj_addr, _loc_str(e.loc), int(e.in_library), e.obj2_addr]
    if isinstance(e, ev.ThreadSpawnEvent):
        return ["sp", e.step, e.tid, e.child, _loc_str(e.loc)]
    if isinstance(e, ev.ThreadJoinEvent):
        return ["jn", e.step, e.tid, e.joined, _loc_str(e.loc)]
    if isinstance(e, ev.ThreadStartEvent):
        return ["ts", e.step, e.tid]
    if isinstance(e, ev.ThreadExitEvent):
        return ["tx", e.step, e.tid]
    if isinstance(e, ev.PrintEvent):
        return ["pr", e.step, e.tid, e.value, _loc_str(e.loc)]
    # Injected-fault events (chaos runs): the stream carries its own
    # explanation, so forensic trace artifacts must round-trip them.
    if isinstance(e, ev.ThreadKilledEvent):
        return ["fk", e.step, e.tid]
    if isinstance(e, ev.StoreDroppedEvent):
        return ["fd", e.step, e.tid, e.addr, e.value, _loc_str(e.loc)]
    if isinstance(e, ev.StoreDelayedEvent):
        return ["fy", e.step, e.tid, e.addr, e.value, e.delay, _loc_str(e.loc)]
    if isinstance(e, ev.SpuriousWakeEvent):
        return ["fw", e.step, e.tid, e.addr, e.value]
    if isinstance(e, ev.StarvationEvent):
        return ["fs", e.step, e.tid, e.duration]
    if isinstance(e, ev.StepBudgetClampedEvent):
        return ["fc", e.step, e.tid, e.max_steps]
    raise TypeError(f"cannot encode {e!r}")


def _decode_event(data: list) -> ev.Event:
    kind = data[0]
    if kind == "r":
        return ev.MemRead(data[1], data[2], data[3], data[4], _loc_parse(data[5]), bool(data[6]), bool(data[7]))
    if kind == "w":
        return ev.MemWrite(data[1], data[2], data[3], data[4], _loc_parse(data[5]), bool(data[6]), bool(data[7]))
    if kind == "cr":
        return ev.MarkedCondRead(data[1], data[2], data[3], data[4], data[5], _loc_parse(data[6]), bool(data[7]))
    if kind == "le":
        return ev.MarkedLoopEnter(data[1], data[2], data[3], _loc_parse(data[4]), bool(data[5]))
    if kind == "lx":
        return ev.MarkedLoopExit(data[1], data[2], data[3], _loc_parse(data[4]), bool(data[5]))
    if kind == "li":
        return ev.LibEnter(data[1], data[2], data[3], SyncKind(data[4]), data[5], _loc_parse(data[6]), bool(data[7]), data[8])
    if kind == "lo":
        return ev.LibExit(data[1], data[2], data[3], SyncKind(data[4]), data[5], _loc_parse(data[6]), bool(data[7]), data[8])
    if kind == "sp":
        return ev.ThreadSpawnEvent(data[1], data[2], data[3], _loc_parse(data[4]))
    if kind == "jn":
        return ev.ThreadJoinEvent(data[1], data[2], data[3], _loc_parse(data[4]))
    if kind == "ts":
        return ev.ThreadStartEvent(data[1], data[2])
    if kind == "tx":
        return ev.ThreadExitEvent(data[1], data[2])
    if kind == "pr":
        return ev.PrintEvent(data[1], data[2], data[3], _loc_parse(data[4]))
    if kind == "fk":
        return ev.ThreadKilledEvent(data[1], data[2])
    if kind == "fd":
        return ev.StoreDroppedEvent(data[1], data[2], data[3], data[4], _loc_parse(data[5]))
    if kind == "fy":
        return ev.StoreDelayedEvent(data[1], data[2], data[3], data[4], data[5], _loc_parse(data[6]))
    if kind == "fw":
        return ev.SpuriousWakeEvent(data[1], data[2], data[3], data[4])
    if kind == "fs":
        return ev.StarvationEvent(data[1], data[2], data[3])
    if kind == "fc":
        return ev.StepBudgetClampedEvent(data[1], data[2], data[3])
    raise ValueError(f"unknown event kind {kind!r}")
