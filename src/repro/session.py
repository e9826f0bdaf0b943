"""One run pipeline: instrument → detect → run (or replay) → report.

:func:`run_pipeline` is the package's one execution path.  Every live
run and every replay — :func:`run`, sweep cells in all three trace
modes, service trace uploads, the perf figures, suite scoring and
:func:`repro.trace.analyze_trace` — wires its detector here and returns
one :class:`SessionResult`, so a replay of a recording reports what the
live run reported.

:func:`run` is the package's front door.  It accepts anything
program-shaped — a built :class:`~repro.isa.program.Program`, a
:class:`~repro.isa.ProgramBuilder`, a harness
:class:`~repro.harness.workload.Workload`, a registry workload name, or
a zero-argument callable returning a program — plus a tool
configuration (a :class:`~repro.detectors.ToolConfig` or a preset name
like ``"helgrind-nolib-spin7"``), normalizes them and hands them to the
pipeline: the instrumentation phase when the configuration needs it,
lock-site inference, detector and machine construction (symbolization is
wired by attachment), execution, and finalization.

The returned :class:`SessionResult` keeps the live objects (detector,
machine, instrumentation map) so everything the long-form API exposes
stays reachable::

    import repro

    session = repro.run(program, "helgrind-lib-spin7", seed=1)
    print(session.report.summary())
    session.detector.adhoc.edges     # drill into any layer
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from repro.analysis import (
    InstrumentationMap,
    instrument_program_cached,
    lock_site_locations,
)
from repro.detectors import RaceDetector, ToolConfig
from repro.detectors.reports import Report
from repro.harness.registry import (
    RegistryBuild,
    build_scheduler,
    resolve_tool,
    resolve_workload,
    shared_program,
)
from repro.harness.workload import Workload
from repro.isa import Program, ProgramBuilder
from repro.trace import Trace, TraceStream, open_trace_file, replay_trace, synthesize_result
from repro.vm import Machine
from repro.vm.faults import FaultPlan
from repro.vm.machine import RunResult
from repro.vm.scheduler import Scheduler

ProgramLike = Union[Program, ProgramBuilder, Workload, str, Callable[[], Program]]
ConfigLike = Union[ToolConfig, str, None]
TraceLike = Union[Trace, str, Path, None]

#: live objects a session holds in memory; pickling drops them
_LIVE = ("program", "machine", "detector", "instrumentation", "trace")
#: values derived from the live objects on first read; pickling freezes them
_DERIVED = ("result", "trace_mode", "steps", "events", "detector_words",
            "imap_words", "spin_loops", "adhoc_edges")


@dataclass
class SessionResult:
    """Everything one pipeline run produced, live objects included.

    Replays (``run(trace=...)``, replay-mode sweep cells,
    :func:`repro.trace.analyze_trace`) have no program or machine —
    those fields are ``None``, ``trace`` holds the analyzed recording,
    and ``result`` is synthesized from its termination status on first
    read.

    The counters (``steps``, ``events``, ``detector_words``, ...) are
    computed from the live objects on first read.  :meth:`detached` and
    pickling freeze them and drop the live objects; pickling also swaps the workload's ``build``
    callable (often an unpicklable closure) for a by-name
    :class:`~repro.harness.registry.RegistryBuild`: the parallel sweep
    and the result cache ship sessions that way.

    A session run by workload *name* holds the registry's shared build
    in ``program`` (:func:`repro.harness.registry.shared_program`): the
    same read-only object every by-name run in the process executes.
    Build a fresh copy (``session.workload.fresh_program()``) to modify
    it.
    """

    config: ToolConfig
    seed: int
    report: Report
    detector: Optional[RaceDetector]
    program: Optional[Program] = None
    machine: Optional[Machine] = None
    #: the workload the session ran, when one was given (else ``None``)
    workload: Optional[Workload] = None
    #: marker tables from the instrumentation phase (``None`` when the
    #: configuration needed none)
    instrumentation: Optional[InstrumentationMap] = None
    #: wall-clock of the instrumentation phase (spin-loop analysis and
    #: lock-site inference), seconds; 0 for a replay
    instrument_s: float = 0.0
    #: wall-clock of the threaded-code decode pass, seconds (near zero on
    #: a decode-cache hit; 0 for a replay)
    decode_s: float = 0.0
    #: wall-clock of machine + detector (a replay: delivery plus
    #: finalize), seconds
    run_s: float = 0.0
    #: the recording a replay analyzed (``None`` for live runs): a
    #: :class:`~repro.trace.Trace`, or the
    #: :class:`~repro.trace.TraceStream` a stored recording was read
    #: through without materializing it
    trace: Union[Trace, TraceStream, None] = None
    #: structured provenance/degradation notes (e.g. ``"streaming-decode"``
    #: when a recording was analyzed without materialization)
    notes: Tuple[str, ...] = ()

    @cached_property
    def result(self) -> RunResult:
        """The machine-level outcome: a live run sets it, a replay
        synthesizes it from the recording's termination status."""
        return synthesize_result(self.trace)

    @cached_property
    def trace_mode(self) -> str:
        """``"live"`` for a VM execution, ``"replay"`` for a recording's."""
        return "live" if self.trace is None else "replay"

    @cached_property
    def steps(self) -> int:
        """VM steps executed (a replay: the recording's)."""
        return self.trace.steps if self.trace is not None else self.machine.step_count

    @cached_property
    def events(self) -> int:
        """Events the configuration's filter let through to the detector.

        Live and replay agree on it; the delivered count does not, since
        a recording carries every loop marker.
        """
        return self.detector.events_accepted

    @cached_property
    def detector_words(self) -> int:
        """Detector state footprint at end of run, in words."""
        return self.detector.memory_words()

    @cached_property
    def imap_words(self) -> int:
        """Instrumentation (marker-table) footprint, in words."""
        imap = self.instrumentation
        return imap.memory_words() if imap is not None else 0

    @cached_property
    def spin_loops(self) -> int:
        """Spinning read loops the tool's instrumentation marks."""
        if self.trace is not None:
            if not self.config.spin:
                return 0
            window = self.config.spin_max_blocks
            return sum(1 for size in self.trace.loop_sizes.values() if size <= window)
        imap = self.instrumentation
        return imap.num_loops if imap is not None else 0

    @cached_property
    def adhoc_edges(self) -> int:
        """Happens-before edges the ad-hoc runtime phase established."""
        adhoc = self.detector.adhoc
        return adhoc.edges if adhoc is not None else 0

    def detached(self) -> "SessionResult":
        """This result without its live objects, counters frozen first:
        what a sweep keeps and what pickling ships."""
        frozen = {name: getattr(self, name) for name in _DERIVED}
        clone = dataclasses.replace(self, **dict.fromkeys(_LIVE))
        clone.__dict__.update(frozen)
        return clone

    def __getstate__(self):
        state = self.detached().__dict__
        wl = state["workload"]
        if wl is not None and not isinstance(wl.build, RegistryBuild):
            state["workload"] = dataclasses.replace(wl, build=RegistryBuild(wl.name))
        return state

    @property
    def ok(self) -> bool:
        """The run completed normally (no deadlock/livelock/step limit)."""
        return self.result.ok

    @property
    def fingerprint(self) -> str:
        """sha256 hex digest of :meth:`Report.fingerprint` — the wire
        form the analysis service serves in verdicts, so a served
        verdict and a direct session compare with ``==``."""
        return hashlib.sha256(self.report.fingerprint().encode()).hexdigest()

    @property
    def racy_contexts(self) -> int:
        return self.report.racy_contexts

    @property
    def warnings(self):
        return self.report.warnings

    def summary(self) -> str:
        return self.report.summary()

    def __str__(self) -> str:
        name = (
            self.program.name
            if self.program is not None
            else self.trace.program_name if self.trace is not None else "?"
        )
        return (
            f"SessionResult({name!r}, tool={self.config.name!r}, "
            f"seed={self.seed}, status={self.result.status!r}, "
            f"racy_contexts={self.racy_contexts})"
        )


def static_tables(
    program: Program, tool: ToolConfig, livelock_armed: bool
) -> Tuple[Optional[InstrumentationMap], Optional[InstrumentationMap]]:
    """The static phase's one rule: ``(tool tables, machine tables)``.

    A spinning tool reads its own tables.  An armed watchdog consumes
    marked-loop events, so when it alone is armed the machine still
    reads the tables at the tool's window; otherwise there are none.
    The machine decodes for its tables; ``prewarm_static`` warms
    through this function.
    """
    if not (tool.spin or livelock_armed):
        return None, None
    tables = instrument_program_cached(
        program, max_blocks=tool.spin_max_blocks, inline_depth=tool.inline_depth
    )
    return (tables if tool.spin else None), tables


def run_pipeline(
    source: Union[Program, Trace, TraceStream],
    tool: Union[ToolConfig, str],
    *,
    workload: Optional[Workload] = None,
    seed: int = 1,
    max_steps: int = 2_000_000,
    faults: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
    scheduler: Union[Scheduler, str, None] = None,
    symbolize: Optional[Callable[[int], str]] = None,
    machine_sink: Optional[Callable[[object], None]] = None,
) -> SessionResult:
    """Run ``source`` under ``tool``: the one execution path.

    A :class:`Program` runs live: the cached instrumentation phase and
    lock-site inference when the tool needs them, the machine feeding
    the detector, then finalization from the run's status.  A recording
    (a :class:`Trace`, or a :class:`TraceStream` read off a store in
    constant memory) replays: :func:`~repro.trace.replay_trace`, then
    finalization from ``trace.status``, so the report fingerprint is the
    live run's; the arguments that shape an execution do not apply, and
    a stream that turns out malformed raises
    :class:`~repro.trace.TraceStreamCorruption`.

    ``scheduler`` is a :class:`Scheduler` or a canonical spec string
    seeded with ``seed`` (``None``: seeded random).  ``machine_sink``
    receives the :class:`Machine` (or the stream) before execution
    starts: the worker heartbeat reads its progress counter from the
    side.
    """
    tool = resolve_tool(tool)
    if not isinstance(source, Program):
        if machine_sink is not None:
            machine_sink(source)
        start = time.perf_counter()
        detector = replay_trace(source, tool)
        report = detector.finalize(partial=source.status != "ok")
        return SessionResult(
            config=tool,
            seed=source.seed,
            report=report,
            detector=detector,
            workload=workload,
            run_s=time.perf_counter() - start,
            trace=source,
            notes=() if isinstance(source, Trace) else ("streaming-decode",),
        )

    start = time.perf_counter()
    imap, tables = static_tables(source, tool, livelock_bound is not None)
    lock_sites = lock_site_locations(source) if tool.infer_locks else frozenset()
    # Timed only when the tool has static work of its own: tables read
    # for the watchdog alone are plumbing, not the measured tool's cost.
    instrument_s = time.perf_counter() - start if tool.spin or tool.infer_locks else 0.0

    detector = RaceDetector(tool, symbolize=symbolize, lock_sites=lock_sites)
    if scheduler is None or isinstance(scheduler, str):
        scheduler = build_scheduler(scheduler, seed)
    machine = Machine(
        source,
        scheduler=scheduler,
        listener=detector,
        instrumentation=tables,
        max_steps=max_steps,
        faults=faults,
        livelock_bound=livelock_bound,
    )
    if machine_sink is not None:
        machine_sink(machine)
    start = time.perf_counter()
    result = machine.run()
    run_s = time.perf_counter() - start
    detector.finalize(partial=not result.ok)
    session = SessionResult(
        config=tool,
        seed=seed,
        report=detector.report,
        detector=detector,
        program=source,
        machine=machine,
        workload=workload,
        instrumentation=imap,
        instrument_s=instrument_s,
        decode_s=machine.decode_s,
        run_s=run_s,
    )
    session.result = result  # fills the cached property
    return session


def _build_program(target: ProgramLike) -> tuple[Program, Optional[Workload]]:
    if isinstance(target, Program):
        return target, None
    if isinstance(target, ProgramBuilder):
        return target.build(), None
    if isinstance(target, Workload):
        return target.fresh_program(), target
    if isinstance(target, str):
        return shared_program(target), resolve_workload(target)
    if callable(target):
        built = target()
        if not isinstance(built, Program):
            raise TypeError(
                f"program factory returned {type(built).__name__}, expected Program"
            )
        return built, None
    raise TypeError(
        f"cannot run a {type(target).__name__}; expected Program, "
        f"ProgramBuilder, Workload, workload name, or a program factory"
    )


def run(
    program_or_workload: ProgramLike = None,
    config: ConfigLike = None,
    *,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
    scheduler: Union[Scheduler, str, None] = None,
    symbolize: Optional[Callable[[int], str]] = None,
    trace: TraceLike = None,
) -> SessionResult:
    """Run one program under one tool configuration, end to end.

    :param program_or_workload: a :class:`Program`, a
        :class:`ProgramBuilder` (built for you), a :class:`Workload`, a
        registry workload name, or a zero-argument program factory.
        Omit it (and pass ``trace``) for an offline session.
    :param config: a :class:`ToolConfig`, a preset name resolved through
        :meth:`ToolConfig.preset` (e.g. ``"helgrind-nolib-spin7"``), or
        ``None`` for the paper's default tool, ``Helgrind+ lib+spin(7)``.
    :param seed: scheduler seed; defaults to the workload's pinned seed
        when a workload was given, else ``1``.
    :param faults: a deterministic :class:`~repro.vm.faults.FaultPlan`
        to inject (chaos-style runs).
    :param livelock_bound: arm the machine's livelock watchdog.
    :param scheduler: custom scheduler — a
        :class:`~repro.vm.scheduler.Scheduler` instance or a canonical
        spec string (``"round-robin"``, ``"adversarial:burst=12"``);
        an instance overrides ``seed``, a spec string is seeded with it.
    :param symbolize: custom address symbolizer; default is the
        machine's symbol table, wired automatically at attachment.
    :param trace: a recorded :class:`~repro.trace.Trace`, or the path of
        an RPRT-framed trace file (:func:`~repro.trace.save_trace_file`
        or a store entry; anything else raises
        :class:`~repro.trace.TraceStreamCorruption`), to analyze offline
        — no VM runs, the report fingerprint matches the live run's, and
        the session's ``result`` is synthesized from the trace's
        termination status.  A file streams — constant memory, never
        materialized — and the session carries a ``"streaming-decode"``
        note.  Mutually exclusive with ``program_or_workload`` and with
        the live-only arguments (``seed``, ``max_steps``, ``faults``,
        ``livelock_bound``, ``scheduler``, ``symbolize``).
    """
    tool = resolve_tool(config) if config is not None else ToolConfig.helgrind_lib_spin(7)

    if trace is not None:
        if program_or_workload is not None:
            raise ValueError("pass either a program/workload or a trace, not both")
        for arg, name in ((seed, "seed"), (faults, "faults"),
                          (scheduler, "scheduler"), (max_steps, "max_steps"),
                          (livelock_bound, "livelock_bound"),
                          (symbolize, "symbolize")):
            if arg is not None:
                raise ValueError(
                    f"{name} shapes a live execution; a trace session "
                    f"analyzes an already-recorded one"
                )
        if isinstance(trace, (str, Path)):
            trace = open_trace_file(trace)  # streamed, never materialized
        return run_pipeline(trace, tool)

    if program_or_workload is None:
        raise ValueError("pass a program/workload or a trace")
    program, workload = _build_program(program_or_workload)
    if seed is None:
        seed = workload.seed if workload is not None else 1
    if max_steps is None:
        max_steps = workload.max_steps if workload is not None else 2_000_000
    return run_pipeline(
        program,
        tool,
        workload=workload,
        seed=seed,
        max_steps=max_steps,
        faults=faults,
        livelock_bound=livelock_bound,
        scheduler=scheduler,
        symbolize=symbolize,
    )
