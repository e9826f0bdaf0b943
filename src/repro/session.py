"""One-call session API: build → instrument → detect → run → report.

:func:`run` is the package's front door.  It accepts anything
program-shaped — a built :class:`~repro.isa.program.Program`, a
:class:`~repro.isa.ProgramBuilder`, a harness
:class:`~repro.harness.workload.Workload`, a registry workload name, or
a zero-argument callable returning a program — plus a tool
configuration (a :class:`~repro.detectors.ToolConfig` or a preset name
like ``"helgrind-nolib-spin7"``), and performs the whole wiring that the
pre-1.1 quickstart spelled out by hand: the instrumentation phase when
the configuration needs it, lock-site inference, detector and machine
construction (symbolization is wired by attachment — the old manual
``detector.algorithm.symbolize = machine.memory.symbols.resolve`` step
is gone), execution, and finalization.

The returned :class:`SessionResult` keeps the live objects (detector,
machine, instrumentation map) so everything the long-form API exposes
stays reachable::

    import repro

    session = repro.run(program, "helgrind-lib-spin7", seed=1)
    print(session.report.summary())
    session.detector.adhoc.edges     # drill into any layer

The long-form constructors remain supported; :func:`run` is sugar, not a
new execution path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    build_scheduler,
    resolve_tool,
    resolve_workload,
    shared_program,
)
from repro.harness.workload import Workload
from repro.isa import Program, ProgramBuilder
from repro.trace import Trace, TraceStream, analyze_trace, open_trace_file, synthesize_result
from repro.vm import Machine, RandomScheduler
from repro.vm.faults import FaultPlan
from repro.vm.machine import RunResult
from repro.vm.scheduler import Scheduler

ProgramLike = Union[Program, ProgramBuilder, Workload, str, Callable[[], Program]]
ConfigLike = Union[ToolConfig, str, None]
TraceLike = Union[Trace, str, Path, None]


@dataclass
class SessionResult:
    """Everything one :func:`run` call produced, live objects included.

    Offline sessions (``run(trace=...)``) have no program or machine —
    those fields are ``None`` and ``trace`` holds the analyzed recording
    with a synthesized :class:`~repro.vm.machine.RunResult`.

    A session run by workload *name* holds the registry's shared build
    in ``program`` (:func:`repro.harness.registry.shared_program`): the
    same read-only object every by-name run in the process executes.
    Build a fresh copy (``session.workload.fresh_program()``) to modify
    it.
    """

    program: Optional[Program]
    config: ToolConfig
    seed: int
    report: Report
    result: RunResult
    detector: RaceDetector
    machine: Optional[Machine]
    #: the workload the session ran, when one was given (else ``None``)
    workload: Optional[Workload] = None
    #: marker tables from the instrumentation phase (``None`` when the
    #: configuration needed none)
    instrumentation: Optional[InstrumentationMap] = None
    #: wall-clock of the instrumentation phase, seconds
    instrument_s: float = 0.0
    #: wall-clock of the threaded-code decode pass, seconds (near zero on
    #: a decode-cache hit)
    decode_s: float = 0.0
    #: wall-clock of machine + detector, seconds
    run_s: float = 0.0
    #: the recording an offline session analyzed (``None`` for live
    #: runs): a :class:`~repro.trace.Trace`, or the
    #: :class:`~repro.trace.TraceStream` a framed file was read through
    #: without materializing it
    trace: Union[Trace, TraceStream, None] = None
    #: structured provenance/degradation notes (e.g. ``"streaming-decode"``
    #: when a framed trace file was analyzed without materialization)
    notes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """The run completed normally (no deadlock/livelock/step limit)."""
        return self.result.ok

    @property
    def fingerprint(self) -> str:
        """sha256 hex digest of :meth:`Report.fingerprint` — the wire
        form the analysis service serves in verdicts, so a served
        verdict and a direct session compare with ``==``."""
        import hashlib

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
    :param trace: a recorded :class:`~repro.trace.Trace` (or a path to
        its JSON serialization, or a path to an RPRT-framed store file)
        to analyze offline — no VM runs, the report fingerprint matches
        the live run's, and the session's ``result`` is synthesized from
        the trace's termination status.  Framed (``.trc``) files are
        analyzed in streaming mode — constant memory, never
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
            path = Path(trace)
            with open(path, "rb") as fh:
                framed = fh.read(4) == b"RPRT"
            # A store-framed file streams — constant memory, no
            # materialized Trace, identical report fingerprint.
            trace = open_trace_file(path) if framed else Trace.from_json(path.read_text())
        analysis = analyze_trace(trace, tool)
        return SessionResult(
            program=None,
            config=tool,
            seed=trace.seed,
            report=analysis.report,
            result=synthesize_result(trace),
            detector=analysis.detector,
            machine=None,
            run_s=analysis.duration_s,
            trace=trace,
            notes=analysis.notes,
        )

    if program_or_workload is None:
        raise ValueError("pass a program/workload or a trace")
    program, workload = _build_program(program_or_workload)
    if seed is None:
        seed = workload.seed if workload is not None else 1
    if max_steps is None:
        max_steps = workload.max_steps if workload is not None else 2_000_000

    imap: Optional[InstrumentationMap] = None
    lock_sites = frozenset()
    instrument_s = 0.0
    if tool.spin or tool.infer_locks:
        instrument_start = time.perf_counter()
        if tool.spin:
            imap = instrument_program_cached(
                program,
                max_blocks=tool.spin_max_blocks,
                inline_depth=tool.inline_depth,
            )
        if tool.infer_locks:
            lock_sites = lock_site_locations(program)
        instrument_s = time.perf_counter() - instrument_start
    # The livelock watchdog consumes marked-loop events, so it needs the
    # marker tables even under a non-spin tool (watchdog plumbing, not
    # charged to the tool being measured).
    watch_imap = imap
    if watch_imap is None and livelock_bound is not None:
        watch_imap = instrument_program_cached(
            program,
            max_blocks=tool.spin_max_blocks,
            inline_depth=tool.inline_depth,
        )

    detector = RaceDetector(tool, symbolize=symbolize, lock_sites=lock_sites)
    if isinstance(scheduler, str):
        scheduler = build_scheduler(scheduler, seed)
    machine = Machine(
        program,
        scheduler=scheduler or RandomScheduler(seed),
        listener=detector,
        instrumentation=watch_imap,
        max_steps=max_steps,
        faults=faults,
        livelock_bound=livelock_bound,
    )
    start = time.perf_counter()
    result = machine.run()
    run_s = time.perf_counter() - start
    detector.finalize(partial=not result.ok)
    return SessionResult(
        program=program,
        config=tool,
        seed=seed,
        report=detector.report,
        result=result,
        detector=detector,
        machine=machine,
        workload=workload,
        instrumentation=imap,
        instrument_s=instrument_s,
        decode_s=machine.decode_s,
        run_s=run_s,
    )
