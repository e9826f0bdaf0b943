"""Execute one (workload, tool configuration, seed) triple."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis import (
    InstrumentationMap,
    instrument_program_cached,
    lock_site_locations,
)
from repro.detectors import RaceDetector, ToolConfig
from repro.detectors.reports import Report
from repro.harness.registry import RegistryBuild, build_scheduler
from repro.harness.workload import Workload
from repro.isa.program import Program
from repro.vm import Machine
from repro.vm.faults import FaultPlan
from repro.vm.machine import RunResult


@dataclass
class RunOutcome:
    """Everything the metrics and perf layers need from one run.

    Instances are picklable: the workload's ``build`` callable (often an
    unpicklable closure) is swapped for a by-name
    :class:`~repro.harness.registry.RegistryBuild` reference during
    pickling, which the parallel runner and the result cache rely on.
    """

    workload: Workload
    config: ToolConfig
    seed: int
    report: Report
    result: RunResult
    #: wall-clock of machine + detector, seconds
    duration_s: float
    #: VM steps executed
    steps: int
    #: events delivered to the detector
    events: int
    #: detector state footprint at end of run, in words
    detector_words: int
    #: instrumentation (marker-table) footprint, in words
    imap_words: int
    #: number of spinning read loops the instrumentation phase found
    spin_loops: int
    #: happens-before edges the ad-hoc runtime phase established
    adhoc_edges: int
    #: wall-clock of the instrumentation phase (spin-loop analysis and
    #: lock-site inference), seconds; 0 when neither feature is on
    instrument_s: float = 0.0
    #: wall-clock of the threaded-code decode pass, seconds; near zero on
    #: a decode-cache hit.  One-time translation, like ``instrument_s`` —
    #: not charged to ``duration_s``
    decode_s: float = 0.0
    #: fault plan the run executed under (chaos runs only)
    fault_plan: Optional[FaultPlan] = None
    #: livelock-watchdog bound the machine ran with, if any
    livelock_bound: Optional[int] = None
    #: "live" for VM executions, "replay" for VM-free trace analyses
    trace_mode: str = "live"

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def total_s(self) -> float:
        """Full tool cost: instrumentation phase plus machine + detector."""
        return self.duration_s + self.instrument_s

    def __getstate__(self):
        state = self.__dict__.copy()
        wl = state.get("workload")
        if wl is not None and not isinstance(wl.build, RegistryBuild):
            state["workload"] = dataclasses.replace(wl, build=RegistryBuild(wl.name))
        return state


def run_workload(
    workload: Workload,
    config: ToolConfig,
    seed: Optional[int] = None,
    max_steps: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
    machine_sink: Optional[Callable[[Machine], None]] = None,
    scheduler: Optional[str] = None,
    program: Optional[Program] = None,
) -> RunOutcome:
    """Run ``workload`` under ``config`` with the given scheduler seed.

    ``fault_plan`` injects deterministic faults
    (:mod:`repro.vm.faults`); ``livelock_bound`` arms the machine's
    livelock watchdog.  Both default to off, leaving normal runs
    byte-identical to before.  ``machine_sink``, if given, receives the
    constructed :class:`Machine` before execution starts — the worker
    heartbeat thread uses it to observe ``step_count`` from the side.
    ``scheduler`` is a canonical spec string (see
    :func:`repro.harness.registry.canonical_scheduler`); ``None`` keeps
    the seeded-random default.  ``program`` is the build to run (the
    sweep passes the registry's shared read-only build of a named
    workload, which a run only reads); by default the workload is built
    fresh.
    """
    if program is None:
        program = workload.fresh_program()
    imap: Optional[InstrumentationMap] = None
    lock_sites = frozenset()
    instrument_s = 0.0
    if config.spin or config.infer_locks:
        instrument_start = time.perf_counter()
        if config.spin:
            # Content-keyed cached: repeats and sibling configs with the
            # same spin window reuse one static analysis; ``instrument_s``
            # then reflects what the run actually paid (near zero on a
            # hit), keeping amortized cost out of the per-run figure.
            imap = instrument_program_cached(
                program,
                max_blocks=config.spin_max_blocks,
                inline_depth=config.inline_depth,
            )
        if config.infer_locks:
            lock_sites = lock_site_locations(program)
        instrument_s = time.perf_counter() - instrument_start
    # The watchdog consumes marked-loop events, so a machine with a
    # livelock bound needs the instrumentation map even under a non-spin
    # tool; that map is watchdog plumbing, not part of the tool being
    # measured, so it is charged to neither instrument_s nor the spin
    # statistics.
    watch_imap = imap
    if watch_imap is None and livelock_bound is not None:
        watch_imap = instrument_program_cached(
            program,
            max_blocks=config.spin_max_blocks,
            inline_depth=config.inline_depth,
        )
    detector = RaceDetector(config, lock_sites=lock_sites)
    machine = Machine(
        program,
        scheduler=build_scheduler(scheduler, seed if seed is not None else workload.seed),
        listener=detector,
        instrumentation=watch_imap,
        max_steps=max_steps or workload.max_steps,
        faults=fault_plan,
        livelock_bound=livelock_bound,
    )
    # Symbolization is wired by Machine construction (detector.on_attach).
    if machine_sink is not None:
        machine_sink(machine)
    start = time.perf_counter()
    result = machine.run()
    duration = time.perf_counter() - start
    detector.finalize(partial=not result.ok)
    return RunOutcome(
        workload=workload,
        config=config,
        seed=seed if seed is not None else workload.seed,
        report=detector.report,
        result=result,
        duration_s=duration,
        instrument_s=instrument_s,
        decode_s=machine.decode_s,
        steps=machine.step_count,
        events=detector.events_processed,
        detector_words=detector.memory_words(),
        imap_words=imap.memory_words() if imap is not None else 0,
        spin_loops=imap.num_loops if imap is not None else 0,
        adhoc_edges=detector.adhoc.edges if detector.adhoc is not None else 0,
        fault_plan=fault_plan,
        livelock_bound=livelock_bound,
    )


def run_workload_offline(
    workload: Workload,
    config: ToolConfig,
    source,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
) -> RunOutcome:
    """Build a :class:`RunOutcome` from a recording — no VM in the loop.

    The offline twin of :func:`run_workload` for replay-mode sweep
    cells: the detector consumes the recorded event stream through
    :func:`repro.trace.analyze_trace` — ``source`` is an in-memory
    :class:`~repro.trace.Trace` or a :class:`~repro.trace.TraceStream`
    read off a store in constant memory — and the machine-level result
    is synthesized from the recording's termination status, so the
    outcome's report fingerprint is bit-identical to the live run's.
    One-time costs that a live run charges separately (``instrument_s``,
    ``decode_s``) are zero here: a replay pays neither.  Propagates
    :class:`~repro.trace.TraceStreamCorruption`: the caller owns the
    store and the quarantine/fallback decision.
    """
    from repro.trace import analyze_trace, synthesize_result

    analysis = analyze_trace(source, config)
    detector = analysis.detector
    spin_loops = (
        sum(1 for s in source.loop_sizes.values() if s <= config.spin_max_blocks)
        if config.spin
        else 0
    )
    return RunOutcome(
        workload=workload,
        config=config,
        seed=seed if seed is not None else source.seed,
        report=analysis.report,
        result=synthesize_result(source),
        duration_s=analysis.duration_s,
        steps=source.steps,
        events=analysis.events,
        detector_words=detector.memory_words(),
        imap_words=0,
        spin_loops=spin_loops,
        adhoc_edges=detector.adhoc.edges if detector.adhoc is not None else 0,
        fault_plan=fault_plan,
        livelock_bound=livelock_bound,
        trace_mode="replay",
    )

