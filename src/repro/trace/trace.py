"""Trace recording, VM-free analysis, replay, and JSON serialization."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis import instrument_program, lock_site_locations
from repro.detectors import RaceDetector, Report, ToolConfig
from repro.isa.program import CodeLocation, Program, SyncKind
from repro.vm import Machine
from repro.vm import events as ev
from repro.vm.faults import FaultPlan
from repro.vm.machine import RunResult
from repro.vm.memory import SymbolMap


@dataclass
class Trace:
    """A recorded execution: events plus replay metadata."""

    program_name: str
    seed: int
    events: List[ev.Event]
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

    def symbol_map(self) -> SymbolMap:
        sm = SymbolMap()
        for name, base, size in self.symbols:
            sm.add(name, base, size)
        return sm

    def batches(self) -> Tuple[list, list, list]:
        """The event stream in the VM's flat batch form, cached.

        Returns ``(reads, writes, ctrl)`` exactly as a live
        :class:`~repro.vm.machine.Machine` would buffer them for a
        batch-consuming listener: memory accesses as flat tuples
        ``(seq, tid, addr, value, loc, atomic, in_library)`` and
        everything else as ``(seq, event)``.  Built once per trace —
        repeated analyses under different tool configurations share the
        flattening work.
        """
        cached = getattr(self, "_batch_cache", None)
        if cached is None:
            reads: list = []
            writes: list = []
            ctrl: list = []
            for seq, event in enumerate(self.events):
                if type(event) is ev.MemRead:
                    reads.append(
                        (seq, event.tid, event.addr, event.value,
                         event.loc, event.atomic, event.in_library)
                    )
                elif type(event) is ev.MemWrite:
                    writes.append(
                        (seq, event.tid, event.addr, event.value,
                         event.loc, event.atomic, event.in_library)
                    )
                else:
                    ctrl.append((seq, event))
            cached = (reads, writes, ctrl)
            self._batch_cache = cached
        return cached

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "program": self.program_name,
                "seed": self.seed,
                "max_blocks": self.max_blocks,
                "inline_depth": self.inline_depth,
                "steps": self.steps,
                "ok": self.ok,
                "status": self.status,
                "scheduler": self.scheduler,
                "loop_sizes": self.loop_sizes,
                "lock_sites": [_loc_str(l) for l in sorted(self.lock_sites, key=str)],
                "symbols": self.symbols,
                "events": [_encode_event(e) for e in self.events],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        data = json.loads(text)
        return cls(
            program_name=data["program"],
            seed=data["seed"],
            events=[_decode_event(e) for e in data["events"]],
            loop_sizes={int(k): v for k, v in data["loop_sizes"].items()},
            lock_sites=frozenset(_loc_parse(l) for l in data["lock_sites"]),
            symbols=[tuple(s) for s in data["symbols"]],
            max_blocks=data["max_blocks"],
            inline_depth=data["inline_depth"],
            steps=data["steps"],
            ok=data["ok"],
            # traces recorded before the status field default sensibly
            status=data.get("status", "ok" if data["ok"] else "step-limit"),
            # pre-spec traces were always seeded-random recordings
            scheduler=data.get("scheduler", "random"),
        )


def record_trace(
    program: Program,
    seed: int = 1,
    max_steps: int = 500_000,
    max_blocks: int = 8,
    inline_depth: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    livelock_bound: Optional[int] = None,
    scheduler: Optional[str] = None,
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
    actually failed instead of a random stand-in.
    """
    # Imported lazily: repro.harness.triage imports this module, so a
    # module-level import of the registry would be circular.
    from repro.harness.registry import build_scheduler, canonical_scheduler

    sched_spec = canonical_scheduler(scheduler)
    imap = instrument_program(program, max_blocks=max_blocks, inline_depth=inline_depth)
    events: List[ev.Event] = []
    machine = Machine(
        program,
        scheduler=build_scheduler(sched_spec, seed),
        listener=events.append,
        instrumentation=imap,
        max_steps=max_steps,
        faults=fault_plan,
        livelock_bound=livelock_bound,
    )
    result = machine.run()
    symbols = [
        (seg.name, seg.base, seg.size) for seg in machine.memory.symbols.segments()
    ]
    loop_sizes = {i: spin.effective_blocks for i, spin in enumerate(imap.loops)}
    return Trace(
        program_name=program.name,
        seed=seed,
        events=events,
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

_MARKED = (ev.MarkedLoopEnter, ev.MarkedLoopExit, ev.MarkedCondRead)


def _validate_replay(trace: Trace, config: ToolConfig) -> None:
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


def _build_detector(trace: Trace, config: ToolConfig) -> RaceDetector:
    detector = RaceDetector(config, lock_sites=trace.lock_sites)
    detector.algorithm.symbolize = trace.symbol_map().resolve
    return detector


def _wide_loops(trace: Trace, config: ToolConfig) -> FrozenSet[int]:
    """Loop ids wider than the config's spin window (empty when spin is
    off: the window is an ad-hoc-engine concept, and without one every
    marked event is dropped anyway)."""
    if not config.spin:
        return frozenset()
    k = config.spin_max_blocks
    return frozenset(i for i, size in trace.loop_sizes.items() if size > k)


_LIB_ANNOT = (ev.LibEnter, ev.LibExit)
_THREAD_SYNC = (ev.ThreadSpawnEvent, ev.ThreadJoinEvent)


def _filtered_batches(trace: Trace, config: ToolConfig) -> Tuple[list, list, list]:
    """Batches restricted to the events this config's detector consumes.

    The detector's listener no-ops whole event classes depending on the
    config: marked-loop traffic without an ad-hoc engine (``spin=False``),
    library annotations outside lib mode, nested library annotations in
    lib mode, and bookkeeping events (thread start/exit, prints, fault
    forensics) always.  A live run pays one cheap isinstance chain per
    such event; a stored trace can drop them *before* the three-way
    merge, so ``consume_batch`` only ever sees events that change
    detector state.  The marked reads are safe to drop because a marked
    load's memory access is a separate ``MemRead`` in the reads stream —
    ``MarkedCondRead`` is purely the classifier hook.

    Filtered variants are cached on the trace keyed by the filter
    signature, so the record-once-analyze-anywhere loop (many configs,
    repeated runs over one recording) shares the filtering work too.
    """
    wide = _wide_loops(trace, config)
    key = (config.intercept_lib, config.spin, wide)
    cache = getattr(trace, "_filtered_cache", None)
    if cache is None:
        cache = {}
        trace._filtered_cache = cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    reads, writes, ctrl = trace.batches()
    skip_lib = config.intercept_lib
    if skip_lib:
        reads = [r for r in reads if not r[6]]
        writes = [w for w in writes if not w[6]]
    kept = []
    for c in ctrl:
        e = c[1]
        if isinstance(e, _MARKED):
            if (
                not config.spin
                or (skip_lib and e.in_library)
                or e.loop_id in wide
            ):
                continue
        elif isinstance(e, _LIB_ANNOT):
            # The listener honours annotations only in lib mode, and
            # only when they are not nested inside another lib call.
            if not skip_lib or e.in_library:
                continue
        elif not isinstance(e, _THREAD_SYNC):
            continue
        kept.append(c)
    hit = (reads, writes, kept)
    cache[key] = hit
    return hit


def replay_trace(trace: Trace, config: ToolConfig) -> RaceDetector:
    """Run one tool configuration over a recorded execution.

    The replayed interleaving is identical for every configuration —
    something re-execution-based tools cannot guarantee.  Low-level
    primitive: the returned detector is *not* finalized, so callers can
    inspect live state; most callers want :func:`analyze_trace`, which
    also seals the report with the trace's termination status.
    """
    _validate_replay(trace, config)
    detector = _build_detector(trace, config)
    detector.consume_batch(*_filtered_batches(trace, config))
    return detector


@dataclass
class TraceAnalysis:
    """Result of one VM-free analysis of a recorded execution."""

    trace: Trace
    config: ToolConfig
    report: Report
    detector: RaceDetector
    #: events the detector processed (post lib-mode filtering)
    events: int
    #: wall-clock seconds spent in event delivery + finalization
    duration_s: float


def analyze_trace(trace: Trace, config) -> TraceAnalysis:
    """Run a tool configuration over a stored trace with no VM in the loop.

    The offline twin of :func:`repro.harness.runner.run_workload`: one
    ``consume_batch`` over the pre-filtered streams (the merge order a
    live machine's flush produces, see :func:`_filtered_batches`), then
    the detector is finalized from ``trace.status`` (``partial=True`` for
    deadlock / livelock / truncated recordings), so the resulting
    ``report.fingerprint()`` is bit-identical to the live run's.  ``config`` may be a
    :class:`~repro.detectors.ToolConfig` or a preset name.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_replay(trace, config)
    detector = _build_detector(trace, config)
    t0 = time.perf_counter()
    detector.consume_batch(*_filtered_batches(trace, config))
    report = detector.finalize(partial=trace.status != "ok")
    duration = time.perf_counter() - t0
    return TraceAnalysis(
        trace=trace,
        config=config,
        report=report,
        detector=detector,
        events=detector.events_processed,
        duration_s=duration,
    )


def synthesize_result(trace: Trace) -> RunResult:
    """Reconstruct the machine-level outcome a recording observed.

    Offline analyses have no :class:`~repro.vm.machine.RunResult`; sweep
    bookkeeping (status tables, fault accounting, output checks) still
    wants one.  Termination flags come from ``trace.status``, outputs
    from the recorded :class:`~repro.vm.events.PrintEvent` stream, and
    the fault count from the injected-fault events.
    """
    status = trace.status
    return RunResult(
        steps=trace.steps,
        timed_out=status == "step-limit",
        deadlocked=status == "deadlock",
        outputs=[
            (e.tid, e.value) for e in trace.events if isinstance(e, ev.PrintEvent)
        ],
        livelocked=status == "livelock",
        faults_injected=sum(
            1 for e in trace.events if isinstance(e, ev.FaultEvent)
        ),
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
