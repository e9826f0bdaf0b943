"""Parallel, cache-backed experiment execution — the sweep engine.

Every table and figure of the reproduction is a sweep over (workload,
tool configuration, seed) triples, and each triple is an independent,
deterministic computation: the seeded scheduler fixes the interleaving,
so re-running a triple anywhere — another process, another day — yields
a bit-identical :class:`~repro.session.SessionResult`.  This module
exploits that in four layers:

* **fan-out** — :func:`run_sweep` executes :class:`RunSpec` triples on a
  pool of long-lived forked worker *processes*: each is forked once per
  pool slot holding the whole spec list and is then sent spec indices
  over a pipe.  Results keep the input order;
* **robustness** — each run gets a configurable wall-clock timeout and
  crash isolation; a diverging or crashing workload is killed, retried
  up to ``retries`` times, and finally recorded as failed without
  taking the sweep down.  With heartbeats on, the parent distinguishes
  a *hung* worker (no VM progress) from a merely *slow* one, and a spec
  that keeps killing workers can be quarantined as a **poison spec**;
* **durability** — every completed record can be appended to an fsynced
  :class:`~repro.harness.checkpoint.SweepJournal`.  One committer thread
  per sweep writes the cache entries and journal lines off the dispatch
  path, a group of lines per fsync.  ``resume=True`` serves journaled
  specs without re-execution, so a SIGKILL/OOM mid-sweep loses only the
  in-flight runs and the completed runs whose lines were not yet
  committed.  ``KeyboardInterrupt`` returns (and journals) the partial
  result instead of discarding it;
* **cache** — a :class:`ResultCache` keyed on *content*
  (:meth:`~repro.isa.program.Program.fingerprint` of the built program +
  tool configuration + seed + step budget) persists pickled outcomes
  behind a checksummed frame, so repeated sweeps and the benchmarks skip
  already-measured runs, a torn or corrupted entry is quarantined (never
  a crash), and editing a workload generator transparently invalidates
  its entries.

Observability rides along: every run (executed, cached, or failed)
produces a structured :class:`RunRecord` with throughput and detector
statistics, and :func:`summarize_records` folds them into the
:class:`SweepSummary` consumed by ``harness.tables`` and the CLI.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.detectors import ToolConfig
from repro.durable import FramedStore
from repro.harness.checkpoint import (
    CACHE_SCHEMA,
    SweepJournal,
    spec_key,
    sweep_digest,
)
from repro.harness.registry import resolve_workload, shared_program
from repro.harness.resources import (
    ResourceBudget,
    current_rss_bytes,
    test_ballast_bytes,
)
from repro.harness.workload import Workload
from repro.isa.program import Program
from repro.session import SessionResult, run_pipeline, static_tables
from repro.trace import TraceStore, TraceStreamCorruption, key_for_spec, record_trace
from repro.vm import Machine, get_decoded_program
from repro.vm.faults import FaultPlan

log = logging.getLogger(__name__)

__all__ = [
    "CACHE_SCHEMA",
    "ResourceBudget",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "SweepError",
    "SweepResult",
    "SweepSummary",
    "TRACE_MODES",
    "WorkerExit",
    "WorkerPool",
    "default_workers",
    "outcome_status",
    "prewarm_static",
    "prewarm_traces",
    "run_sweep",
    "summarize_records",
    "sweep_specs",
]


class SweepError(RuntimeError):
    """Raised by strict sweeps when at least one run failed terminally."""


#: valid values of :attr:`RunSpec.trace_mode`
TRACE_MODES = ("live", "record", "replay")


# ---------------------------------------------------------------------------
# Run specifications


@dataclass(frozen=True)
class RunSpec:
    """One (workload, tool configuration, seed) triple of a sweep.

    ``workload`` may be a registry name (preferred — names ship cheaply
    between processes) or a :class:`Workload` object; ``config`` may
    likewise be a :meth:`~repro.detectors.ToolConfig.preset` name
    (``"helgrind-nolib-spin7"``) or a :class:`ToolConfig`.
    """

    workload: Union[str, Workload]
    config: Union[str, ToolConfig]
    seed: Optional[int] = None
    max_steps: Optional[int] = None
    #: deterministic fault plan to inject (chaos sweeps)
    fault_plan: Optional[FaultPlan] = None
    #: livelock-watchdog bound; ``None`` leaves the watchdog off
    livelock_bound: Optional[int] = None
    #: canonical scheduler spec (:func:`~repro.harness.registry.
    #: canonical_scheduler`); ``None`` keeps the seeded-random default
    scheduler: Optional[str] = None
    #: "live" executes under the VM; "record" (re-)records the cell's
    #: trace then analyzes it offline; "replay" analyzes the stored
    #: trace, recording it first only on a store miss.  Record/replay
    #: cells with the same (program, scheduler, seed, instrumentation,
    #: faults) coordinates share one recording across tool configs.
    trace_mode: str = "live"

    def resolve(self) -> Workload:
        if isinstance(self.workload, str):
            return resolve_workload(self.workload)
        return self.workload

    def program(self) -> Program:
        """The program this spec runs and keys on.

        A registry name maps to the process's one shared, read-only
        build (:func:`~repro.harness.registry.shared_program`), so the
        cache key, the parent's prewarm and every worker's cell reuse
        one build and one fingerprint; a :class:`Workload` object is
        built fresh on every call.
        """
        if isinstance(self.workload, str):
            return shared_program(self.workload)
        return self.workload.fresh_program()

    def tool(self) -> ToolConfig:
        if isinstance(self.config, str):
            return ToolConfig.preset(self.config)
        return self.config

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    def effective_seed(self) -> int:
        return self.seed if self.seed is not None else self.resolve().seed

    def effective_max_steps(self) -> int:
        return self.max_steps if self.max_steps is not None else self.resolve().max_steps

    def recording_params(self) -> dict:
        """The :func:`~repro.trace.record_trace` keywords that shape this
        cell's recording — also what its trace key digests
        (:func:`~repro.trace.store.key_for_spec`).

        Instrumentation is widened to ``max(8, spin window)`` so every
        paper preset sharing the cell's ``(program, scheduler, seed,
        faults)`` coordinates — whatever its spin window — maps to the
        *same* recording; only a differing inline depth forces a
        separate one.
        """
        tool = self.tool()
        return dict(
            seed=self.effective_seed(),
            max_steps=self.effective_max_steps(),
            max_blocks=max(8, tool.spin_max_blocks),
            inline_depth=tool.inline_depth,
            fault_plan=self.fault_plan,
            livelock_bound=self.livelock_bound,
            scheduler=self.scheduler,
        )

    def execute(
        self,
        machine_sink=None,
        trace_dir: Optional[Union[str, Path]] = None,
    ) -> SessionResult:
        """Run this spec in its trace mode — the pool's unit protocol.

        A replay or record cell streams its stored recording
        (:meth:`~repro.trace.TraceStore.open_stream`) — constant memory,
        and the stream's decoded-event count is what ``machine_sink``
        gets as the heartbeat's progress counter.  On a miss the cell
        records the program, stores the recording and streams it back;
        ``machine_sink`` gets each phase's counter in turn (VM steps,
        the store's encoded events, decoded events).  A stored payload
        that turns out malformed mid-stream is quarantined and handled
        like a miss.
        """
        if self.trace_mode == "live":
            return run_pipeline(
                self.program(),
                self.tool(),
                workload=self.resolve(),
                seed=self.effective_seed(),
                max_steps=self.effective_max_steps(),
                faults=self.fault_plan,
                livelock_bound=self.livelock_bound,
                scheduler=self.scheduler,
                machine_sink=machine_sink,
            )
        if trace_dir is None:
            raise ValueError(
                f"trace_mode={self.trace_mode!r} requires a trace store directory"
            )
        store = TraceStore(trace_dir)
        key = key_for_spec(self)
        stream = store.open_stream(key)
        if stream is not None:
            try:
                return run_pipeline(
                    stream, self.tool(), workload=self.resolve(), machine_sink=machine_sink
                )
            except TraceStreamCorruption as exc:
                store.quarantine_stream(stream, exc.reason)
        # Prewarm normally guarantees a hit; recording here keeps a
        # quarantined/raced-away entry from failing the run.
        trace = record_trace(
            self.program(), machine_sink=machine_sink, **self.recording_params()
        )
        if machine_sink is not None:
            machine_sink(store)
        store.put(key, trace)
        stream = store.open_stream(key)
        if stream is None:  # the store is off: analyze in memory
            return run_pipeline(trace, self.tool(), workload=self.resolve())
        del trace
        return run_pipeline(
            stream, self.tool(), workload=self.resolve(), machine_sink=machine_sink
        )


def sweep_specs(
    workloads: Iterable[Union[str, Workload]],
    configs: Iterable[Union[str, ToolConfig]],
    seeds: Iterable[Optional[int]] = (None,),
) -> List[RunSpec]:
    """The full cross product, workload-major, in deterministic order."""
    configs = list(configs)
    seeds = list(seeds)
    return [
        RunSpec(workload=wl, config=cfg, seed=seed)
        for wl in workloads
        for cfg in configs
        for seed in seeds
    ]


# ---------------------------------------------------------------------------
# Result cache


class ResultCache(FramedStore):
    """Content-keyed on-disk cache of pickled :class:`SessionResult` objects.

    The key hashes the *built program* (not the workload name), so two
    sweeps measuring the same program under the same configuration and
    seed share entries, and any change to a workload generator changes
    the fingerprint and misses cleanly.

    Integrity is the :class:`~repro.durable.FramedStore` contract:
    concurrent sweeps may share a directory, a process killed mid-write
    never poisons later sweeps, and a torn, bit-flipped or
    stale-schema entry is quarantined and read as a miss, never raised.
    """

    MAGIC = b"RPRC"
    SCHEMA = CACHE_SCHEMA
    SUFFIX = ".pkl"
    OFF_NOTE = "cache-off"
    DECODE_ERROR = "unpicklable"

    def key(self, spec: RunSpec) -> str:
        return spec_key(spec)

    def encode(self, outcome: SessionResult) -> bytes:
        return pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, payload: bytes) -> SessionResult:
        return pickle.loads(payload)

    def put(self, key: str, outcome: SessionResult) -> None:
        # Defined here, not inherited: the benchmark's layer tracer
        # (bench/layers.py) wraps ResultCache.put by class attribute.
        super().put(key, outcome)


# ---------------------------------------------------------------------------
# Observability records


#: statuses that count as terminal harness failures
FAILED_STATUSES = ("timeout", "crash", "error", "hung")


@dataclass(frozen=True)
class RunRecord:
    """Structured per-run observability record (one row of the sweep log)."""

    workload: str
    tool: str
    seed: int
    #: "ok", "cached", "step-limit", "deadlock", "livelock", "fault",
    #: "timeout", "crash", "hung", "poison", "wall-budget", "error".
    #: "livelock" is the watchdog firing on a stuck marked loop; "fault"
    #: is an abnormal ending (deadlock or exhausted budget) attributable
    #: to injected faults — neither counts as *failed*.  "hung" is a
    #: supervised worker making no VM progress; "poison" is a spec
    #: quarantined after repeatedly killing/hanging workers *or* after
    #: exhausting its memory-budget preemptions; "wall-budget" is a spec
    #: left undispatched when the sweep's wall budget ran out.  Poison
    #: and wall-budget are reported in the summary, not counted as
    #: sweep failures.
    status: str
    attempts: int = 1
    duration_s: float = 0.0
    instrument_s: float = 0.0
    #: one-time threaded-code decode cost (near zero on a cache hit)
    decode_s: float = 0.0
    steps: int = 0
    events: int = 0
    detector_words: int = 0
    spin_loops: int = 0
    adhoc_edges: int = 0
    racy_contexts: int = 0
    #: fault events injected during the run (chaos sweeps)
    faults: int = 0
    error: str = ""
    #: highest worker RSS observed over the run's heartbeats, bytes
    #: (0 without heartbeats or on cached/serial records)
    peak_rss: int = 0
    #: the run completed on its degraded retry after a memory-budget
    #: preemption
    degraded: bool = False
    #: times a worker for this spec was preempted over the RSS budget
    oom_preempts: int = 0

    @property
    def cached(self) -> bool:
        return self.status == "cached"

    @property
    def failed(self) -> bool:
        return self.status in FAILED_STATUSES

    @property
    def poisoned(self) -> bool:
        return self.status == "poison"

    @property
    def skipped(self) -> bool:
        """Structurally not-executed, not a failure (poison/wall-budget)."""
        return self.status in ("poison", "wall-budget")

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def events_per_s(self) -> float:
        return self.events / self.duration_s if self.duration_s > 0 else 0.0


@dataclass(frozen=True)
class SweepSummary:
    """Aggregate of a sweep's records — the observability headline."""

    runs: int
    executed: int
    cached: int
    failed: int
    retried: int
    wall_s: float
    run_s: float
    instrument_s: float
    steps: int
    events: int
    detector_words: int
    spin_loops: int
    adhoc_edges: int
    racy_contexts: int
    #: fault events injected across the sweep (0 outside chaos sweeps)
    faults: int = 0
    #: total threaded-code decode cost across executed runs; with warm
    #: caches this stays near zero even for 100-case sweeps
    decode_s: float = 0.0
    #: specs quarantined after repeatedly killing/hanging workers (or
    #: exhausting their memory-budget preemptions)
    poisoned: int = 0
    #: highest worker RSS observed across the sweep, bytes
    peak_rss: int = 0
    #: runs that completed on a degraded retry
    degraded: int = 0
    #: worker preemptions over the per-worker RSS budget
    oom_preempted: int = 0
    #: specs left undispatched when the wall budget ran out
    wall_budget_stopped: int = 0

    @property
    def steps_per_s(self) -> float:
        """Aggregate executed throughput against sweep wall-clock."""
        return self.steps / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Serialized run time over wall time (≈ effective parallelism)."""
        return self.run_s / self.wall_s if self.wall_s > 0 else 0.0


def summarize_records(records: Sequence[RunRecord], wall_s: float) -> SweepSummary:
    executed = [
        r for r in records if not r.cached and not r.failed and not r.skipped
    ]
    return SweepSummary(
        runs=len(records),
        executed=len(executed),
        cached=sum(1 for r in records if r.cached),
        failed=sum(1 for r in records if r.failed),
        retried=sum(max(0, r.attempts - 1) for r in records),
        wall_s=wall_s,
        run_s=sum(r.duration_s for r in executed),
        instrument_s=sum(r.instrument_s for r in executed),
        steps=sum(r.steps for r in executed),
        events=sum(r.events for r in executed),
        detector_words=sum(r.detector_words for r in executed),
        spin_loops=sum(r.spin_loops for r in executed),
        adhoc_edges=sum(r.adhoc_edges for r in executed),
        racy_contexts=sum(
            r.racy_contexts for r in records if not r.failed and not r.skipped
        ),
        faults=sum(r.faults for r in records if not r.failed and not r.skipped),
        decode_s=sum(r.decode_s for r in executed),
        poisoned=sum(1 for r in records if r.poisoned),
        peak_rss=max((r.peak_rss for r in records), default=0),
        degraded=sum(1 for r in records if r.degraded),
        oom_preempted=sum(r.oom_preempts for r in records),
        wall_budget_stopped=sum(1 for r in records if r.status == "wall-budget"),
    )


def outcome_status(outcome: SessionResult) -> str:
    """Harness status of a completed outcome (livelock/fault/... mapping)."""
    result = outcome.result
    if result.livelocked:
        return "livelock"
    if result.timed_out:
        return "fault" if result.faults_injected else "step-limit"
    if result.deadlocked:
        return "fault" if result.faults_injected else "deadlock"
    return "ok"


def _record_from_outcome(
    spec: RunSpec, outcome: SessionResult, attempts: int, cached: bool
) -> RunRecord:
    result = outcome.result
    status = "cached" if cached else outcome_status(outcome)
    # Abnormal endings ship their structured post-mortem in the failure
    # log: which loop livelocked, what each thread was blocked on, who
    # abandoned which lock.
    error = ""
    if status in ("livelock", "fault", "deadlock", "step-limit"):
        error = result.diagnose()
    return RunRecord(
        workload=spec.workload_name,
        tool=outcome.config.name,
        seed=outcome.seed,
        status=status,
        attempts=attempts,
        duration_s=outcome.run_s,
        instrument_s=outcome.instrument_s,
        decode_s=outcome.decode_s,
        steps=outcome.steps,
        events=outcome.events,
        detector_words=outcome.detector_words,
        spin_loops=outcome.spin_loops,
        adhoc_edges=outcome.adhoc_edges,
        racy_contexts=outcome.report.racy_contexts,
        faults=result.faults_injected,
        error=error,
    )


def _failure_record(spec: RunSpec, status: str, attempts: int, error: str) -> RunRecord:
    return RunRecord(
        workload=spec.workload_name,
        tool=spec.tool().name,
        seed=spec.effective_seed(),
        status=status,
        attempts=attempts,
        error=error,
    )


# ---------------------------------------------------------------------------
# The sweep engine


@dataclass
class SweepResult:
    """Outcome of :func:`run_sweep`; results are ordered like the specs."""

    specs: List[RunSpec]
    #: one entry per spec; ``None`` where the run failed terminally
    outcomes: List[Optional[SessionResult]]
    records: List[RunRecord]
    wall_s: float
    #: True when the sweep was cut short by KeyboardInterrupt; the
    #: records list then holds every run that *did* finish
    interrupted: bool = False
    #: specs served from the checkpoint journal without re-execution
    resumed: int = 0
    #: structured degradation notes from the governed layers (cache-off
    #: on ENOSPC, trace-store write-off, ...); empty on a healthy sweep
    notes: List[str] = field(default_factory=list)

    def summary(self) -> SweepSummary:
        return summarize_records(self.records, self.wall_s)

    @property
    def failed(self) -> List[RunRecord]:
        return [r for r in self.records if r.failed]

    @property
    def poisoned(self) -> List[RunRecord]:
        return [r for r in self.records if r.poisoned]


def prewarm_traces(
    specs: Iterable[RunSpec],
    trace_dir: Union[str, Path],
    store=None,
) -> int:
    """Record each distinct missing trace cell once, in the parent.

    The record/replay analogue of :func:`prewarm_static`: a sweep that
    fans N tool configs over one ``(program, scheduler, seed, faults)``
    cell must execute the program exactly once, so the parent records
    every cell the store is missing before any worker dispatch — workers
    then only ever *read* traces.  ``record``-mode cells are re-recorded
    fresh (once per distinct key); ``replay`` cells are recorded only on
    a store miss.  Returns the number of recordings written.  ``store``
    lets the caller supply an already-governed :class:`TraceStore`
    (quota, degradation notes) instead of a fresh ungoverned one.
    """
    if store is None:
        store = TraceStore(trace_dir)
    recorded = 0
    seen = set()
    for spec in specs:
        if spec.trace_mode == "live":
            continue
        key = key_for_spec(spec)
        if key in seen:
            continue
        seen.add(key)
        # A hit needs only the frame checksum and the metadata line; a
        # checksum-valid but malformed payload surfaces in the worker,
        # which quarantines it and records afresh.
        if spec.trace_mode != "record" and store.open_stream(key) is not None:
            continue
        store.put(key, record_trace(spec.program(), **spec.recording_params()))
        recorded += 1
    return recorded


def _worker_main(
    table: Sequence,
    conn,
    heartbeat_s: Optional[float] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    inherited: Sequence = (),
) -> None:
    """Worker entry point: run units until stopped.

    Each request on the duplex pipe is ``(index, degraded)`` for a unit
    of ``table`` — the worker was forked holding it, so closure-built
    workloads work — or ``(unit, degraded)`` for any other unit, which
    travelled pickled.  Either way the worker calls
    ``unit.execute(machine_sink=..., trace_dir=...)``; the reply is
    ``("ok", outcome)`` or ``("error", text)``.  After an error the
    worker exits — it is retired, since a unit that raised may have left
    process state half-updated.  ``None`` or EOF (the parent closed its
    end, or died) stops it.

    With ``heartbeat_s`` set, a daemon thread reports a progress counter
    *and the worker's self-sampled RSS* over the pipe at that interval
    while a unit runs: the parent tells a hung worker (counter frozen)
    from a slow one (counter advancing) and preempts one whose RSS
    exceeds the sweep's memory budget.  The counter belongs to whatever
    the unit hands to ``machine_sink``: a :class:`~repro.vm.Machine`
    counts VM steps, a :class:`~repro.trace.TraceStore` the events its
    puts have encoded, a :class:`~repro.trace.TraceStream` decoded
    events; it restarts at -1 for every unit.  ``degraded`` marks a
    post-preemption retry; it only decides whether the smoke-test
    ballast is allocated.
    """
    import gc

    # ``inherited`` holds the parent-side pipe ends this process got from
    # the fork: its own and those of every worker forked before it.  An
    # open copy would keep a worker's recv() blocked after the parent is
    # SIGKILLed, so close them all.
    for other in inherited:
        other.close()
    # The parent may have turned SIGTERM into KeyboardInterrupt; a worker
    # it terminates should just die.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # The forked heap (workload registry, suite programs, the units) is
    # read-only ballast here; freezing it keeps collections off the
    # shared pages (avoids copy-on-write faults).
    gc.freeze()
    send_lock = threading.Lock()
    # the running unit's progress source; "running" is False between
    # units, so no beat of a finished unit can reach the parent after
    # its reply and be charged to the next unit
    state: dict = {"running": False, "source": None}

    def _send_beat() -> bool:
        with send_lock:
            if not state["running"]:
                return True
            # The progress counter: VM steps, events a store encoded,
            # or decoded events of a stream (-1 before any of them).
            source = state["source"]
            if source is None:
                steps = -1
            elif isinstance(source, Machine):
                steps = source.step_count
            elif isinstance(source, TraceStore):
                steps = source.encoded
            else:
                steps = source.decoded
            try:
                rss = current_rss_bytes()
            except Exception:
                rss = 0
            try:
                conn.send(("hb", steps, rss))
            except Exception:
                return False
            return True

    if heartbeat_s:
        def _beat() -> None:
            while True:
                time.sleep(heartbeat_s)
                if not _send_beat():
                    return

        threading.Thread(target=_beat, daemon=True).start()

    def sink(source) -> None:
        state["source"] = source

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if request is None:
            return
        unit, degraded = request
        # Deterministic memory pressure for the budget smoke test; None in
        # normal operation.  Held alive for the duration of the unit.
        ballast = test_ballast_bytes(degraded)  # noqa: F841 — liveness is the point
        with send_lock:
            state["running"], state["source"] = True, None
        if heartbeat_s:
            # The first beat is sent synchronously, before the unit runs:
            # its allocations (the smoke-test ballast) are resident
            # *now*, and the pipe is FIFO — an over-budget worker's RSS
            # reaches the parent before any result it might race to
            # deliver, so budget preemption cannot be dodged by finishing
            # fast.  (A thread's beat would race the unit itself and lose
            # on a busy single-core host.)
            _send_beat()
        try:
            if isinstance(unit, int):
                unit = table[unit]
            outcome = unit.execute(machine_sink=sink, trace_dir=trace_dir)
            with send_lock:
                state["running"] = False
                conn.send(("ok", outcome))
        except BaseException as exc:  # crash isolation: never take the pool down
            with send_lock:
                state["running"] = False
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except Exception:
                    pass
            return
        # Freed before the next unit runs: a live outcome holds its
        # machine and detector.
        outcome = ballast = None


def _run_serial(
    specs: Sequence[RunSpec],
    indices: Sequence[Tuple[int, str]],
    outcomes: List[Optional[SessionResult]],
    records: List[Optional[RunRecord]],
    committer: "_Committer",
    trace_dir: Optional[Union[str, Path]] = None,
) -> None:
    """In-process reference executor (``workers=0``) — no isolation.

    Outcomes are kept detached, as a pool's arrive.  The committer
    writes each cell's cache entry and journal line while the next cell
    runs.
    """
    for i, key in indices:
        spec = specs[i]
        outcome: Optional[SessionResult] = None
        try:
            outcome = spec.execute(trace_dir=trace_dir).detached()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            record = _failure_record(spec, "error", 1, f"{type(exc).__name__}: {exc}")
        else:
            record = _record_from_outcome(spec, outcome, attempts=1, cached=False)
        committer.commit(key, record, outcome)
        outcomes[i], records[i] = outcome, record


class _Committer:
    """The one thread that writes a sweep's cache entries and journal lines.

    The sweep loop hands every finished run to :meth:`commit` and goes
    back to its workers.  The thread drains whatever is queued, puts
    each outcome into the cache in queue order (temp, fsync, rename),
    then appends the drained records to the journal as one group (one
    write and one fsync).  A cache entry is therefore durable before its
    journal line, and a SIGKILL loses only the completed runs whose
    lines were not yet committed; resume re-runs them.

    :meth:`close` drains and joins.  An error on the thread stops it and
    is re-raised by the next :meth:`commit` or by :meth:`close`.  The
    pool forks workers while the thread runs, so a worker may inherit
    the queue lock held: no worker path takes it.
    """

    def __init__(
        self, cache: Optional[ResultCache], journal: Optional[SweepJournal]
    ) -> None:
        self._cache, self._journal = cache, journal
        #: (key, record, outcome to cache or None), in completion order
        self._queue: List[Tuple[str, RunRecord, Optional[SessionResult]]] = []
        self._cond = threading.Condition(threading.Lock())
        self._closing = False
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        if cache is not None or journal is not None:
            self._thread = threading.Thread(
                target=self._run, name="sweep-committer", daemon=True
            )
            self._thread.start()

    def commit(
        self, key: str, record: RunRecord, outcome: Optional[SessionResult] = None
    ) -> None:
        """Queue one finished run: ``outcome`` (if any) for the cache,
        ``record`` for the journal."""
        self.commit_many([(key, record, outcome)])

    def commit_many(
        self, items: Sequence[Tuple[str, RunRecord, Optional[SessionResult]]]
    ) -> None:
        if self._thread is None:
            return
        with self._cond:
            self._raise_error()
            self._queue.extend(items)
            self._cond.notify()

    def _raise_error(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error

    def _run(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._queue and not self._closing:
                        self._cond.wait()
                    if not self._queue:
                        return
                    batch, self._queue = self._queue, []
                if self._cache is not None:
                    for key, _record, outcome in batch:
                        if outcome is not None:
                            self._cache.put(key, outcome)
                if self._journal is not None:
                    self._journal.append([(key, record) for key, record, _ in batch])
        except BaseException as exc:  # handed to the sweep thread
            with self._cond:
                self._error = exc

    def close(self) -> None:
        """Commit everything queued, join the thread, re-raise its error.

        An interrupt that lands meanwhile is held off: the drain is what
        an interrupted sweep waits for before it returns.
        """
        while self._thread is not None and self._thread.is_alive():
            try:
                with self._cond:
                    self._closing = True
                    self._cond.notify()
                self._thread.join()
            except KeyboardInterrupt:
                continue
        self._raise_error()


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Convert SIGTERM into :class:`KeyboardInterrupt` for the block.

    A daemon supervisor (systemd, the service engine, ``kill``) delivers
    SIGTERM where an interactive user delivers SIGINT; both deserve the
    same graceful teardown — reap workers, flush the journal, return the
    partial result with ``interrupted=True``.  Signal handlers can only
    be installed from the main thread; elsewhere (e.g. the service
    engine's executor threads) this is a no-op and the caller's own
    cancellation path applies.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise KeyboardInterrupt(f"SIGTERM (signal {signum})")

    try:
        prev = signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - non-main interpreter thread
        yield
        return
    try:
        yield
    finally:
        try:
            signal.signal(signal.SIGTERM, prev)
        except (ValueError, TypeError):  # pragma: no cover
            pass


def run_sweep(
    specs: Iterable[RunSpec],
    workers: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    strict: bool = False,
    journal_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    heartbeat_s: Optional[float] = None,
    hung_after_s: Optional[float] = None,
    poison_threshold: Optional[int] = None,
    forensics_dir: Optional[Union[str, Path]] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    budget: Optional[ResourceBudget] = None,
) -> SweepResult:
    """Execute ``specs``, fanning out over ``workers`` processes.

    :param workers: worker process count (each runs many specs; a
        failed worker is replaced); ``None`` → one per CPU; ``0`` runs
        everything in-process (the serial reference path — identical
        results, no isolation).
    :param cache: optional :class:`ResultCache`; hits skip execution
        entirely, misses are written back after a successful run.
    :param timeout_s: per-run wall-clock budget; an overrunning worker
        is killed and the run retried (``workers >= 1`` only).
    :param retries: extra attempts after a timeout/crash/error before
        the run is recorded as failed.
    :param strict: raise :class:`SweepError` if any run failed
        terminally instead of returning ``None`` outcomes (skipped when
        the sweep was interrupted — the partial result is returned).
    :param journal_dir: directory for the fsynced checkpoint journal.
        Every completed record is appended by the sweep's committer
        thread, after its cache entry, in groups of one fsync; all of
        them are durable before this call returns.  A SIGKILL loses
        only the completed runs whose lines were not yet committed,
        and ``resume`` re-runs them.
    :param resume: with ``journal_dir``, serve specs already journaled
        by an earlier (possibly killed) run of the *same* sweep without
        re-executing them.  Without ``resume`` an existing journal for
        this sweep is discarded and rewritten.
    :param heartbeat_s: interval at which workers report VM progress
        over the result pipe; enables hung/slow discrimination.
    :param hung_after_s: kill a worker whose step counter has not
        advanced for this long (default ``10 * heartbeat_s``); recorded
        as status ``"hung"``.  A worker past ``timeout_s`` that *is*
        making progress is granted up to four times ``timeout_s`` in
        total (:class:`WorkerPool`'s ``slow_grace``) before being killed
        as a timeout.
    :param poison_threshold: a spec whose workers are killed or hang
        this many times is quarantined as a **poison spec** (status
        ``"poison"``, reported in the summary, not a sweep failure) and
        never retried again.
    :param forensics_dir: capture a replayable trace artifact (plus an
        auto-shrunk repro) for every failed or poisoned run, on a
        fresh pool of ``workers`` processes once the sweep is done — see
        :func:`repro.harness.triage.capture_failures`.
    :param trace_dir: :class:`~repro.trace.TraceStore` directory for
        record/replay-mode specs.  Defaults to ``<cache>/traces`` when a
        result cache is given; required (explicitly or via ``cache``)
        when any spec has ``trace_mode != "live"``.  Each distinct
        trace cell is recorded at most once, in the parent, before any
        fan-out (:func:`prewarm_traces`).
    :param budget: a :class:`~repro.harness.resources.ResourceBudget`.
        With ``max_rss_bytes`` set (and heartbeats on), a worker whose
        self-sampled RSS exceeds the cap is preempted and retried once
        in degraded mode, outside the attempt budget (replay cells
        stream their recording in constant memory on every attempt);
        a second preemption
        quarantines the spec as poison — statuses stay structured, the
        sweep never crashes.  ``disk_quota_bytes`` is applied to the
        result cache and the trace store (LRU eviction on put,
        cache-off degradation on ENOSPC — see ``SweepResult.notes``).
        ``wall_budget_s`` stops dispatching new runs once that long
        has passed since this call (trace prewarm included);
        undispatched specs are recorded as ``"wall-budget"``.  Budgets
        need worker isolation: the serial path (``workers=0``) runs
        ungoverned.

    Results are deterministic and bit-identical to serial execution:
    workers add no scheduling or RNG state of their own, so only the
    *wall-clock fields* (``duration_s``, ``instrument_s``) vary between
    runs of the same spec.

    A ``KeyboardInterrupt`` mid-sweep kills and reaps every live
    worker, commits every finished record, and returns the partial
    result with ``interrupted=True`` instead of losing them.  A cache
    or journal write error (``OSError``) is re-raised from here.
    ``SIGTERM`` (what a daemon supervisor sends) gets the identical
    treatment: while the sweep runs on the main thread it is converted
    to ``KeyboardInterrupt``, so a terminated sweep still reaps its
    workers and keeps its journal.
    """
    # The wall budget counts from here: trace recording and cache
    # warming are sweep time too.
    wall_deadline = None
    if budget is not None and budget.wall_budget_s is not None:
        wall_deadline = time.monotonic() + budget.wall_budget_s
    specs = list(specs)
    for spec in specs:
        if spec.trace_mode not in TRACE_MODES:
            raise ValueError(
                f"unknown trace_mode {spec.trace_mode!r}; expected one of "
                f"{TRACE_MODES}"
            )
    needs_traces = any(s.trace_mode != "live" for s in specs)
    if needs_traces and trace_dir is None:
        if cache is None:
            raise ValueError(
                "record/replay trace modes require trace_dir (or a cache "
                "to default next to)"
            )
        trace_dir = cache.root / "traces"
    trace_store = None
    if budget is not None and budget.disk_quota_bytes is not None:
        if cache is not None and cache.quota_bytes is None:
            cache.quota_bytes = budget.disk_quota_bytes
    if needs_traces:
        trace_store = TraceStore(
            trace_dir,
            quota_bytes=budget.disk_quota_bytes if budget is not None else None,
        )
    start = time.perf_counter()
    outcomes: List[Optional[SessionResult]] = [None] * len(specs)
    records: List[Optional[RunRecord]] = [None] * len(specs)

    # Content keys are needed by the cache, the journal, and forensics
    # artifact naming; compute them once (registry-named workloads hit
    # the memoized fingerprint).
    need_keys = cache is not None or journal_dir is not None or forensics_dir is not None
    keys: List[str] = [spec_key(s) for s in specs] if need_keys else [""] * len(specs)

    journal: Optional[SweepJournal] = None
    journaled: Dict[str, RunRecord] = {}
    if journal_dir is not None:
        journal = SweepJournal(journal_dir, sweep_digest(keys))
        if resume:
            journaled = journal.load()
        else:
            journal.reset()
    elif resume:
        raise ValueError("resume=True requires journal_dir")

    resumed = 0
    pending: deque = deque()  # (index, cache_key, attempt, degraded)
    hits: List[Tuple[str, RunRecord, None]] = []
    for i, spec in enumerate(specs):
        key = keys[i]
        prior = journaled.get(key)
        if prior is not None:
            # Finished by an earlier run of this sweep: serve the
            # journaled record verbatim (timing fields included) and the
            # cached outcome when one exists.
            records[i] = prior
            resumed += 1
            if cache is not None and key and not prior.failed:
                outcomes[i] = cache.get(key)
            continue
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                outcomes[i] = hit
                records[i] = _record_from_outcome(spec, hit, attempts=0, cached=True)
                hits.append((key, records[i], None))
                continue
        pending.append((i, key, 1, False))

    if workers is None:
        workers = default_workers()

    interrupted = False
    committer = _Committer(cache, journal)
    with _sigterm_as_interrupt():
        try:
            # the hits' journal lines go down as one group
            committer.commit_many(hits)
            if needs_traces and pending:
                # Record every missing cell once, before any dispatch:
                # the whole point of record/replay sweeps is one
                # execution per (program, scheduler, seed, faults) cell,
                # however many tool configs fan out over it.
                prewarm_traces(
                    (specs[i] for i, *_ in pending), trace_dir, store=trace_store
                )
            if workers <= 0:
                _run_serial(
                    specs,
                    [(i, key) for i, key, *_ in pending],
                    outcomes,
                    records,
                    committer,
                    trace_dir=trace_dir,
                )
            elif pending:
                _run_pool(
                    specs,
                    pending,
                    outcomes,
                    records,
                    committer,
                    workers,
                    timeout_s,
                    retries,
                    heartbeat_s=heartbeat_s,
                    hung_after_s=hung_after_s,
                    poison_threshold=poison_threshold,
                    trace_dir=trace_dir,
                    budget=budget,
                    wall_deadline=wall_deadline,
                )
        except KeyboardInterrupt:
            # Children are already reaped (the pool's finally); keep every
            # finished record instead of throwing the sweep away.  SIGTERM
            # arrives here too (converted by _sigterm_as_interrupt): a
            # daemon supervisor's stop is an interrupt, not a crash.
            interrupted = True
        finally:
            # Every record this sweep returns is committed before it
            # returns, on every exit path.
            try:
                committer.close()
            finally:
                if journal is not None:
                    journal.close()

    wall_s = time.perf_counter() - start
    notes: List[str] = []
    if cache is not None:
        notes.extend(cache.notes)
    if trace_store is not None:
        notes.extend(trace_store.notes)
    result = SweepResult(
        specs=specs,
        outcomes=outcomes,
        records=[r for r in records if r is not None],
        wall_s=wall_s,
        interrupted=interrupted,
        resumed=resumed,
        notes=notes,
    )
    if forensics_dir is not None and not interrupted:
        from repro.harness.triage import CaptureUnit, capture_failures

        capture_failures(
            [
                CaptureUnit(specs[i], rec, forensics_dir, key=keys[i])
                for i, rec in enumerate(records)
                if rec is not None and (rec.failed or rec.poisoned)
            ],
            workers,
        )
    if strict and result.failed and not interrupted:
        lines = ", ".join(
            f"{r.workload}/{r.tool}/seed={r.seed}: {r.status} {r.error}".strip()
            for r in result.failed
        )
        raise SweepError(f"{len(result.failed)} run(s) failed: {lines}")
    return result


def _mp_context():
    # Fork keeps locally registered workloads and closure-built Workload
    # objects visible in children; fall back to the platform default
    # (spawn) where fork is unavailable — there, specs must use registry
    # names.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def prewarm_static(specs: Iterable[RunSpec]) -> int:
    """Fill the decode and instrumentation caches for the live cells of
    ``specs``.

    Each worker process starts with the caches it was forked with, so
    without this every worker of a pool sweep decodes each program it
    meets (and a replacement worker decodes them all again).  The pool
    calls this in the parent just before the first fork: workers inherit
    the warm caches copy-on-write and hit them on first use.  The tables
    come from :func:`repro.session.static_tables`, the rule
    :func:`~repro.session.run_pipeline` applies, so exactly the keys a
    cell reads are warmed.  Replay and record cells run no VM in a
    worker and are skipped.  Registry-named specs warm the shared build
    (:meth:`RunSpec.program`), so workers build and hash nothing; a
    :class:`Workload`-object spec is built here and again in its cell —
    builds are deterministic, so the content keys match.

    Returns the number of distinct decoded programs warmed.  Safe to
    call directly before a serial sweep or from user harnesses; failures
    during a workload build are left for the run itself to report.
    """
    warmed = set()
    seen = set()
    programs: Dict[str, Program] = {}
    for spec in specs:
        armed = spec.livelock_bound is not None
        cell = (spec.workload_name, spec.config, armed)
        if spec.trace_mode != "live" or cell in seen:
            continue
        seen.add(cell)
        try:
            program = programs.get(spec.workload_name)
            if program is None:
                program = programs[spec.workload_name] = spec.program()
            _, tables = static_tables(program, spec.tool(), armed)
            warmed.add(get_decoded_program(program, tables, armed).key)
        except Exception:
            continue
    return len(warmed)


@dataclass
class _Job:
    """Parent-side supervision state for the unit a worker is running."""

    token: object
    attempt: int
    start_t: float
    deadline: Optional[float]
    #: per-submission flat timeout (``None`` → untimed); the slow-grace
    #: multiplier applies to this value
    timeout_s: Optional[float] = None
    #: most recent progress counter reported over the heartbeat channel
    last_steps: int = -1
    #: monotonic time of the last *advancing* heartbeat (or dispatch)
    last_progress_t: float = 0.0
    #: highest self-sampled RSS reported over the heartbeat channel
    peak_rss: int = 0
    #: the unit is a degraded retry after an over-budget preemption
    degraded: bool = False


@dataclass
class _Worker:
    """One long-lived worker process, and the unit it runs (if any)."""

    proc: object
    conn: object
    job: Optional[_Job] = None


@dataclass(frozen=True)
class WorkerExit:
    """One supervised unit's terminal event (:meth:`WorkerPool.poll`).

    ``kind`` is ``"ok"`` (``payload`` is the outcome), ``"crash"``,
    ``"error"``, ``"timeout"``, ``"hung"`` (``payload`` is the error
    text), or ``"oom"`` (the worker was preempted over the pool's RSS
    cap; ``payload`` is the offending RSS sample).  The pool only
    *observes and kills* — retry, poison, and degraded-mode policy
    belong to the caller, which correlates events via ``token``.
    """

    token: object
    kind: str
    payload: object
    attempt: int
    degraded: bool
    peak_rss: int = 0


#: sentinel distinguishing "no per-submit override" from an explicit None
_POOL_DEFAULT = object()


class WorkerPool:
    """Supervised long-lived forked workers, submitted to incrementally.

    The execution substrate :func:`run_sweep`, forensic capture and the
    analysis service daemon (:mod:`repro.service`) all schedule onto.
    Each worker runs :func:`_worker_main`: it is forked holding the
    pool's ``table`` (a sweep's spec list, triage's captures, or none)
    and runs one unit per request on its duplex pipe.  A unit in the
    table travels as its index, so closure-built workloads work; any
    other unit travels pickled, and one that cannot be pickled comes
    back from :meth:`poll` as an ``error`` exit.

    A worker is reused until something goes wrong: after an ``error``
    it is retired, after a ``crash``/``timeout``/``hung``/``oom`` it is
    killed, and the next dispatch forks a replacement.  So a pool forks
    ``workers`` processes plus one per failure.

    :meth:`poll` performs one non-blocking supervision pass — drains
    heartbeats, distinguishes hung workers (progress counter frozen past
    ``hung_after_s``) from slow ones (granted up to ``slow_grace *
    timeout``), preempts workers whose self-sampled RSS exceeds
    ``rss_cap`` — and returns a :class:`WorkerExit` per unit that
    finished or was killed; :meth:`wait` blocks until the next such
    event can be due.  All *policy* (retries, poison quarantine,
    degraded re-queues, journaling) stays with the caller: the pool
    never re-runs anything on its own.

    A unit is any object exposing ``execute(machine_sink=...,
    trace_dir=...)``: a :class:`RunSpec`, a forensic capture, a service
    trace upload.  ``timeout_s`` at submit overrides the pool default
    per request — the seam the service's per-request deadlines ride on.
    """

    def __init__(
        self,
        workers: int,
        timeout_s: Optional[float] = None,
        heartbeat_s: Optional[float] = None,
        hung_after_s: Optional[float] = None,
        slow_grace: float = 4.0,
        rss_cap: Optional[int] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        table: Sequence = (),
    ) -> None:
        self.workers = max(1, workers)
        self.timeout_s = timeout_s
        self.heartbeat_s = heartbeat_s
        if heartbeat_s is not None and hung_after_s is None:
            hung_after_s = 10.0 * heartbeat_s
        self.hung_after_s = hung_after_s
        self.slow_grace = slow_grace
        self.rss_cap = rss_cap
        self.trace_dir = trace_dir
        self.ctx = _mp_context()
        self._workers: List[_Worker] = []
        #: the units every worker is forked holding, and each one's
        #: index in that table, by id
        self._table = list(table)
        self._index = {id(unit): i for i, unit in enumerate(self._table)}
        #: stopped and retired processes, reaped as they exit
        self._exiting: List = []
        #: exits of units that could not be sent, for the next poll
        self._refused: List[WorkerExit] = []

    @property
    def active(self) -> int:
        """Units running under supervision."""
        return sum(1 for w in self._workers if w.job is not None)

    @property
    def free_slots(self) -> int:
        return max(0, self.workers - self.active)

    def submit(
        self,
        unit,
        token: object = None,
        attempt: int = 1,
        degraded: bool = False,
        timeout_s: object = _POOL_DEFAULT,
    ) -> None:
        """Run ``unit`` on an idle worker, else on a newly forked one.

        Over-submission is allowed — ``free_slots`` is the caller's
        throttle, not an enforced cap."""
        index = self._index.get(id(unit))
        try:
            request = ForkingPickler.dumps((unit if index is None else index, degraded))
        except Exception as exc:  # any __reduce__ may raise; report, never crash
            error = f"unit cannot be sent to a worker: {type(exc).__name__}: {exc}"
            self._refused.append(WorkerExit(token, "error", error, attempt, degraded))
            return
        worker = self._idle() or self._fork()
        now = time.monotonic()
        limit = self.timeout_s if timeout_s is _POOL_DEFAULT else timeout_s
        worker.job = _Job(
            token=token,
            attempt=attempt,
            start_t=now,
            deadline=None if limit is None else now + limit,
            timeout_s=limit,
            last_progress_t=now,
            degraded=degraded,
        )
        try:
            worker.conn.send_bytes(request)
        except OSError:
            pass  # died while idle: the next poll reports the crash

    def _idle(self) -> Optional[_Worker]:
        """A live idle worker, if there is one."""
        for w in list(self._workers):
            if w.job is None:
                if w.proc.is_alive():
                    return w
                self._discard(w)  # died while idle
        return None

    def _fork(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        inherited: List = []
        if self.ctx.get_start_method() == "fork":
            inherited = [w.conn for w in self._workers] + [parent_conn]
        proc = self.ctx.Process(
            target=_worker_main,
            args=(self._table, child_conn, self.heartbeat_s, self.trace_dir, inherited),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn)
        self._workers.append(worker)
        return worker

    def _stop(self, w: _Worker) -> None:
        """Ask a worker to exit and reap it later (never blocks)."""
        self._workers.remove(w)
        try:
            w.conn.send(None)
        except OSError:
            pass
        w.conn.close()
        self._exiting.append(w.proc)

    def _discard(self, w: _Worker) -> None:
        """Kill and reap a worker (it is running or broken), drop it."""
        self._workers.remove(w)
        _kill(w.proc)
        w.conn.close()

    def _exit(self, job: _Job, kind: str, payload: object) -> WorkerExit:
        return WorkerExit(
            token=job.token,
            kind=kind,
            payload=payload,
            attempt=job.attempt,
            degraded=job.degraded,
            peak_rss=job.peak_rss,
        )

    def _drain(self, w: _Worker) -> Optional[WorkerExit]:
        """Consume every message the worker has sent so far.

        Heartbeats update the progress and RSS bookkeeping; a reply (or
        an over-budget RSS sample, which kills the worker) ends the unit
        and is returned as its exit.
        """
        job, conn = w.job, w.conn
        while conn.poll(0):
            try:
                msg = conn.recv()
            except EOFError:
                # The worker closed its end without replying: it died.
                self._discard(w)
                return self._exit(job, "crash", f"exit code {w.proc.exitcode}")
            except (OSError, pickle.UnpicklingError) as exc:
                self._discard(w)
                return self._exit(job, "crash", f"unreadable result: {exc}")
            kind, payload = msg[0], msg[1]
            if kind == "hb":
                # Any change is progress: a replay miss restarts the
                # counter at each phase (record, store, stream).
                if payload != job.last_steps:
                    job.last_steps = payload
                    job.last_progress_t = time.monotonic()
                rss = msg[2]
                if rss > job.peak_rss:
                    job.peak_rss = rss
                if self.rss_cap is not None and rss > self.rss_cap:
                    # Over the memory budget: kill now, report the
                    # sample; degraded-retry-vs-poison is policy.
                    self._discard(w)
                    log.warning(
                        "worker oom-preempted: rss=%d cap=%d attempt=%d "
                        "degraded=%s",
                        rss, self.rss_cap, job.attempt, job.degraded,
                    )
                    return self._exit(job, "oom", rss)
                continue
            w.job = None
            if kind == "ok":
                return self._exit(job, "ok", payload)
            self._stop(w)  # retired: it exits after an error reply
            return self._exit(job, "error", str(payload))
        return None

    def poll(self) -> List[WorkerExit]:
        """One supervision pass; returns every unit that terminated."""
        if self._exiting:
            self._exiting = [p for p in self._exiting if p.is_alive()]
        exits, self._refused = self._refused, []
        for w in [w for w in self._workers if w.job is not None]:
            job = w.job
            done = self._drain(w)
            now = time.monotonic()
            if done is None and not w.proc.is_alive():
                # A worker that replied and exited after the drain above
                # is not a crash: drain once more before deciding.
                done = self._drain(w)
                if done is None:
                    # Died without delivering a result: hard crash.
                    w.proc.join()
                    self._discard(w)
                    done = self._exit(job, "crash", f"exit code {w.proc.exitcode}")
            if done is not None:
                exits.append(done)
            elif (
                self.heartbeat_s is not None
                and self.hung_after_s is not None
                and now - job.last_progress_t > self.hung_after_s
            ):
                # No progress for the whole hang window: hung,
                # regardless of how much flat timeout remains.
                self._discard(w)
                exits.append(
                    self._exit(
                        job,
                        "hung",
                        f"no VM progress for {self.hung_after_s:.3g}s "
                        f"(last step count {job.last_steps})",
                    )
                )
            elif job.deadline is not None and now > job.deadline:
                if now < self._grace_end(job):
                    continue  # slow but advancing: grant grace
                self._discard(w)
                limit = (
                    job.timeout_s * max(self.slow_grace, 1.0)
                    if self.heartbeat_s is not None
                    else job.timeout_s
                )
                exits.append(self._exit(job, "timeout", f"exceeded {limit:.3g}s"))
        return exits

    def _grace_end(self, job: _Job) -> float:
        """When a unit past its deadline stops being granted slow-grace:
        now, unless heartbeats show it still advancing."""
        if self.heartbeat_s is None or (
            time.monotonic() - job.last_progress_t > self.hung_after_s
        ):
            return job.deadline
        return job.start_t + job.timeout_s * max(self.slow_grace, 1.0)

    def wait_handles(self) -> Tuple[List[int], Optional[float]]:
        """The fds of the busy workers' pipes and sentinels, and the
        seconds to the nearest deadline or hang window (``None``: no
        timer).  No fds: nothing runs, or a refused exit waits (``0``)."""
        busy = [w for w in self._workers if w.job is not None]
        if not busy or self._refused:
            return [], 0.0 if self._refused else None
        due: List[float] = []
        now = time.monotonic()
        for w in busy:
            job = w.job
            if job.deadline is not None:
                due.append(job.deadline if now < job.deadline else self._grace_end(job))
            if self.heartbeat_s is not None and self.hung_after_s is not None:
                due.append(job.last_progress_t + self.hung_after_s)
        timeout = max(0.0, min(due) - now) if due else None
        return [w.conn.fileno() for w in busy] + [w.proc.sentinel for w in busy], timeout

    def wait(self) -> None:
        """Block until a busy worker sends a message or exits, or the
        nearest deadline or hang window passes."""
        fds, timeout = self.wait_handles()
        if fds:
            multiprocessing.connection.wait(fds, timeout)

    def shutdown(self) -> None:
        """Kill *and reap* every worker (no zombies), close pipes."""
        for w in list(self._workers):
            self._discard(w)
        for proc in self._exiting:
            _reap(proc)
        self._exiting.clear()


def _run_pool(
    specs: Sequence[RunSpec],
    pending: deque,
    outcomes: List[Optional[SessionResult]],
    records: List[Optional[RunRecord]],
    committer: _Committer,
    workers: int,
    timeout_s: Optional[float],
    retries: int,
    heartbeat_s: Optional[float] = None,
    hung_after_s: Optional[float] = None,
    poison_threshold: Optional[int] = None,
    trace_dir: Optional[Union[str, Path]] = None,
    budget: Optional[ResourceBudget] = None,
    wall_deadline: Optional[float] = None,
) -> None:
    pool = WorkerPool(
        workers,
        timeout_s=timeout_s,
        heartbeat_s=heartbeat_s,
        hung_after_s=hung_after_s,
        rss_cap=budget.max_rss_bytes if budget is not None else None,
        trace_dir=trace_dir,
        table=specs,
    )
    if pool.ctx.get_start_method() == "fork":
        # Warm the decode/instrumentation caches once in the parent so
        # every forked worker inherits them copy-on-write; a 120-case
        # sweep then decodes each distinct program once, not per worker.
        prewarm_static(specs[i] for i, *_ in pending)
    max_attempts = 1 + max(0, retries)
    rss_cap = pool.rss_cap
    #: per-spec count of kill-class failures (timeout/crash/hung)
    infra_counts: Dict[int, int] = {}
    #: per-spec count of over-budget preemptions
    oom_counts: Dict[int, int] = {}
    #: per-spec high-water RSS across attempts
    peak_rss_by_index: Dict[int, int] = {}

    def govern(i: int, record: RunRecord, degraded: bool) -> RunRecord:
        """Stamp the governance observability fields onto a record."""
        peak = peak_rss_by_index.get(i, 0)
        ooms = oom_counts.get(i, 0)
        if not peak and not ooms and not degraded:
            return record
        return replace(
            record, peak_rss=peak, degraded=degraded, oom_preempts=ooms
        )

    def commit(
        i: int, key: str, record: RunRecord, outcome: Optional[SessionResult] = None
    ) -> None:
        committer.commit(key, record, outcome)
        outcomes[i], records[i] = outcome, record

    def finish_ok(
        i: int, key: str, outcome: SessionResult, attempt: int, degraded: bool = False
    ) -> None:
        record = _record_from_outcome(specs[i], outcome, attempt, cached=False)
        commit(i, key, govern(i, record, degraded), outcome)

    def retry_or_fail(
        i: int,
        key: str,
        attempt: int,
        status: str,
        error: str,
        degraded: bool = False,
    ) -> None:
        if status in ("timeout", "crash", "hung"):
            infra_counts[i] = infra_counts.get(i, 0) + 1
            if poison_threshold is not None and infra_counts[i] >= poison_threshold:
                commit(
                    i,
                    key,
                    govern(
                        i,
                        _failure_record(
                            specs[i],
                            "poison",
                            attempt,
                            f"quarantined after {infra_counts[i]} worker "
                            f"kill(s)/hang(s); last: {status} {error}",
                        ),
                        degraded,
                    ),
                )
                return
        if attempt < max_attempts:
            pending.append((i, key, attempt + 1, degraded))
        else:
            commit(
                i, key, govern(i, _failure_record(specs[i], status, attempt, error),
                               degraded)
            )

    def preempt_oom(i: int, key: str, exit: WorkerExit) -> None:
        """Policy for a pool-preempted worker: degraded retry, then
        quarantine.

        Never a terminal failure: the first preemption re-queues the
        spec in degraded mode *outside* the normal attempt
        budget; a repeat offender — over budget even degraded — goes to
        the poison quarantine.  Either way the sweep keeps going.
        """
        oom_counts[i] = oom_counts.get(i, 0) + 1
        if not exit.degraded:
            pending.append((i, key, exit.attempt + 1, True))
        else:
            commit(
                i,
                key,
                govern(
                    i,
                    _failure_record(
                        specs[i],
                        "poison",
                        exit.attempt,
                        f"oom-preempted: rss {exit.payload} over budget "
                        f"{rss_cap} ({oom_counts[i]} preemption(s), "
                        f"degraded retry included)",
                    ),
                    True,
                ),
            )

    def dispatch() -> None:
        if pending and wall_deadline is not None and time.monotonic() > wall_deadline:
            # Wall budget exhausted: stop dispatching.  In-flight
            # workers finish under the normal supervision rules;
            # everything undispatched gets a structured record.
            while pending:
                i, key, attempt, _deg = pending.popleft()
                commit(
                    i,
                    key,
                    _failure_record(
                        specs[i],
                        "wall-budget",
                        attempt - 1,
                        f"undispatched: wall budget "
                        f"{budget.wall_budget_s:.3g}s exhausted",
                    ),
                )
        while pending and pool.free_slots:
            i, key, attempt, degraded = pending.popleft()
            pool.submit(specs[i], token=(i, key), attempt=attempt, degraded=degraded)

    try:
        while pending or pool.active:
            exits = pool.poll()
            # Freed workers get their next spec before the parent stamps
            # this batch's records; the committer thread writes them.
            dispatch()
            for exit in exits:
                i, key = exit.token
                if exit.peak_rss > peak_rss_by_index.get(i, 0):
                    peak_rss_by_index[i] = exit.peak_rss
                if exit.kind == "ok":
                    finish_ok(
                        i, key, exit.payload, exit.attempt, degraded=exit.degraded
                    )
                elif exit.kind == "oom":
                    preempt_oom(i, key, exit)
                else:
                    retry_or_fail(
                        i,
                        key,
                        exit.attempt,
                        exit.kind,
                        str(exit.payload),
                        degraded=exit.degraded,
                    )
            if not exits:
                pool.wait()
    finally:
        # Runs on normal exit, KeyboardInterrupt, and errors alike:
        # every worker is killed *and reaped* (no zombies), every pipe
        # closed.
        pool.shutdown()


def _reap(proc) -> None:
    proc.join(timeout=10)
    if proc.is_alive():
        _kill(proc)


def _kill(proc) -> None:
    proc.terminate()
    proc.join(timeout=1)
    if proc.is_alive():
        proc.kill()
        proc.join()
