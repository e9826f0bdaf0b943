"""The analysis engine: admission → journal → worker pool → response.

One :class:`Engine` instance backs every transport.  The life of a
request::

    validate (schema.py, strict)
        → content key (spec_key for program cells, payload digest for
          trace uploads)
        → verdict index / result cache  — hit: served, zero recompute
        → bounded FIFO queue            — full: backpressure
        → journal "accepted" (fsync)    — survives SIGKILL from here on
        → WorkerPool (harness.parallel) — supervised, deadline-killed
        → journal "done" + cache put    — restart serves verdicts from index
        → response future resolved

Each request kind is one picklable pool unit — a
:class:`~repro.harness.parallel.RunSpec` over a registry name or over a
:class:`~repro.harness.workload.Workload` that re-assembles the source,
or a :class:`TraceUploadUnit` over the spooled upload — run on
``workers`` long-lived pool processes that keep their decode and
instrumentation caches warm across requests.

Robustness properties, each asserted by ``scripts/service_smoke.py``:

* **Crash safety** — ``accepted`` is journaled before the client hears
  anything; a SIGKILL'd daemon reloads the journal, re-runs the
  accepted-but-unfinished tail (the *drain*) and serves completed keys
  from the journaled verdict index without recomputation.
* **Backpressure** — a request that finds ``queue_depth`` requests
  already queued gets an explicit ``backpressure`` response (HTTP 429),
  never a hang.  Work that is already journaled (the restart drain, a
  degraded retry) is re-queued past the bound, never bounced.
* **Deadlines** — each request's remaining deadline rides the pool's
  per-submit ``timeout_s``; the pool kills and reaps the worker, the
  client gets a structured ``error``.
* **Graceful degradation** — on every scheduling wake the engine grades
  RSS + disk usage against its :class:`~repro.harness.resources.
  ResourceBudget` (:func:`~repro.harness.resources.assess_pressure`).
  Under ``degraded`` pressure new program cells run as trace replays
  (identical report fingerprint; a recording the store lacks is first
  recorded and stored in the worker, then streamed in bounded memory
  like one it holds), and responses say so; under ``critical``
  pressure all queued work is shed with explicit ``shed`` responses.
  The daemon degrades; it does not die.  A shed, like an error that
  depends on the moment (deadline, timeout, a hung, crashed or
  over-budget worker), is never served from the verdict index: the
  client's retry runs.

Program cells reuse the sweep engine's content keys
(:func:`~repro.harness.checkpoint.spec_key`), so the service shares its
:class:`~repro.harness.parallel.ResultCache` with offline sweeps — a
cell the nightly sweep already ran is a cache hit here, and vice versa.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import hashlib
import logging
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.detectors import ToolConfig
from repro.harness.checkpoint import spec_key
from repro.harness.parallel import ResultCache, RunSpec, WorkerExit, WorkerPool
from repro.harness.registry import resolve_workload
from repro.harness.resources import ResourceBudget, assess_pressure
from repro.harness.workload import Workload
from repro.isa.asm import AsmError, assemble
from repro.service.journal import RequestJournal
from repro.service.schema import SchemaError, Submission, make_response, validate_request
from repro.session import SessionResult, run_pipeline

__all__ = ["Engine", "report_fingerprint_hex"]

log = logging.getLogger("repro.service")

#: test/bench knob: force the pressure level ("ok"|"degraded"|"critical")
#: regardless of measured usage — drives the degraded benchmark path and
#: the shed/degrade tests deterministically.
FORCE_PRESSURE_ENV = "REPRO_SERVICE_FORCE_PRESSURE"


def report_fingerprint_hex(report) -> str:
    """Stable wire form of a report fingerprint: sha256 hex digest."""
    return hashlib.sha256(report.fingerprint().encode()).hexdigest()


def _verdict(outcome: SessionResult) -> dict:
    report = outcome.report
    return {
        "fingerprint": report_fingerprint_hex(report),
        "tool": outcome.config.name,
        "seed": outcome.seed,
        "run_status": outcome.result.status,
        "racy_contexts": report.racy_contexts,
        "warnings": len(report.warnings),
        "summary": report.summary(),
    }


@dataclass(frozen=True)
class TraceUploadUnit:
    """A trace-upload work unit riding the pool's ``execute()`` protocol.

    Analyzes a spooled RPRT recording exactly the way a direct
    ``repro.run(trace=path)`` does — streamed through
    :func:`~repro.trace.open_trace_file` into
    :func:`~repro.session.run_pipeline` — so the served
    fingerprint is identical to the session API's.  The recording is
    never materialized, so degraded mode changes nothing.
    """

    path: str
    tool: str

    def execute(self, machine_sink=None, trace_dir=None) -> SessionResult:
        from repro.trace import open_trace_file

        # The stream's decoded-event count is the heartbeat's progress
        # counter: no VM runs here.
        return run_pipeline(
            open_trace_file(self.path), self.tool, machine_sink=machine_sink
        )


def _trace_upload_key(payload_digest: str, tool: str) -> str:
    """Content key for a trace upload: payload digest × tool config."""
    from repro.harness.checkpoint import CACHE_SCHEMA

    config_fields = sorted(dataclasses.asdict(ToolConfig.preset(tool)).items())
    body = "\n".join(
        [
            "service-trace",
            f"schema={CACHE_SCHEMA}",
            f"payload={payload_digest}",
            f"config={config_fields!r}",
        ]
    )
    return hashlib.sha256(body.encode()).hexdigest()


@dataclass
class _Cell:
    """One admitted request awaiting (or undergoing) execution."""

    key: str
    sub: Submission
    #: the pool unit: a live-mode spec (program cells) or an upload
    unit: Union[RunSpec, TraceUploadUnit]
    accepted_t: float
    deadline_s: Optional[float]
    #: response futures of every coalesced client waiting on this key
    futures: List[asyncio.Future] = field(default_factory=list)
    degraded: bool = False
    attempt: int = 1


class Engine:
    """The shared service engine; one instance per daemon process."""

    def __init__(
        self,
        work_dir: Union[str, Path],
        workers: int = 2,
        queue_depth: int = 32,
        default_deadline_s: float = 60.0,
        budget: Optional[ResourceBudget] = None,
        heartbeat_s: Optional[float] = 0.05,
    ) -> None:
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.journal = RequestJournal(self.work_dir / "journal")
        self.cache = ResultCache(
            self.work_dir / "cache",
            quota_bytes=budget.disk_quota_bytes if budget is not None else None,
        )
        self.trace_dir = self.work_dir / "traces"
        self.budget = budget
        self.default_deadline_s = default_deadline_s
        #: keys of accepted cells waiting for a worker, oldest first
        self.queue: Deque[str] = deque()
        self.queue_depth = queue_depth
        self.pool = WorkerPool(
            workers,
            timeout_s=default_deadline_s,
            heartbeat_s=heartbeat_s,
            slow_grace=1.0,  # service deadlines are hard, no slow-grace
            rss_cap=budget.max_rss_bytes if budget is not None else None,
            trace_dir=self.trace_dir,
        )
        #: content key → journaled response (the verdict index)
        self.completed: Dict[str, dict] = {}
        #: content key → in-flight cell (queued or running)
        self.inflight: Dict[str, _Cell] = {}
        self.stats = {
            "received": 0,
            "invalid": 0,
            "served_index": 0,
            "served_cache": 0,
            "executed": 0,
            "degraded_runs": 0,
            "backpressure": 0,
            "shed": 0,
            "errors": 0,
            "drained": 0,
        }
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        self._wake = asyncio.Event()  # set by submit: new work queued
        self._drained = asyncio.Event()  # set when inflight empties

    # -- lifecycle ----------------------------------------------------------

    async def startup(self) -> None:
        """Load the journal, re-queue the in-flight tail, start polling."""
        pending, completed = self.journal.load()
        self.completed = completed
        for key, req in pending.items():
            cell = self._rebuild_cell(key, req)
            if cell is None:
                # Unreconstructable (e.g. spool file lost): done, so no
                # later restart drains it again; not indexed, so a
                # resubmission carrying its payload runs.
                self.journal.done(
                    key,
                    make_response(
                        "error", error="journaled request could not be rebuilt"
                    ),
                    indexed=False,
                )
                continue
            self.inflight[key] = cell
            # past the depth bound: journaled work is never bounced
            self.queue.append(key)
            self.stats["drained"] += 1
        if self.stats["drained"]:
            log.info(
                "journal drain: re-queued %d in-flight request(s), "
                "%d completed verdict(s) indexed",
                self.stats["drained"], len(self.completed),
            )
        self._stopping = False
        self._task = asyncio.ensure_future(self._run())

    async def shutdown(self, drain_s: float = 5.0) -> None:
        """Stop scheduling; give in-flight work ``drain_s`` to finish."""
        self._stopping = True
        self._drained.clear()
        if self.inflight:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._drained.wait(), drain_s)
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        self.pool.shutdown()
        for cell in self.inflight.values():
            self._resolve(
                cell,
                make_response(
                    "error", id=cell.sub.id, error="daemon shutting down"
                ),
                journal=False,
            )
        self.inflight.clear()
        self.journal.close()

    # -- request intake -----------------------------------------------------

    async def submit(self, obj: object) -> dict:
        """Handle one request object end to end; always returns a response."""
        self.stats["received"] += 1
        t0 = time.monotonic()
        try:
            sub = validate_request(obj)
        except SchemaError as exc:
            self.stats["invalid"] += 1
            rid = obj.get("id") if isinstance(obj, dict) else None
            return make_response(
                "invalid", id=rid if isinstance(rid, str) else None, error=str(exc)
            )

        try:
            key, unit = self._content_key(sub)
        except SchemaError as exc:
            self.stats["invalid"] += 1
            return make_response("invalid", id=sub.id, error=str(exc))

        # Served paths: the journaled verdict index first (free), then
        # the shared result cache (one deserialization, no execution).
        hit = self.completed.get(key)
        if hit is not None:
            self.stats["served_index"] += 1
            return self._echo(hit, sub, cached=True, t0=t0)
        cell = self.inflight.get(key)
        if cell is not None:
            # Identical submission already queued/running: coalesce.
            fut = asyncio.get_running_loop().create_future()
            cell.futures.append(fut)
            return await fut
        outcome = self.cache.get(key)
        if outcome is not None:
            self.stats["served_cache"] += 1
            resp = make_response(
                "ok",
                id=sub.id,
                verdict=_verdict(outcome),
                cached=True,
                duration_s=time.monotonic() - t0,
            )
            self.journal.done(key, self._canonical(resp))
            self.completed[key] = self._canonical(resp)
            return resp

        if self._stopping:
            return make_response(
                "backpressure",
                id=sub.id,
                error="daemon shutting down",
                retry_after_s=1.0,
            )
        if len(self.queue) >= self.queue_depth:
            self.stats["backpressure"] += 1
            return make_response(
                "backpressure",
                id=sub.id,
                error="admission queue full",
                retry_after_s=0.5,
            )
        self.queue.append(key)
        now = time.monotonic()

        # Durably accepted from here: spool the payload first (trace
        # uploads), then the fsynced journal line.
        if sub.trace_bytes is not None:
            self.journal.spool_upload(key, sub.trace_bytes)
        self.journal.accepted(key, self._journal_request(sub, key))
        cell = self._cell(key, sub, unit, now)
        self.inflight[key] = cell
        self._wake.set()
        fut = asyncio.get_running_loop().create_future()
        cell.futures.append(fut)
        return await fut

    def stats_snapshot(self) -> dict:
        snap = dict(self.stats)
        snap.update(
            queued=len(self.queue),
            running=self.pool.active,
            inflight=len(self.inflight),
            completed_index=len(self.completed),
            pressure=self._pressure().level,
        )
        return snap

    # -- internals ----------------------------------------------------------

    def _cell(self, key: str, sub: Submission, unit, accepted_t: float) -> _Cell:
        return _Cell(
            key=key,
            sub=sub,
            unit=unit,
            accepted_t=accepted_t,
            deadline_s=sub.deadline_s or self.default_deadline_s,
        )

    def _upload_unit(self, key: str, tool: str) -> TraceUploadUnit:
        """The unit analyzing the upload spooled under ``key``."""
        return TraceUploadUnit(path=str(self.journal.uploads / f"{key}.trc"), tool=tool)

    def _content_key(self, sub: Submission):
        """(key, unit) for a submission; raises SchemaError."""
        if sub.kind == "trace":
            digest = hashlib.sha256(sub.trace_bytes).hexdigest()
            key = _trace_upload_key(digest, sub.tool)
            return key, self._upload_unit(key, sub.tool)
        if sub.kind == "workload":
            try:
                resolve_workload(sub.workload)
            except KeyError as exc:
                raise SchemaError(str(exc.args[0]) if exc.args else "unknown workload")
            workload: Union[str, Workload] = sub.workload
        else:  # source
            try:
                program = assemble(sub.source)
            except AsmError as exc:
                raise SchemaError(f"source does not assemble: {exc}")
            del program  # assembled only to validate; build re-assembles fresh
            name = f"src-{hashlib.sha256(sub.source.encode()).hexdigest()[:12]}"
            # a partial, not a closure: the spec travels to the worker pickled
            workload = Workload(name=name, build=functools.partial(assemble, sub.source))
        spec = RunSpec(
            workload=workload,
            config=sub.tool,
            seed=sub.seed,
            max_steps=sub.max_steps,
        )
        return spec_key(spec), spec

    def _journal_request(self, sub: Submission, key: str) -> dict:
        """The replayable request form the journal stores (no payload blobs)."""
        req = {"v": 1, "kind": sub.kind, "tool": sub.tool}
        for f in ("id", "workload", "source", "seed", "max_steps", "deadline_s"):
            value = getattr(sub, f)
            if value is not None:
                req[f] = value
        # Trace payloads live in the spool, keyed by content; the
        # journal only needs to know to look there.
        return req

    def _rebuild_cell(self, key: str, req: dict) -> Optional[_Cell]:
        """Reconstruct a journaled in-flight request for the restart drain.

        A ``tenant`` field (journaled by older daemons) is ignored."""
        try:
            sub = Submission(
                kind=req["kind"],
                id=req.get("id"),
                workload=req.get("workload"),
                source=req.get("source"),
                trace_bytes=None,
                tool=req.get("tool", "helgrind-lib-spin7"),
                seed=req.get("seed"),
                max_steps=req.get("max_steps"),
                deadline_s=req.get("deadline_s"),
            )
            if sub.kind == "trace":
                if self.journal.upload_path(key) is None:
                    return None
                unit = self._upload_unit(key, sub.tool)
            else:
                rebuilt_key, unit = self._content_key(sub)
                if rebuilt_key != key:
                    return None  # generator drifted since journaling: honest miss
            return self._cell(key, sub, unit, time.monotonic())
        except (SchemaError, KeyError, TypeError):
            return None

    def _echo(self, indexed: dict, sub: Submission, cached: bool, t0: float) -> dict:
        """Re-address an indexed response to the current client."""
        resp = dict(indexed)
        resp["cached"] = cached
        resp["duration_s"] = time.monotonic() - t0
        if sub.id is not None:
            resp["id"] = sub.id
        else:
            resp.pop("id", None)
        return resp

    @staticmethod
    def _canonical(resp: dict) -> dict:
        """The client-independent form stored in journal/index."""
        out = {k: v for k, v in resp.items() if k not in ("id", "duration_s", "cached")}
        return out

    def _pressure(self):
        forced = os.environ.get(FORCE_PRESSURE_ENV)
        if forced in ("ok", "degraded", "critical"):
            return assess_pressure(
                ResourceBudget(max_rss_bytes=1),
                rss_bytes={"ok": 0, "degraded": 1, "critical": 2}[forced],
                degrade_at=0.75,
                shed_at=1.5,
            )
        disk = 0
        if self.budget is not None and self.budget.disk_quota_bytes:
            disk = self.journal.spool_bytes() + self.cache.total_bytes()
        return assess_pressure(self.budget, disk_bytes=disk)

    def _resolve(
        self, cell: _Cell, resp: dict, journal: bool = True, unit_error: bool = False
    ) -> None:
        """Journal, index, and deliver one cell's response.

        Only a verdict (``ok``/``degraded``) or an error the unit itself
        raised (``unit_error``) enters the verdict index.  A shed, or an
        error that depends on the moment — a deadline, a timeout, a
        hung, crashed or over-budget worker — is still journaled as
        done, so a restart does not drain it, but a resubmission runs
        afresh.
        """
        if journal:
            canonical = self._canonical(resp)
            indexed = unit_error or resp["status"] in ("ok", "degraded")
            self.journal.done(cell.key, canonical, indexed)
            if indexed:
                self.completed[cell.key] = canonical
        self.inflight.pop(cell.key, None)
        if not self.inflight:
            self._drained.set()
        for fut in cell.futures:
            if not fut.done():
                fut.set_result(dict(resp))

    def _dispatch(self, cell: _Cell, degraded: bool) -> bool:
        """Submit one cell to the pool; False = deadline already gone."""
        now = time.monotonic()
        remaining = None
        if cell.deadline_s is not None:
            remaining = cell.deadline_s - (now - cell.accepted_t)
            if remaining <= 0:
                self.stats["errors"] += 1
                self._resolve(
                    cell,
                    make_response(
                        "error",
                        id=cell.sub.id,
                        error=f"deadline {cell.deadline_s:.3g}s exceeded in queue",
                    ),
                )
                return False
        cell.degraded = degraded
        work = cell.unit
        if degraded and isinstance(work, RunSpec):
            # Pressure mode: a replay cell — recorded on first use, then
            # streamed off the store in bounded memory; identical report
            # fingerprint.  (An upload is streamed in every mode.)
            work = dataclasses.replace(work, trace_mode="replay")
        self.pool.submit(
            work,
            token=cell.key,
            attempt=cell.attempt,
            degraded=degraded,
            timeout_s=remaining,
        )
        self.stats["executed"] += 1
        if degraded:
            self.stats["degraded_runs"] += 1
        return True

    def _handle_exit(self, exit: WorkerExit) -> None:
        cell = self.inflight.get(exit.token)
        if cell is None:
            return  # already resolved (shed/deadline) — late straggler
        if exit.kind == "ok":
            outcome: SessionResult = exit.payload
            if not exit.degraded:
                # Non-degraded verdicts enter the shared result cache
                # under the same key a direct sweep would use; degraded
                # ones are only indexed (their outcome shape differs).
                self.cache.put(cell.key, outcome)
            status = "degraded" if exit.degraded else "ok"
            self._resolve(
                cell,
                make_response(
                    status,
                    id=cell.sub.id,
                    verdict=_verdict(outcome),
                    degraded=exit.degraded,
                    duration_s=time.monotonic() - cell.accepted_t,
                ),
            )
            return
        if exit.kind == "oom" and not exit.degraded:
            # Over the memory budget: one degraded retry.
            cell.attempt += 1
            cell.degraded = True
            self.queue.append(cell.key)
            return
        self.stats["errors"] += 1
        label = {
            "timeout": f"deadline exceeded ({exit.payload})",
            "hung": f"worker hung: {exit.payload}",
            "crash": f"worker crashed: {exit.payload}",
            "error": str(exit.payload),
            "oom": f"over memory budget even degraded (rss {exit.payload})",
        }[exit.kind]
        self._resolve(
            cell,
            make_response(
                "error",
                id=cell.sub.id,
                error=label,
                degraded=exit.degraded,
                duration_s=time.monotonic() - cell.accepted_t,
            ),
            unit_error=exit.kind == "error",
        )

    async def _sleep(self) -> None:
        """Wait for the first of: a busy worker's pipe or sentinel turns
        readable, the pool's nearest deadline or hang time, or a wake
        from :meth:`submit`."""
        loop = asyncio.get_running_loop()
        fds, timeout = self.pool.wait_handles()
        for fd in fds:
            loop.add_reader(fd, self._wake.set)
        try:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._wake.wait(), timeout)
        finally:
            for fd in fds:
                loop.remove_reader(fd)
            self._wake.clear()

    async def _run(self) -> None:
        """The scheduling loop: pressure → shed → dispatch → poll → sleep.

        Each wake (a busy worker's heartbeat included) re-assesses
        pressure; after exits it skips the sleep to dispatch at once."""
        while True:
            pressure = self._pressure()
            while pressure.critical and self.queue:
                cell = self.inflight.get(self.queue.popleft())
                if cell is not None:
                    self.stats["shed"] += 1
                    self._resolve(
                        cell,
                        make_response(
                            "shed",
                            id=cell.sub.id,
                            error="shed under critical resource pressure",
                            retry_after_s=1.0,
                        ),
                    )
            while self.queue and self.pool.free_slots and not self._stopping:
                cell = self.inflight.get(self.queue.popleft())
                if cell is None:
                    continue
                self._dispatch(cell, degraded=cell.degraded or pressure.degraded)
            exits = self.pool.poll()
            for exit in exits:
                self._handle_exit(exit)
            if not exits:
                await self._sleep()
