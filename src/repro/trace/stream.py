"""Streaming trace decode: analyze a stored recording in bounded memory.

:func:`repro.trace.analyze_trace` materializes a full :class:`Trace`
(decoded into event columns) before the detector sees a single row.
That is the right trade for repeated analyses of one recording, but it
makes peak RSS scale with trace length, which is exactly what a
memory-governed worker cannot afford.

This module is the constant-memory alternative.  A :class:`TraceStream`
(obtained from :meth:`repro.trace.store.TraceStore.open_stream`) walks
the RPRT-framed gzip JSONL payload line by line, decoding one event at
a time; :func:`analyze_trace_streaming` feeds them as rows to the same
detector kernel (``consume_batch``) in bounded chunks.  The kernel
applies the configuration filter itself, so the resulting
``report.fingerprint()`` is bit-identical to :func:`analyze_trace` for
every configuration, partial/faulted recordings included.

The stream trusts the store's frame checksum (verified before a
:class:`TraceStream` is handed out), but still validates shape as it
goes: a payload that decompresses but is cut mid-JSONL-line, or whose
event count disagrees with its metadata line, raises
:class:`TraceStreamCorruption` mid-iteration — store-aware callers
quarantine the entry and fall back, exactly like a ``get`` miss.
"""

from __future__ import annotations

import gzip
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple, Union

from repro.detectors import RaceDetector, Report, ToolConfig
from repro.trace.trace import _decode_event, _loc_parse, _validate_replay
from repro.vm import events as ev
from repro.vm.machine import RunResult
from repro.vm.memory import SymbolMap

__all__ = [
    "StreamAnalysis",
    "TraceStream",
    "TraceStreamCorruption",
    "analyze_trace_streaming",
]


class TraceStreamCorruption(Exception):
    """A stored trace turned out malformed *mid-stream*.

    Raised while iterating events of an entry whose frame checksum
    validated — i.e. the payload is intact on disk but its content is
    not a well-formed recording (cut mid-line, undecodable event,
    event-count mismatch).  Callers holding the owning store should
    quarantine the entry and treat the analysis as a miss.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class TraceStream:
    """One stored recording, iterable per event without materialization.

    ``meta`` is the recording's metadata line (the same dict
    ``TraceStore.entries`` yields): program, seed, scheduler, status,
    steps, instrumentation parameters, loop sizes, lock sites, symbols,
    and the expected event count.  :meth:`events` may be called any
    number of times; each call re-opens the payload and decodes from
    the start, holding only one line in memory at a time.
    """

    path: Path
    #: byte offset of the gzip payload (past frame header + digest)
    payload_offset: int
    meta: dict
    #: store key the stream was opened under ("" for bare files)
    key: str = ""
    #: events decoded so far over all :meth:`events` passes — the
    #: progress counter a supervised worker's heartbeat reports
    decoded: int = 0

    def events(self) -> Iterator[Tuple[int, ev.Event]]:
        """Yield ``(seq, event)`` in recorded order, decoding lazily.

        ``seq`` is the event's index in the full recorded stream.
        """
        expected = self.meta.get("events")
        seq = 0
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.payload_offset)
                gz = gzip.GzipFile(fileobj=fh, mode="rb")
                text = io.TextIOWrapper(gz, encoding="utf-8")
                lines = iter(text)
                next(lines)  # the metadata line, already parsed
                for line in lines:
                    if not line.strip():
                        continue
                    yield seq, _decode_event(json.loads(line))
                    seq += 1
                    self.decoded += 1
        except TraceStreamCorruption:
            raise
        except (OSError, EOFError, ValueError, TypeError, IndexError, KeyError) as exc:
            # gzip truncation, JSON cut mid-line, codec drift — all the
            # ways a checksum-valid payload can still be malformed.
            raise TraceStreamCorruption(
                f"undecodable at event {seq}: {type(exc).__name__}"
            ) from exc
        if expected is not None and seq != expected:
            raise TraceStreamCorruption(
                f"event-count-mismatch: meta says {expected}, got {seq}"
            )

    # -- meta accessors mirroring Trace ------------------------------------

    @property
    def status(self) -> str:
        return self.meta.get("status", "ok")

    @property
    def steps(self) -> int:
        return self.meta.get("steps", 0)

    @property
    def seed(self) -> int:
        return self.meta.get("seed", 0)

    @property
    def program_name(self) -> str:
        return self.meta.get("program", "?")

    @property
    def max_blocks(self) -> int:
        return self.meta.get("max_blocks", 8)

    @property
    def inline_depth(self) -> int:
        return self.meta.get("inline_depth", 1)

    def loop_sizes(self) -> dict:
        return {int(k): v for k, v in self.meta.get("loop_sizes", {}).items()}

    def lock_sites(self) -> frozenset:
        return frozenset(_loc_parse(l) for l in self.meta.get("lock_sites", []))

    def symbol_map(self) -> SymbolMap:
        sm = SymbolMap()
        for name, base, size in self.meta.get("symbols", []):
            sm.add(name, base, size)
        return sm


def read_meta_line(path: Union[str, Path], payload_offset: int) -> dict:
    """Decode only the metadata line of a framed trace payload.

    Streams the gzip member just far enough for the first line — the
    events stay compressed on disk.  Raises the same shape errors
    :meth:`TraceStream.events` maps to corruption; callers (the store)
    translate them.
    """
    with open(path, "rb") as fh:
        fh.seek(payload_offset)
        gz = gzip.GzipFile(fileobj=fh, mode="rb")
        line = io.TextIOWrapper(gz, encoding="utf-8").readline()
    meta = json.loads(line)
    if not isinstance(meta, dict):
        raise ValueError("metadata line is not an object")
    return meta


# ---------------------------------------------------------------------------
# Streaming analysis
# ---------------------------------------------------------------------------


@dataclass
class StreamAnalysis:
    """Result of one bounded-memory analysis of a stored recording.

    The streaming twin of :class:`repro.trace.trace.TraceAnalysis`:
    same report/detector payload, but no :class:`Trace` — only the
    metadata dict survives the pass — plus a synthesized machine-level
    :class:`RunResult` (outputs and fault counts are collected during
    the single event pass instead of a post-hoc scan).
    """

    meta: dict
    config: ToolConfig
    report: Report
    detector: RaceDetector
    #: events that passed the configuration's filter
    events: int
    #: wall-clock seconds spent streaming + finalization
    duration_s: float
    #: machine-level outcome synthesized from the recording
    result: RunResult
    #: structured degradation/provenance notes
    notes: Tuple[str, ...] = ()


#: default number of rows per ``consume_batch`` chunk.  Small enough
#: that peak RSS stays a fixed few hundred kilobytes regardless of trace
#: length, large enough that per-call overhead is amortized.
DEFAULT_CHUNK_EVENTS = 2048


def analyze_trace_streaming(
    stream: TraceStream,
    config,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> StreamAnalysis:
    """Run a tool configuration over a stored trace in bounded memory.

    Delivers rows straight off the decoder without ever materializing
    the recording, in chunks of at most ``chunk_events`` rows per
    ``consume_batch`` call; the kernel filters them exactly as it
    filters an in-memory replay.  The report is finalized from the
    recording's termination status, so ``report.fingerprint()`` is
    bit-identical to :func:`repro.trace.analyze_trace` on the same
    entry — partial and faulted recordings included.  Outputs and the
    fault count are collected from the bookkeeping events on the way.

    Raises :class:`TraceStreamCorruption` if the payload turns out
    malformed mid-pass; the detector state is then abandoned.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_replay(stream, config)
    detector = RaceDetector(
        config,
        symbolize=stream.symbol_map().resolve,
        lock_sites=stream.lock_sites(),
        loop_sizes=stream.loop_sizes(),
    )
    outputs: List[Tuple[int, int]] = []
    faults = 0

    t0 = time.perf_counter()
    consume = detector.consume_batch
    chunk: list = []
    for _seq, e in stream.events():
        row = ev.event_row(e)
        chunk.append(row)
        if row[0] == ev.NOTE:
            if type(e) is ev.PrintEvent:
                outputs.append((e.tid, e.value))
            elif isinstance(e, ev.FaultEvent):
                faults += 1
        if len(chunk) >= chunk_events:
            consume(chunk)
            chunk = []
    if chunk:
        consume(chunk)

    status = stream.status
    report = detector.finalize(partial=status != "ok")
    duration = time.perf_counter() - t0
    result = RunResult(
        steps=stream.steps,
        timed_out=status == "step-limit",
        deadlocked=status == "deadlock",
        outputs=outputs,
        livelocked=status == "livelock",
        faults_injected=faults,
    )
    return StreamAnalysis(
        meta=stream.meta,
        config=config,
        report=report,
        detector=detector,
        events=detector.events_accepted,
        duration_s=duration,
        result=result,
        notes=("streaming-decode",),
    )
