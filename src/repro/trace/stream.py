"""Streaming trace decode: read a stored recording in bounded memory.

:meth:`repro.trace.store.TraceStore.get` materializes a full
:class:`~repro.trace.Trace` (decoded into event columns) before the
detector sees a single row, so peak memory scales with trace length.
A :class:`TraceStream` (obtained from
:meth:`~repro.trace.store.TraceStore.open_stream`) is the
constant-memory source: it walks the RPRT-framed gzip JSONL payload
line by line, decoding one event at a time, and hands the rows to the
detector kernel in chunks of at most :data:`CHUNK_EVENTS`.
:func:`repro.trace.analyze_trace` takes either source, and its
``report.fingerprint()`` is the same for both, partial/faulted
recordings included.

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
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.isa.program import CodeLocation
from repro.trace.trace import _decode_event, _loc_parse
from repro.vm import events as ev
from repro.vm.memory import SymbolMap

__all__ = ["CHUNK_EVENTS", "TraceStream", "TraceStreamCorruption"]

#: rows per ``consume_batch`` call when a stream feeds the detector.
#: Small enough that peak memory stays a fixed few hundred kilobytes
#: regardless of trace length, large enough that per-call overhead is
#: amortized.
CHUNK_EVENTS = 2048


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
    and the expected event count.  :meth:`events` and
    :meth:`row_batches` may be called any number of times; each call
    re-opens the payload and decodes from the start, holding only one
    line in memory at a time.
    """

    path: Path
    #: byte offset of the gzip payload (past frame header + digest)
    payload_offset: int
    meta: dict
    #: store key the stream was opened under ("" for bare files)
    key: str = ""
    #: events decoded so far over all passes — the progress counter a
    #: supervised worker's heartbeat reports
    decoded: int = 0
    #: effective basic-block size per marked loop id (parsed at open)
    loop_sizes: Dict[int, int] = field(init=False)
    #: recorded lock-acquire CAS sites (parsed at open)
    lock_sites: FrozenSet[CodeLocation] = field(init=False)
    #: inode of the file the last pass read — lets the store tell the
    #: entry this stream saw from one written over it since
    inode: Optional[int] = field(default=None, init=False)
    _note_events: List[ev.Event] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        self.loop_sizes = {int(k): v for k, v in self.meta.get("loop_sizes", {}).items()}
        self.lock_sites = frozenset(
            _loc_parse(l) for l in self.meta.get("lock_sites", [])
        )

    def events(self) -> Iterator[Tuple[int, ev.Event]]:
        """Yield ``(seq, event)`` in recorded order, decoding lazily.

        ``seq`` is the event's index in the full recorded stream.
        """
        expected = self.meta.get("events")
        seq = 0
        try:
            with open(self.path, "rb") as fh:
                self.inode = os.fstat(fh.fileno()).st_ino
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

    def row_batches(self) -> Iterator[List[tuple]]:
        """The recording as detector-kernel rows, in chunks of at most
        :data:`CHUNK_EVENTS`, decoded lazily.

        The bookkeeping (NOTE) rows' events are kept on the way, so
        :meth:`note_events` — and with it
        :func:`repro.trace.synthesize_result` — serves the stream once a
        pass has finished.
        """
        size = CHUNK_EVENTS
        note, event_row = ev.NOTE, ev.event_row
        notes = self._note_events = []
        chunk: List[tuple] = []
        for _seq, e in self.events():
            row = event_row(e)
            chunk.append(row)
            if row[0] == note:
                notes.append(e)
            if len(chunk) >= size:
                yield chunk
                chunk = []
        if chunk:
            yield chunk

    def note_events(self) -> List[ev.Event]:
        """The bookkeeping events the last :meth:`row_batches` pass saw."""
        return self._note_events

    # -- meta accessors mirroring Trace ------------------------------------

    @property
    def status(self) -> str:
        return self.meta.get("status", "ok")

    @property
    def ok(self) -> bool:
        return self.meta.get("ok", self.status == "ok")

    @property
    def scheduler(self) -> str:
        # pre-spec recordings ran under the seeded random scheduler
        return self.meta.get("scheduler", "random")

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

    @property
    def symbols(self) -> List[Tuple[str, int, int]]:
        return [tuple(s) for s in self.meta.get("symbols", [])]

    def symbol_map(self) -> SymbolMap:
        sm = SymbolMap()
        for name, base, size in self.symbols:
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
