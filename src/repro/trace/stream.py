"""Streaming trace decode: read a stored recording in bounded memory.

:meth:`repro.trace.store.TraceStore.get` materializes a full
:class:`~repro.trace.Trace` (decoded into event columns) before the
detector sees a single row, so peak memory scales with trace length.
:meth:`~repro.trace.store.TraceStore.open_stream` and
:func:`~repro.trace.store.open_trace_file` hand back the same
:class:`~repro.trace.Trace` type, metadata decoded, but with
:class:`FileColumns` for columns: a reader that walks the RPRT-framed
gzip JSONL payload line by line, decoding one event at a time, and
hands the rows to the detector kernel in chunks of at most
:data:`CHUNK_EVENTS`.  :func:`repro.trace.analyze_trace` reads either
kind of columns, and its ``report.fingerprint()`` is the same for both,
partial/faulted recordings included.

The reader trusts the frame checksum (verified before the ``Trace`` is
handed out), but still validates shape as it goes: a payload that
decompresses but is cut mid-JSONL-line, or whose event count disagrees
with its metadata line, raises :class:`TraceStreamCorruption`
mid-iteration — store-aware callers quarantine the entry and fall back,
exactly like a ``get`` miss.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.trace.trace import _decode_event
from repro.vm import events as ev

__all__ = ["CHUNK_EVENTS", "FileColumns", "TraceStreamCorruption"]

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
class FileColumns:
    """The event columns of a recording that stays on file.

    A :class:`~repro.trace.Trace` opened off a store or a trace file
    (:meth:`~repro.trace.store.TraceStore.open_stream`,
    :func:`~repro.trace.store.open_trace_file`) holds one of these
    instead of :class:`~repro.trace.trace.EventColumns`; the recording's
    metadata lives on the ``Trace``.  :meth:`row_batches` may be called
    any number of times; each call re-opens the payload and decodes
    from the start, holding one line and one chunk in memory at a time.
    """

    path: Path
    #: byte offset of the gzip payload (past frame header + digest)
    payload_offset: int
    #: the event count the metadata line declares
    events: int
    #: store key the recording was opened under ("" for bare files)
    key: str = ""
    #: events decoded so far over all passes — the progress counter a
    #: supervised worker's heartbeat reports
    decoded: int = 0
    #: inode of the file the last pass read — lets the store tell the
    #: entry this reader saw from one written over it since
    inode: Optional[int] = field(default=None, init=False)
    _notes: List[ev.Event] = field(default_factory=list, init=False, repr=False)

    def __len__(self) -> int:
        return self.events

    def row_batches(self) -> Iterator[List[tuple]]:
        """The recording as detector-kernel rows, in recorded order, in
        chunks of at most :data:`CHUNK_EVENTS`, decoded lazily.

        The bookkeeping (NOTE) rows' events are kept on the way, so
        :meth:`notes` — and with it :func:`repro.trace.synthesize_result`
        — serves the recording once a pass has finished.  A payload cut
        mid-line, an undecodable event, or an event count that disagrees
        with the metadata raises :class:`TraceStreamCorruption`.
        """
        size = CHUNK_EVENTS
        note, event_row = ev.NOTE, ev.event_row
        notes = self._notes = []
        chunk: List[tuple] = []
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
                    e = _decode_event(json.loads(line))
                    seq += 1
                    self.decoded += 1
                    row = event_row(e)
                    chunk.append(row)
                    if row[0] == note:
                        notes.append(e)
                    if len(chunk) >= size:
                        yield chunk
                        chunk = []
        except (OSError, EOFError, ValueError, TypeError, IndexError, KeyError) as exc:
            # gzip truncation, JSON cut mid-line, codec drift — all the
            # ways a checksum-valid payload can still be malformed.
            raise TraceStreamCorruption(
                f"undecodable at event {seq}: {type(exc).__name__}"
            ) from exc
        if seq != self.events:
            raise TraceStreamCorruption(
                f"event-count-mismatch: meta says {self.events}, got {seq}"
            )
        if chunk:
            yield chunk

    def notes(self) -> List[ev.Event]:
        """The bookkeeping events the last :meth:`row_batches` pass saw."""
        return self._notes


def read_meta_line(path: Union[str, Path], payload_offset: int) -> dict:
    """Decode only the metadata line of a framed trace payload.

    Streams the gzip member just far enough for the first line — the
    events stay compressed on disk.  Raises the same shape errors
    :meth:`FileColumns.row_batches` maps to corruption; callers (the store)
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
