"""Content-addressed on-disk store of recorded executions.

The offline-analysis counterpart of the sweep engine's result cache: a
:class:`TraceStore` persists each recording once, keyed by everything
that determines the event stream — the built program's fingerprint, the
scheduler policy, the seed, the instrumentation parameters, the step
budget, and any injected fault plan — and *nothing* that doesn't (the
tool configuration in particular), so one stored trace serves any
number of :func:`~repro.trace.trace.analyze_trace` calls.

Entries are :class:`~repro.durable.FramedStore` frames (magic ``RPRT``
+ frame version + trace schema + sha256) written atomically; one that
fails validation is quarantined and treated as a miss, never raised.
The payload is gzip-compressed JSONL — one metadata line followed by
one line per event — so a multi-hundred-thousand-event recording stays
a few hundred kilobytes on disk.  Outside a store the same frame is a
recording's one file form (:func:`save_trace_file`, :func:`open_trace_file`).
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.durable import Corruption, FramedStore, atomic_write, temp_path
from repro.durable import DIGEST_LEN as _DIGEST_LEN  # noqa: F401 — codec tests
from repro.durable import FRAME_HEADER as _TRACE_HEADER  # noqa: F401 — codec tests
from repro.trace.stream import TraceStream, TraceStreamCorruption, read_meta_line
from repro.trace.trace import (
    EventColumns,
    Trace,
    _decode_event,
    _encode_event,
    _loc_parse,
    _loc_str,
)

#: bump when the trace payload layout changes incompatibly.  Deliberately
#: independent of the harness CACHE_SCHEMA: trace artifacts outlive
#: result-cache generations (a detector change invalidates outcomes but
#: not recordings — that is the whole point of the store).
TRACE_SCHEMA = 1


def trace_key(
    program_fingerprint: str,
    seed: int,
    max_steps: int,
    scheduler: Optional[str] = None,
    max_blocks: int = 8,
    inline_depth: int = 1,
    fault_plan=None,
    livelock_bound: Optional[int] = None,
) -> str:
    """Content digest of one recording — everything that shapes the
    event stream, nothing that merely interprets it (no tool config)."""
    from repro.harness.registry import canonical_scheduler  # lazy: cycle

    payload = "\n".join(
        [
            f"trace-schema={TRACE_SCHEMA}",
            f"program={program_fingerprint}",
            f"scheduler={canonical_scheduler(scheduler)}",
            f"seed={seed}",
            f"max_steps={max_steps}",
            f"max_blocks={max_blocks}",
            f"inline_depth={inline_depth}",
            f"fault_plan={fault_plan!r}",
            f"livelock_bound={livelock_bound!r}",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def key_for_spec(spec) -> str:
    """The trace key a sweep cell records under: the digest of the
    parameters its recording is made with
    (:meth:`~repro.harness.parallel.RunSpec.recording_params`)."""
    return trace_key(spec.program().fingerprint(), **spec.recording_params())


# ---------------------------------------------------------------------------
# Payload codec: gzip-compressed JSONL (meta line, then one line/event)
# ---------------------------------------------------------------------------


def _trace_meta(trace: Trace) -> dict:
    return {
        "program": trace.program_name,
        "seed": trace.seed,
        "scheduler": trace.scheduler,
        "max_blocks": trace.max_blocks,
        "inline_depth": trace.inline_depth,
        "steps": trace.steps,
        "ok": trace.ok,
        "status": trace.status,
        "events": len(trace.columns),
        "loop_sizes": trace.loop_sizes,
        "lock_sites": [_loc_str(l) for l in sorted(trace.lock_sites, key=str)],
        "symbols": trace.symbols,
    }


def _encode_payload(trace: Trace, store: Optional["TraceStore"] = None) -> bytes:
    """The payload bytes of ``trace``, counted in ``store.encoded``."""
    lines = [json.dumps(_trace_meta(trace), separators=(",", ":"))]
    for e in trace.columns.iter_events():
        lines.append(json.dumps(_encode_event(e), separators=(",", ":")))
        if store is not None:
            store.encoded += 1
    # mtime=0 keeps the compressed bytes deterministic for a given trace
    return gzip.compress("\n".join(lines).encode(), mtime=0)


def _decode_payload(payload: bytes) -> Trace:
    lines = gzip.decompress(payload).decode().split("\n")
    meta = json.loads(lines[0])
    events = [_decode_event(json.loads(line)) for line in lines[1:] if line]
    if len(events) != meta["events"]:
        raise Corruption(
            f"event-count-mismatch: meta says {meta['events']}, got {len(events)}"
        )
    return Trace(
        program_name=meta["program"],
        seed=meta["seed"],
        columns=EventColumns.from_events(events),
        loop_sizes={int(k): v for k, v in meta["loop_sizes"].items()},
        lock_sites=frozenset(_loc_parse(l) for l in meta["lock_sites"]),
        symbols=[tuple(s) for s in meta["symbols"]],
        max_blocks=meta["max_blocks"],
        inline_depth=meta["inline_depth"],
        steps=meta["steps"],
        ok=meta["ok"],
        status=meta["status"],
        scheduler=meta.get("scheduler", "random"),
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class TraceStore(FramedStore):
    """Checksummed, quarantining on-disk store of :class:`Trace` objects.

    Lives next to the sweep :class:`~repro.harness.parallel.ResultCache`
    (conventionally ``<cache>/traces/``) and shares its
    :class:`~repro.durable.FramedStore` contract: atomic writes,
    validation on every read, corruption quarantined into ``corrupt/``
    and reported — never raised.
    """

    MAGIC = b"RPRT"
    SCHEMA = TRACE_SCHEMA
    SUFFIX = ".trc"
    OFF_NOTE = "store-off"
    #: events this store's puts have encoded: a worker's heartbeat
    encoded = 0

    def encode(self, trace: Trace) -> bytes:
        return _encode_payload(trace, self)

    def decode(self, payload: bytes) -> Trace:
        return _decode_payload(payload)

    def _open_entry(self, path: Path, key: str) -> Optional[TraceStream]:
        """A stream over an entry, or ``None`` on a miss or a corrupt
        entry (which is quarantined first)."""
        try:
            return _open_verified(path, key)
        except OSError:
            return None
        except Corruption as exc:
            self._quarantine(path, key, exc.reason)
            return None

    def open_stream(self, key: str) -> Optional[TraceStream]:
        """Open an entry for chunked row iteration, without materializing it.

        Verifies the frame (header + full sha256, streamed in chunks)
        and decodes only the metadata line, then hands back a
        :class:`~repro.trace.stream.TraceStream` positioned at the
        payload.  Misses and corruption behave exactly like :meth:`get`
        — quarantine, count, return ``None``.  Corruption that only
        manifests *mid-stream* (checksum-valid but malformed payload)
        raises :class:`~repro.trace.stream.TraceStreamCorruption` from
        the iterator; pass it to :meth:`quarantine_stream`.
        """
        path = self._path(key)
        stream = self._open_entry(path, key)
        if stream is None:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return stream

    def quarantine_stream(self, stream: TraceStream, reason: str) -> None:
        """Quarantine the entry behind a stream that corrupted mid-read.

        Readers of one key race: another worker may already have moved
        the bad entry to ``corrupt/``, or re-recorded the key over it.
        Either way the file now at the key is not the one this stream
        read, so it is left alone; this never raises.
        """
        path = Path(stream.path)
        try:
            same = stream.inode is None or path.stat().st_ino == stream.inode
        except OSError:
            same = False  # already moved away
        if same:
            self._quarantine(path, stream.key or path.stem, reason)
        self.misses += 1

    def entries(self) -> Iterator[Tuple[str, dict, int]]:
        """Yield ``(key, metadata, size_bytes)`` per valid entry.

        Takes :meth:`open_stream`'s path — a chunked checksum pass, then
        only the metadata line decompressed — so listing a large store
        runs in constant memory.  Invalid entries are quarantined as a
        side effect, exactly like ``get``.
        """
        for path in sorted(self._entries()):
            stream = self._open_entry(path, path.stem)
            if stream is None:
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue  # raced away after validation
            yield path.stem, stream.meta, size


def _open_verified(path: Path, key: str = "") -> TraceStream:
    """Verify a framed trace file in constant memory, decode only its
    metadata line and open a stream over it.  Raises ``OSError`` on a
    miss and :class:`~repro.durable.Corruption` otherwise."""
    offset = TraceStore.verify_file(path)
    try:
        return TraceStream(
            path=path, payload_offset=offset, meta=read_meta_line(path, offset), key=key
        )
    except (OSError, EOFError, ValueError, TypeError, AttributeError) as exc:
        raise Corruption(f"undecodable: {type(exc).__name__}") from exc


def save_trace_file(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` to ``path`` atomically, as the very bytes
    :meth:`TraceStore.put` stores for it."""
    path = Path(path)
    atomic_write(temp_path(path), path, TraceStore._frame(_encode_payload(trace)))


def open_trace_file(path: Union[str, Path]) -> TraceStream:
    """Open a bare RPRT-framed trace file for streaming, outside any store.

    Validates the frame (header + full checksum, constant memory) and
    decodes the metadata line, exactly as
    :meth:`TraceStore.open_stream` does for store entries — but for a
    standalone file (one from :func:`save_trace_file`, or one copied
    out of a store's directory), so there is no quarantine side
    channel: an invalid file raises
    :class:`~repro.trace.stream.TraceStreamCorruption` instead of
    returning ``None``.
    """
    try:
        return _open_verified(Path(path))
    except Corruption as exc:
        raise TraceStreamCorruption(exc.reason) from exc
