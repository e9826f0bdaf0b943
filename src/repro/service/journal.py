"""Crash-safe request journal — the daemon's durability backbone.

A :class:`repro.durable.Journal`: one fsynced JSON line per state
transition under a header pinning the journal kind and schema version;
a torn tail is truncated on load and a foreign header rotated aside.

Two operations::

    {"journal": "repro-service", "version": 1, "schema": 1}
    {"op": "accepted", "key": "<content key>", "request": {...}}
    {"op": "done", "key": "<content key>", "response": {...}, "indexed": true}

``accepted`` is journaled *before* the client sees the accept — an
accepted request survives any SIGKILL.  ``done`` carries the full
response object, so a restarted daemon rebuilds its verdict index
without touching the result cache.  :meth:`RequestJournal.load` folds
the log: a key whose ``done`` is ``indexed`` is completed (served from
the index, zero recomputation); ``accepted`` without any ``done`` is
in-flight and gets re-run on restart (the drain).  ``indexed`` is false for answers that depend on
the moment (a shed, a deadline, a killed worker): a resubmission runs
afresh.  A ``done`` line without the field, as older daemons wrote
it, is indexed only when it holds an ``ok``/``degraded`` verdict.

Trace uploads are spooled to ``uploads/<key>.trc`` (fsynced, atomic
rename) *before* their ``accepted`` line — the journal stores only the
key, the payload survives next to it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.durable import Journal, atomic_write, reap_temps, temp_path
from repro.service.schema import SCHEMA_VERSION

__all__ = ["RequestJournal"]

_HEADER_KIND = "repro-service"

#: bump on incompatible journal layout changes
JOURNAL_VERSION = 1


class RequestJournal(Journal):
    """Append-only fsynced JSONL journal of request lifecycle events."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.uploads = self.root / "uploads"
        super().__init__(self.root / "requests.jsonl")

    def header(self) -> dict:
        return {
            "journal": _HEADER_KIND,
            "version": JOURNAL_VERSION,
            "schema": SCHEMA_VERSION,
        }

    def load(self) -> Tuple[Dict[str, dict], Dict[str, dict]]:
        """Fold the journal; returns ``(pending, completed)``.

        ``pending`` maps content key → the original request object for
        every ``accepted`` without a matching ``done`` (in insertion
        order — the restart drain re-runs them oldest first);
        ``completed`` maps key → the journaled response of every
        ``indexed`` ``done``.  Torn tail
        lines are truncated away; a journal with a foreign header is
        rotated to ``*.stale`` and treated as empty.  Spool temp files
        left by a daemon killed mid-upload are deleted.
        """
        pending: Dict[str, dict] = {}
        completed: Dict[str, dict] = {}

        def fold(obj: dict) -> None:
            op, key = obj["op"], obj["key"]
            if op == "accepted":
                pending.setdefault(key, obj["request"])
            elif op == "done":
                response = obj["response"]
                if obj.get("indexed", response.get("status") in ("ok", "degraded")):
                    completed[key] = response
                pending.pop(key, None)
            else:
                raise ValueError(f"unknown op {op!r}")

        super().load(fold)
        reap_temps(self.uploads)
        return pending, completed

    def accepted(self, key: str, request: dict) -> None:
        """Durably journal an accepted request (fsync before return)."""
        self.append_entry({"op": "accepted", "key": key, "request": request})

    def done(self, key: str, response: dict, indexed: bool = True) -> None:
        """Durably journal a completed request with its full response;
        ``indexed`` says whether a restart serves it from the index."""
        self.append_entry(
            {"op": "done", "key": key, "response": response, "indexed": indexed}
        )

    # -- trace upload spool -------------------------------------------------

    def spool_upload(self, key: str, payload: bytes) -> Path:
        """Persist a trace upload durably (fsync + atomic rename).

        Spooled *before* the ``accepted`` journal line, so a journaled
        trace request always finds its payload after a restart.
        """
        self.uploads.mkdir(parents=True, exist_ok=True)
        dest = self.uploads / f"{key}.trc"
        if not dest.exists():
            atomic_write(temp_path(dest), dest, payload)
        return dest

    def upload_path(self, key: str) -> Optional[Path]:
        path = self.uploads / f"{key}.trc"
        return path if path.exists() else None

    def spool_bytes(self) -> int:
        """Total bytes in the upload spool (disk-pressure metering)."""
        if not self.uploads.exists():
            return 0
        return sum(
            p.stat().st_size for p in self.uploads.glob("*.trc") if p.is_file()
        )
