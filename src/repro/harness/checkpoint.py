"""Journaled sweep checkpoints — crash-safe resume for the sweep engine.

A sweep over hundreds of (workload, tool, seed) triples is only as
durable as its weakest process: a SIGKILL, an OOM kill, or a Ctrl-C
mid-sweep used to throw every finished run away.  This module makes the
finished work *durable*:

* every spec has a content-keyed digest (:func:`spec_key` — the same
  hash the result cache uses), and the whole sweep has a digest over its
  sorted spec keys (:func:`sweep_digest`);
* a :class:`SweepJournal` appends one fsynced JSON line per *completed*
  run record to ``sweep-<digest>.jsonl``, so the set of finished specs
  survives any kind of process death;
* ``run_sweep(..., resume=True)`` loads the journal and serves journaled
  specs without re-execution — only the unfinished tail runs.

The journal stores :class:`~repro.harness.parallel.RunRecord` rows, not
outcomes: outcome payloads belong to the (checksummed) result cache.  A
journal is therefore small, human-readable, and safe to truncate — a
torn tail line (the signature of a crash mid-append) is detected and cut
off on load, never propagated.

Format (one JSON object per line)::

    {"journal": "repro-sweep", "version": 1, "schema": 6, "sweep": "<digest>"}
    {"key": "<spec digest>", "record": {"workload": ..., "status": ...}}
    ...

The header pins the journal to one sweep (the spec-set digest) and one
cache schema; a mismatched journal is rotated aside, never reused.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: bump when RunOutcome's schema or run semantics change incompatibly —
#: stale cache entries from an older layout must not be deserialized.
#: 2: fault plans + livelock watchdog (RunOutcome/RunResult diagnostics).
#: 3: epoch fast path + batched event pipeline (ToolConfig gained two
#:    pipeline flags; event accounting changed in lib mode).
#: 4: pre-decoded threaded-code interpreter (ToolConfig gained an
#:    interpreter flag; RunOutcome gained decode_s; instrument_s now
#:    reflects the cached static phase).
#: 5: checksummed cache entries (framed header + sha256) and journaled
#:    checkpoints; entries written by the unframed layout are
#:    quarantined, not read.
#: 6: trace store + offline analysis (RunSpec gained scheduler and
#:    trace_mode; both enter the key, so a replayed cell never collides
#:    with a live one).
#: 7: sharded trace analysis (RunSpec gained shard; each shard of a
#:    grand-sweep cell is a distinct cache/journal entry, so resume
#:    works at shard granularity).
#: 8: the three pipeline/interpreter flags left ToolConfig, whose fields
#:    feed every cache key.
CACHE_SCHEMA = 8

#: bump on incompatible journal layout changes
JOURNAL_VERSION = 1

_HEADER_KIND = "repro-sweep"


def spec_key(spec) -> str:
    """Content digest of one run spec (the cache / journal key).

    Hashes the *built program* (not the workload name), the full tool
    configuration, the effective seed and step budget, and any fault
    plan — two sweeps measuring the same computation agree on the key,
    and any change to a workload generator misses cleanly.
    """
    from repro.harness.registry import program_fingerprint

    if isinstance(spec.workload, str):
        fingerprint = program_fingerprint(spec.workload)
    else:
        fingerprint = spec.resolve().fresh_program().fingerprint()
    from repro.harness.registry import canonical_scheduler

    config_fields = sorted(dataclasses.asdict(spec.tool()).items())
    payload = "\n".join(
        [
            f"schema={CACHE_SCHEMA}",
            f"program={fingerprint}",
            f"config={config_fields!r}",
            f"seed={spec.effective_seed()}",
            f"max_steps={spec.effective_max_steps()}",
            f"fault_plan={spec.fault_plan!r}",
            f"livelock_bound={spec.livelock_bound!r}",
            f"scheduler={canonical_scheduler(getattr(spec, 'scheduler', None))}",
            f"trace_mode={getattr(spec, 'trace_mode', 'live')}",
            f"shard={getattr(spec, 'shard', None)!r}",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def sweep_digest(keys: Iterable[str]) -> str:
    """Digest of a whole sweep: order-insensitive hash of its spec keys.

    Resuming requires presenting the *same* spec set; a changed set gets
    a fresh journal instead of a partially-matching stale one.
    """
    h = hashlib.sha256()
    h.update(f"journal-v{JOURNAL_VERSION}/schema-{CACHE_SCHEMA}\n".encode())
    for key in sorted(keys):
        h.update(key.encode())
        h.update(b"\n")
    return h.hexdigest()


def record_to_dict(record) -> dict:
    return dataclasses.asdict(record)


def record_from_dict(data: dict):
    """Rebuild a RunRecord, ignoring unknown keys (forward compatible)."""
    from repro.harness.parallel import RunRecord

    fields = {f.name for f in dataclasses.fields(RunRecord)}
    return RunRecord(**{k: v for k, v in data.items() if k in fields})


class SweepJournal:
    """Append-only fsynced JSONL journal of completed run records.

    One instance is bound to one sweep digest; :meth:`load` returns the
    records of a previous (possibly killed) run of the same sweep, and
    :meth:`append` durably records each newly finished spec.
    """

    def __init__(self, root: Union[str, Path], digest: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.digest = digest
        self.path = self.root / f"sweep-{digest[:24]}.jsonl"
        self._fh = None
        self.appended = 0

    # -- reading ------------------------------------------------------------

    def load(self) -> Dict[str, object]:
        """Parse the journal; returns ``{spec_key: RunRecord}``.

        Tolerates a torn tail line (crash mid-append): everything up to
        the last complete, valid line is returned and the torn bytes are
        truncated away so subsequent appends start on a clean boundary.
        A journal whose header names a different sweep or schema is
        rotated to ``*.stale`` and treated as empty.
        """
        if not self.path.exists():
            return {}
        raw = self.path.read_bytes()
        entries: Dict[str, object] = {}
        valid_end = 0
        offset = 0
        header_ok = False
        for line in raw.split(b"\n"):
            consumed = len(line) + 1  # the newline
            # the final fragment has no newline — only count it if valid
            has_newline = offset + len(line) < len(raw)
            try:
                obj = json.loads(line.decode("utf-8")) if line.strip() else None
            except (ValueError, UnicodeDecodeError):
                break  # torn or corrupt line: stop, truncate the rest
            if obj is None:
                if has_newline:
                    valid_end = offset + consumed
                    offset += consumed
                    continue
                break
            if not header_ok:
                if (
                    not isinstance(obj, dict)
                    or obj.get("journal") != _HEADER_KIND
                    or obj.get("version") != JOURNAL_VERSION
                    or obj.get("schema") != CACHE_SCHEMA
                    or obj.get("sweep") != self.digest
                ):
                    self._rotate_stale()
                    return {}
                header_ok = True
            else:
                try:
                    entries[obj["key"]] = record_from_dict(obj["record"])
                except (KeyError, TypeError):
                    break  # structurally torn entry: stop here
            if not has_newline:
                break  # valid JSON but no terminator: treat as torn
            valid_end = offset + consumed
            offset += consumed
        if valid_end < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(valid_end)
        return entries

    def _rotate_stale(self) -> None:
        stale = self.path.with_suffix(".jsonl.stale")
        try:
            os.replace(self.path, stale)
        except OSError:
            self.path.unlink(missing_ok=True)

    # -- writing ------------------------------------------------------------

    def reset(self) -> None:
        """Discard any previous journal for this sweep (fresh run)."""
        self.close()
        self.path.unlink(missing_ok=True)

    def _ensure_open(self) -> None:
        if self._fh is not None:
            return
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "ab")
        if fresh:
            header = {
                "journal": _HEADER_KIND,
                "version": JOURNAL_VERSION,
                "schema": CACHE_SCHEMA,
                "sweep": self.digest,
            }
            self._write_line(header)

    def _write_line(self, obj: dict) -> None:
        self._fh.write(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, key: str, record) -> None:
        """Durably journal one completed record (fsync before return)."""
        self._ensure_open()
        self._write_line({"key": key, "record": record_to_dict(record)})
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(
    root: Union[str, Path], specs: Sequence, keys: Optional[Sequence[str]] = None
) -> Tuple["SweepJournal", List[str]]:
    """Convenience: compute keys (if not given) and bind the journal."""
    keys = list(keys) if keys is not None else [spec_key(s) for s in specs]
    return SweepJournal(root, sweep_digest(keys)), keys
