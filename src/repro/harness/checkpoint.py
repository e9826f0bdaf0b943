"""Journaled sweep checkpoints — crash-safe resume for the sweep engine.

A sweep over hundreds of (workload, tool, seed) triples is only as
durable as its weakest process: a SIGKILL, an OOM kill, or a Ctrl-C
mid-sweep used to throw every finished run away.  This module makes the
finished work *durable*:

* every spec has a content-keyed digest (:func:`spec_key` — the same
  hash the result cache uses), and the whole sweep has a digest over its
  sorted spec keys (:func:`sweep_digest`);
* a :class:`SweepJournal` appends one JSON line per *completed* run
  record to ``sweep-<digest>.jsonl``, a group of lines per fsync, so
  the set of committed specs survives any kind of process death;
* ``run_sweep(..., resume=True)`` loads the journal and serves journaled
  specs without re-execution — only the unfinished tail runs.

The journal stores :class:`~repro.harness.parallel.RunRecord` rows, not
outcomes: outcome payloads belong to the (checksummed) result cache.  A
journal is therefore small and human-readable; it is a
:class:`repro.durable.Journal`, so a torn tail line (a crash mid-append)
is cut off on load, never propagated.

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
from pathlib import Path
from typing import Dict, Iterable, Tuple, Union

from repro.durable import Journal

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
#: 9: pickled ShardReports carry owned/foreign access counts instead of
#:    the filtered stream's total.
#: 10: RunSpec lost shard; spec keys no longer carry it; ShardReport
#:     pickles gone.
CACHE_SCHEMA = 10

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
    from repro.harness.registry import canonical_scheduler

    fingerprint = spec.program().fingerprint()

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


def record_from_dict(data: dict):
    """Rebuild a RunRecord, ignoring unknown keys (forward compatible)."""
    from repro.harness.parallel import RunRecord

    fields = {f.name for f in dataclasses.fields(RunRecord)}
    return RunRecord(**{k: v for k, v in data.items() if k in fields})


class SweepJournal(Journal):
    """Append-only fsynced JSONL journal of completed run records.

    One instance is bound to one sweep digest; :meth:`load` returns the
    records of a previous (possibly killed) run of the same sweep, and
    :meth:`append` durably records a group of newly finished specs.
    """

    def __init__(self, root: Union[str, Path], digest: str) -> None:
        self.root = Path(root)
        self.digest = digest
        super().__init__(self.root / f"sweep-{digest[:24]}.jsonl")

    def header(self) -> dict:
        return {
            "journal": _HEADER_KIND,
            "version": JOURNAL_VERSION,
            "schema": CACHE_SCHEMA,
            "sweep": self.digest,
        }

    def load(self) -> Dict[str, object]:
        """Parse the journal; returns ``{spec_key: RunRecord}``.

        A torn tail (crash mid-append) is truncated away; a journal
        whose header names a different sweep or schema is rotated to
        ``*.stale`` and treated as empty (:meth:`Journal.load`).
        """
        entries: Dict[str, object] = {}

        def fold(obj: dict) -> None:
            entries[obj["key"]] = record_from_dict(obj["record"])

        super().load(fold)
        return entries

    def append(self, records: Iterable[Tuple[str, object]]) -> None:
        """Durably journal ``(key, record)`` pairs of completed runs as
        one group: one write and one fsync, done before return."""
        self.append_entries(
            [{"key": key, "record": dataclasses.asdict(rec)} for key, rec in records]
        )

