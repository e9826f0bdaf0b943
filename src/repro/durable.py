"""Durable storage: the one framed store and the one journal.

* :class:`FramedStore` — a directory of content-keyed entries framed as
  ``magic + frame version + schema + sha256(payload) + payload`` and
  written atomically (temp file, fsync, rename).  Reads validate the
  frame; a bad entry is moved to ``corrupt/`` next to a JSON note and
  served as a miss, never raised.  Puts retry transient errors, free
  space once on ``ENOSPC``, then turn the store off with a note.  An
  optional byte quota evicts LRU entries, never the one just written.
  ``ResultCache`` and ``TraceStore`` add constants and a codec (and the
  trace store its streaming reads).
* :class:`Journal` — an append-only JSONL file whose first line pins
  its identity.  An append writes one or more lines with one write,
  flush and fsync, and returns only once they are durable; ``load``
  folds the complete lines in order, truncates a torn tail and rotates
  a foreign journal to ``*.stale``.  ``SweepJournal`` and
  ``RequestJournal`` supply only their header and fold.  A sweep
  appends from one committer thread, a group of lines per fsync, so a
  SIGKILL loses only the completed runs whose lines were not yet
  committed, and resume re-runs them.

Every write, fsync, rename, truncate and unlink of the two primitives is
in this module, so ``tests/harness/test_crash_points.py`` can enumerate
a crash at each.  Directories are not fsynced: the guarantees cover a
process death (SIGKILL, OOM), which is what sweeps and the service must
survive.  Temp files are ``<key>.tmp.<pid>``; :func:`reap_temps` deletes
those whose writer has died.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union,
)

log = logging.getLogger(__name__)

__all__ = [
    "Corruption",
    "DoctorReport",
    "FramedStore",
    "Journal",
    "Quarantine",
    "TRANSIENT_ERRNOS",
    "atomic_write",
    "reap_temps",
    "retry_io",
    "temp_path",
]

_T = TypeVar("_T")

#: OS error numbers worth retrying — transient by nature (interrupted
#: call, temporary resource exhaustion) rather than structural.
TRANSIENT_ERRNOS = frozenset(
    {errno.EINTR, errno.EAGAIN, errno.EBUSY, errno.ENFILE, errno.EMFILE}
)


def _jitter(token: str, attempt: int) -> float:
    """Deterministic jitter fraction in [0, 1) from a stable token.

    Derived from a hash rather than a RNG so retry timing is
    reproducible for a given (key, attempt) — the same property every
    other layer of the harness guarantees.
    """
    digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def retry_io(
    fn: Callable[[], _T],
    attempts: int = 3,
    base_delay_s: float = 0.01,
    token: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> _T:
    """Call ``fn``, retrying transient ``OSError`` with jittered backoff.

    Only errnos in :data:`TRANSIENT_ERRNOS` are retried; structural
    errors (``ENOSPC``, ``EACCES``, ...) propagate immediately so the
    caller can take its degradation path.  Backoff doubles per attempt
    with a deterministic jitter fraction keyed on ``token``.
    """
    last: Optional[OSError] = None
    for attempt in range(attempts):
        try:
            return fn()
        except OSError as exc:
            if exc.errno not in TRANSIENT_ERRNOS:
                raise
            last = exc
            if attempt + 1 < attempts:
                delay = base_delay_s * (2**attempt) * (1.0 + _jitter(token, attempt))
                sleep(delay)
    assert last is not None
    raise last


# ---------------------------------------------------------------------------
# Atomic files


def temp_path(path: Path) -> Path:
    """Where ``path`` is staged before its rename: ``<stem>.tmp.<pid>``."""
    return path.with_suffix(f".tmp.{os.getpid()}")


def atomic_write(tmp: Path, path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` via ``tmp``: write, fsync, rename.

    Readers see the old file or the new one; a crash leaves at most
    ``tmp`` behind.
    """
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def reap_temps(directory: Path) -> None:
    """Delete the ``*.tmp.<pid>`` files in ``directory`` whose writer died.

    A live writer's temp file is a write in progress and stays.
    """
    for path in directory.glob("*.tmp.*"):
        try:
            os.kill(int(path.suffix[1:]), 0)
        except ProcessLookupError:
            try:
                path.unlink()
            except OSError:
                pass
        except (ValueError, OverflowError, OSError):
            pass  # not a pid, or a live process of another user


# ---------------------------------------------------------------------------
# The framed store

#: frame header: magic, frame version, schema; the sha256 digest follows
FRAME_HEADER = struct.Struct("<4sBI")
FRAME_VERSION = 1
DIGEST_LEN = 32


class Corruption(Exception):
    """An entry failed validation; ``reason`` lands in its quarantine note."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Quarantine:
    """One entry moved aside instead of decoded."""

    key: str
    reason: str
    path: str


@dataclass
class DoctorReport:
    """Outcome of a :meth:`FramedStore.doctor` scan."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[Quarantine] = field(default_factory=list)
    #: entries sitting in ``corrupt/`` (including ones this scan moved)
    corrupt_entries: int = 0
    purged: int = 0


class FramedStore:
    """Checksummed, quarantining, quota-governed directory of entries.

    Subclasses set the class constants and implement :meth:`encode` and
    :meth:`decode`.  Corruption never raises out of a read: it is
    quarantined into ``corrupt/`` and counted as a miss.
    """

    MAGIC = b""
    #: pinned in every frame header and quarantine note
    SCHEMA = 0
    SUFFIX = ""
    #: prefix of the write-off note
    OFF_NOTE = "store-off"
    #: quarantine reason when the frame is intact but the payload won't decode
    DECODE_ERROR = "undecodable"

    def __init__(
        self,
        root: Union[str, Path],
        quota_bytes: Optional[int] = None,
        io_attempts: int = 3,
        io_backoff_s: float = 0.01,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: byte quota for valid entries; oldest (LRU by mtime) entries
        #: are evicted after each ``put`` that pushes the store over
        self.quota_bytes = quota_bytes
        self.io_attempts = io_attempts
        self.io_backoff_s = io_backoff_s
        #: True once the store degraded to write-off after persistent
        #: I/O failure (ENOSPC after freeing, exhausted retries); reads
        #: keep working, further ``put`` calls are silent no-ops
        self.disabled = False
        #: structured degradation notes (``"<OFF_NOTE>: ..."``)
        self.notes: List[str] = []
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined: List[Quarantine] = []

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, payload: bytes) -> Any:
        """Decode a checksum-valid payload; raise anything if malformed."""
        raise NotImplementedError

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def _entries(self) -> Iterable[Path]:
        return self.root.glob(f"*{self.SUFFIX}")

    # -- framing ------------------------------------------------------------

    def _frame(self, payload: bytes) -> bytes:
        header = FRAME_HEADER.pack(self.MAGIC, FRAME_VERSION, self.SCHEMA)
        return header + hashlib.sha256(payload).digest() + payload

    @classmethod
    def _check_header(cls, head: bytes) -> bytes:
        """Validate a frame's header; returns the recorded digest."""
        if len(head) < FRAME_HEADER.size + DIGEST_LEN:
            raise Corruption("truncated")
        magic, version, schema = FRAME_HEADER.unpack_from(head)
        if magic != cls.MAGIC:
            raise Corruption("bad-magic")
        if version != FRAME_VERSION:
            raise Corruption(f"frame-version-{version}")
        if schema != cls.SCHEMA:
            raise Corruption(f"schema-{schema}")
        return head[FRAME_HEADER.size : FRAME_HEADER.size + DIGEST_LEN]

    def _decode(self, data: bytes) -> Any:
        digest = self._check_header(data)
        payload = data[FRAME_HEADER.size + DIGEST_LEN :]
        if hashlib.sha256(payload).digest() != digest:
            raise Corruption("checksum-mismatch")
        try:
            return self.decode(payload)
        except Corruption:
            raise
        except Exception as exc:  # codec drift, truncated payload, ...
            raise Corruption(f"{self.DECODE_ERROR}: {type(exc).__name__}") from exc

    @classmethod
    def verify_file(cls, path: Union[str, Path]) -> int:
        """Validate header + checksum in constant memory; returns the
        payload offset.  Raises ``OSError`` on a miss and
        :class:`Corruption` on an invalid frame."""
        header_len = FRAME_HEADER.size + DIGEST_LEN
        hasher = hashlib.sha256()
        with open(path, "rb") as fh:
            digest = cls._check_header(fh.read(header_len))
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                hasher.update(chunk)
        if hasher.digest() != digest:
            raise Corruption("checksum-mismatch")
        return header_len

    def _quarantine(self, path: Path, key: str, reason: str) -> Optional[Quarantine]:
        """Move a bad entry to ``corrupt/`` with a note; never raises."""
        dest = self.corrupt_dir / path.name
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except FileNotFoundError:
            # A concurrent writer/gc removed the entry between our
            # listing and the move: nothing to quarantine after all.
            return None
        except OSError:
            pass
        note = {"key": key, "reason": reason, "schema": self.SCHEMA}
        try:
            with open(dest.with_suffix(".note.json"), "wb") as fh:
                fh.write(json.dumps(note).encode())
        except OSError:
            pass
        entry = Quarantine(key=key, reason=reason, path=str(dest))
        self.quarantined.append(entry)
        log.warning(
            "%s entry quarantined: key=%s reason=%s moved_to=%s",
            type(self).__name__,
            key[:16],
            reason,
            dest,
        )
        return entry

    # -- the store API ------------------------------------------------------

    def get(self, key: str) -> Any:
        """The decoded entry, or ``None`` on a miss or a quarantined entry."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = self._decode(data)
        except Corruption as exc:
            self._quarantine(path, key, exc.reason)
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return value

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime — the LRU recency signal for the quota."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _atomic_write(self, tmp: Path, path: Path, data: bytes) -> None:
        """The raw write step — the I/O-failure injection point for tests."""
        atomic_write(tmp, path, data)

    def put(self, key: str, value: Any) -> None:
        """Store ``value``; persistent I/O failure turns the store off
        (with a note in :attr:`notes`) instead of raising."""
        if self.disabled:
            return
        data = self._frame(self.encode(value))
        path = self._path(key)
        tmp = temp_path(path)

        def write() -> None:
            retry_io(
                lambda: self._atomic_write(tmp, path, data),
                attempts=self.io_attempts,
                base_delay_s=self.io_backoff_s,
                token=key,
            )

        try:
            try:
                write()
            except OSError as exc:
                if exc.errno != errno.ENOSPC:
                    raise
                # Full disk: reclaim what we can, then one more attempt.
                self._free_space()
                write()
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            self.disabled = True
            note = (
                f"{self.OFF_NOTE}: put failed after retries "
                f"({errno.errorcode.get(exc.errno, 'OSError')}): {exc}"
            )
            self.notes.append(note)
            log.warning("%s degraded: %s", type(self).__name__, note)
            return
        self.writes += 1
        self._enforce_quota(protect=key)

    def has(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> List[str]:
        return sorted(path.stem for path in self._entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        for path in self._entries():
            path.unlink(missing_ok=True)

    # -- space --------------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes held by valid entries (quarantine debris excluded)."""
        return sum(size for _, size, _ in self._entry_stats())

    def _entry_stats(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` per entry, oldest first; race-tolerant."""
        stats = []
        for path in self._entries():
            try:
                st = path.stat()
            except OSError:
                continue
            stats.append((st.st_mtime, st.st_size, path))
        stats.sort(key=lambda t: (t[0], t[2].name))
        return stats

    def _enforce_quota(self, protect: str = "") -> None:
        """Evict LRU entries until the store fits its quota.

        The just-written key is protected — a quota smaller than one
        entry degrades to keeping only the latest, never to evicting
        what the caller is about to read back.
        """
        if self.quota_bytes is None:
            return
        stats = self._entry_stats()
        total = sum(size for _, size, _ in stats)
        for _, size, path in stats:
            if total <= self.quota_bytes:
                break
            if path.stem == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1

    def _free_space(self) -> None:
        """ENOSPC pressure valve: dead writers' temps, corrupt/, quota."""
        reap_temps(self.root)
        self._purge_corrupt()
        self._enforce_quota()

    def _purge_corrupt(self) -> int:
        """Empty ``corrupt/``; returns how many quarantined entries went."""
        purged = 0
        for path in self.corrupt_dir.glob("*"):
            try:
                path.unlink()
            except OSError:
                continue
            purged += path.suffix == self.SUFFIX
        return purged

    def doctor(self, purge: bool = False) -> DoctorReport:
        """Scan every entry, quarantine the bad ones, optionally purge.

        Validation is the same frame + checksum + decode path ``get``
        uses, so a clean doctor run guarantees every later probe of the
        current population is a clean hit or a clean miss.  ``purge``
        empties ``corrupt/`` and deletes dead writers' temp files.
        """
        report = DoctorReport()
        for path in sorted(self._entries()):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                continue  # raced away between listing and read
            except OSError:
                report.scanned += 1
                continue
            report.scanned += 1
            try:
                self._decode(data)
            except Corruption as exc:
                entry = self._quarantine(path, path.stem, exc.reason)
                if entry is not None:
                    report.quarantined.append(entry)
                continue
            report.ok += 1
        report.corrupt_entries = len(list(self.corrupt_dir.glob(f"*{self.SUFFIX}")))
        if purge:
            reap_temps(self.root)
            report.purged = self._purge_corrupt()
        return report

    def gc(self, keep=None, purge_corrupt: bool = True) -> Dict[str, int]:
        """Drop entries outside ``keep`` (``None`` keeps all), dead
        writers' temp files and, optionally, ``corrupt/``.  Returns
        ``{"removed": n, "purged": m, "kept": k}``."""
        removed = kept = 0
        keep_set = None if keep is None else set(keep)
        for path in sorted(self._entries()):
            if keep_set is not None and path.stem not in keep_set:
                try:
                    path.unlink()
                except OSError:
                    continue  # a concurrent gc got there first: not ours
                removed += 1
            else:
                kept += 1
        reap_temps(self.root)
        purged = self._purge_corrupt() if purge_corrupt else 0
        return {"removed": removed, "purged": purged, "kept": kept}


# ---------------------------------------------------------------------------
# The journal


class Journal:
    """Append-only fsynced JSONL file whose first line pins its identity.

    Subclasses implement :meth:`header` and build their typed state by
    passing a fold to :meth:`load`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self.appended = 0

    def header(self) -> dict:
        """The first line; a journal whose first line disagrees is stale."""
        raise NotImplementedError

    def load(self, fold: Callable[[dict], None]) -> None:
        """Pass every complete entry, in order, to ``fold``.

        A line is complete when it is valid JSON *and* newline-terminated
        (a crash can eat the terminator of valid JSON).  The first
        incomplete line, or one ``fold`` rejects with ``KeyError``,
        ``TypeError`` or ``ValueError``, ends the journal: it and the rest
        are truncated away, so the folded state matches the file and the
        next append starts a clean line.  ``fold`` must not change its
        state before it can raise.  A journal whose header disagrees
        with :meth:`header` is rotated to ``*.stale`` and folds nothing.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        expected = self.header()
        pinned = False
        end = 0  # bytes known good
        # the last item of split() is the unterminated tail (often b"")
        for line in raw.split(b"\n")[:-1]:
            if line.strip():
                try:
                    obj = json.loads(line.decode("utf-8"))
                except ValueError:  # torn or corrupt, bad UTF-8 included
                    break
                if pinned:
                    try:
                        fold(obj)
                    except (KeyError, TypeError, ValueError):
                        break
                elif isinstance(obj, dict) and all(
                    obj.get(k) == v for k, v in expected.items()
                ):
                    pinned = True
                else:
                    stale = self.path.with_name(self.path.name + ".stale")
                    try:
                        os.replace(self.path, stale)
                    except OSError:
                        self.path.unlink(missing_ok=True)
                    return
            end += len(line) + 1
        if end < len(raw):
            with open(self.path, "r+b") as fh:
                fh.truncate(end)

    def reset(self) -> None:
        """Discard the journal (a fresh run)."""
        self.close()
        self.path.unlink(missing_ok=True)

    @staticmethod
    def _write_lines(fh, objs: Sequence[dict]) -> None:
        fh.write(b"".join(
            json.dumps(obj, separators=(",", ":")).encode() + b"\n" for obj in objs
        ))
        fh.flush()
        os.fsync(fh.fileno())

    def append_entries(self, entries: Sequence[dict]) -> None:
        """Durably append ``entries`` as one group: one write, flush and
        fsync, done before return.

        An empty journal gets its header first, and the handle is kept
        only once the header is down, so no entry lands headerless.  A
        crash mid-group keeps a prefix of the group's lines; ``load``
        cuts the torn one.
        """
        if self._fh is None:
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            fh = open(self.path, "ab")
            try:
                if fresh:
                    self._write_lines(fh, [self.header()])
            except BaseException:
                fh.close()
                raise
            self._fh = fh
        self._write_lines(self._fh, entries)
        self.appended += len(entries)

    def append_entry(self, entry: dict) -> None:
        """Durably append one entry (a group of one)."""
        self.append_entries([entry])

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
