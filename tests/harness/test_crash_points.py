"""Crash-point enumeration for the durable-storage primitives.

Every write, flush, fsync, rename, truncate and unlink that
:mod:`repro.durable` performs — plus the ``open`` that creates or
appends to a file — goes through an interceptor.  Each operation below
first runs uninterrupted and must hit exactly its pinned sequence of
points, so a new syscall fails here until it is enumerated too (and
the pinned ``put`` and ``append`` sequences guard the sweep's
fsync-bound hot path against an extra syscall).  Then the operation is
replayed once per point N and per fault:

* ``crash``  — the process dies just before point N;
* ``torn``   — point N is a write that lands only its first half, then
  the process dies;
* ``eio`` / ``enospc`` — point N fails with that errno and the primitive
  carries on however it handles the error.

A crash is a process death (SIGKILL, OOM): bytes already handed to the
kernel survive and nothing after point N runs.  Power loss is out of
scope — directories are never fsynced — so the interceptor skips the
real fsync to keep the enumeration fast.  After every fault the
directory is reopened with fresh instances and the recovery invariants
are checked:

* a journal entry whose append returned is never lost, and ``load``
  returns the attempted entries in order, never a partial one;
* ``get`` returns the old value, the new value or a miss — never wrong
  bytes — and a store operation never raises;
* corruption is quarantined, and ``doctor(purge=True)`` leaves only
  valid entries: no temp-file debris and an empty ``corrupt/``.
"""

import builtins
import dataclasses
import errno
import functools
import os
import pathlib

import pytest

from repro import durable
from repro.harness.checkpoint import SweepJournal
from repro.harness.parallel import ResultCache, RunRecord
from repro.service.journal import RequestJournal
from repro.trace import TraceStore, record_trace

from tests.conftest import flag_handoff_program

#: above Linux's PID_MAX_LIMIT (2**22), so never a live process.  Writes
#: made under interception carry it as their temp-file pid, so the debris
#: a simulated crash leaves looks like a dead writer's, as after a real one.
DEAD_PID = 2**22 + 1

OLD, NEW = "o" * 1000, "n" * 1000
DIGEST = "d" * 64
FAULTS = ("crash", "torn", "eio", "enospc")
PUT = ("open", "write", "flush", "fsync", "rename")
APPEND = ("write", "flush", "fsync")
QUARANTINE = ("rename", "open", "write")


class _Crash(BaseException):
    """The simulated process death; no code under test catches it."""


class Interceptor:
    """Records the durable-storage syscalls while armed; injects one fault."""

    def __init__(self):
        self.points = []
        self.armed = False
        self.fault_at = self.fault = None
        self.opened = []

    def arm(self, fault_at=None, fault=None):
        self.points, self.armed = [], True
        self.fault_at, self.fault = fault_at, fault

    def disarm(self):
        """Stop recording; close what the run left open, as process exit does."""
        self.armed = False
        for fh in self.opened:
            fh.close()
        self.opened = []

    def track(self, fh):
        self.opened.append(fh)
        return fh

    def hit(self, name, perform, torn=None):
        if self.armed:
            self.points.append(name)
            if len(self.points) - 1 == self.fault_at:
                if self.fault in ("crash", "torn"):
                    if self.fault == "torn":
                        torn()
                    raise _Crash(name)
                code = errno.EIO if self.fault == "eio" else errno.ENOSPC
                raise OSError(code, f"injected {self.fault} at {name}")
        return perform()


class _File:
    """A file opened for writing, unbuffered, every mutation intercepted."""

    def __init__(self, fs, raw):
        self._fs, self._raw = fs, raw

    def write(self, data):
        return self._fs.hit(
            "write",
            lambda: self._raw.write(data),
            torn=lambda: self._raw.write(data[: len(data) // 2]),
        )

    def flush(self):
        return self._fs.hit("flush", self._raw.flush)

    def truncate(self, size):
        return self._fs.hit("truncate", lambda: self._raw.truncate(size))

    def fileno(self):
        return self._raw.fileno()

    def close(self):
        self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Os:
    """``os`` as :mod:`repro.durable` sees it under interception."""

    def __init__(self, fs):
        self._fs = fs

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        return self._fs.hit("fsync", lambda: None)

    def replace(self, src, dst):
        return self._fs.hit("rename", lambda: os.replace(src, dst))

    def getpid(self):
        return DEAD_PID


@pytest.fixture
def fs(monkeypatch):
    fs = Interceptor()
    real_unlink = pathlib.Path.unlink

    def intercepted_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wa+"):
            return builtins.open(file, mode, *args, **kwargs)
        # Unbuffered, so each write reaches the kernel when it is called
        # and "the calls before point N" is exactly what a crash keeps.
        return fs.hit(
            "open", lambda: fs.track(_File(fs, builtins.open(file, mode, buffering=0)))
        )

    def intercepted_unlink(self, missing_ok=False):
        return fs.hit("unlink", lambda: real_unlink(self, missing_ok=missing_ok))

    monkeypatch.setattr(durable, "open", intercepted_open, raising=False)
    monkeypatch.setattr(durable, "os", _Os(fs))
    monkeypatch.setattr(pathlib.Path, "unlink", intercepted_unlink)
    return fs


# ---------------------------------------------------------------------------
# Invariant helpers


def _cache(root, **kw):
    return ResultCache(root, io_backoff_s=0.0, **kw)


@functools.lru_cache(maxsize=None)
def _trace():
    return record_trace(flag_handoff_program(), seed=3)


def _corrupt(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


def _debris(store):
    """A dead writer's temp file plus a purgeable quarantined entry."""
    (store.root / f"dead.tmp.{DEAD_PID}").write_bytes(b"half a put")
    store.corrupt_dir.mkdir(exist_ok=True)
    (store.corrupt_dir / f"x{store.SUFFIX}").write_bytes(b"junk")
    (store.corrupt_dir / "x.note.json").write_bytes(b"{}")


def _assert_clean(store):
    """After ``doctor(purge=True)`` only valid entries remain."""
    store.doctor(purge=True)
    assert not list(store.root.glob("*.tmp.*")), "temp-file debris survived"
    assert not list(store.corrupt_dir.glob("*")), "corrupt/ not emptied"
    report = store.doctor()
    assert report.ok == report.scanned and not report.quarantined


def _entries(journal):
    """The raw entries a journal folds, through the shared ``Journal.load``."""
    out = []
    durable.Journal.load(journal, out.append)
    return out


def _assert_journal(journal_at, attempted, returned, extra):
    """The recovered journal is an in-order subsequence of the attempted
    entries that holds every returned one — and it stays appendable."""
    got = _entries(journal_at())
    remaining = iter(attempted)
    assert all(entry in remaining for entry in got), f"out of order: {got}"
    assert all(entry in got for entry in returned), "a returned append was lost"
    with journal_at() as j:
        j.append_entry(extra)
    assert _entries(journal_at()) == got + [extra]


def _rec(i):
    return RunRecord(workload=f"wl{i}", tool="t", seed=i, status="ok", steps=i)


def _sweep_entry(i):
    return {"key": f"k{i}", "record": dataclasses.asdict(_rec(i))}


# ---------------------------------------------------------------------------
# The operations: setup (uninterrupted), run (faulted), check (fresh instances)


class PutNew:
    points = PUT

    def setup(self, root):
        pass

    def run(self, root, done):
        store = _cache(root)
        store.put("k", NEW)
        done.append(not store.disabled)

    def check(self, root, done):
        store = _cache(root)
        got = store.get("k")
        assert got in (NEW, None)
        if done and done[0]:
            assert got == NEW, "a put that reported success was lost"
        _assert_clean(store)


class PutOverwrite(PutNew):
    def setup(self, root):
        _cache(root).put("k", OLD)

    def check(self, root, done):
        store = _cache(root)
        got = store.get("k")
        assert got in (OLD, NEW), "an overwrite lost both versions"
        if done and done[0]:
            assert got == NEW
        _assert_clean(store)


class QuarantineOnGet:
    points = QUARANTINE

    def setup(self, root):
        store = _cache(root)
        store.put("k", OLD)
        _corrupt(store._path("k"))

    def run(self, root, done):
        assert _cache(root).get("k") is None
        done.append(True)

    def check(self, root, done):
        store = _cache(root)
        assert store.get("k") is None
        assert not store._path("k").exists()
        _assert_clean(store)


class DoctorPurge:
    points = QUARANTINE + ("unlink",) * 5

    def setup(self, root):
        store = _cache(root)
        store.put("a", OLD)
        store.put("b", OLD)
        _corrupt(store._path("b"))
        _debris(store)

    def run(self, root, done):
        _cache(root).doctor(purge=True)

    def check(self, root, done):
        store = _cache(root)
        assert store.get("a") == OLD, "doctor lost a valid entry"
        assert store.get("b") is None
        _assert_clean(store)


class Gc:
    points = ("unlink",) * 5

    def setup(self, root):
        store = _cache(root)
        for key in "abc":
            store.put(key, OLD)
        _debris(store)

    def run(self, root, done):
        _cache(root).gc(keep=["a"])

    def check(self, root, done):
        store = _cache(root)
        assert store.get("a") == OLD, "gc lost a kept entry"
        assert store.get("b") in (OLD, None) and store.get("c") in (OLD, None)
        _assert_clean(store)


class QuotaEviction:
    points = PUT + ("unlink",)
    QUOTA = 2500  # two entries fit, a third evicts the oldest

    def setup(self, root):
        store = _cache(root, quota_bytes=self.QUOTA)
        for i, key in enumerate("ab"):
            store.put(key, OLD)
            os.utime(store._path(key), (1e9 + i, 1e9 + i))

    def run(self, root, done):
        store = _cache(root, quota_bytes=self.QUOTA)
        store.put("c", NEW)
        done.append(not store.disabled)

    def check(self, root, done):
        store = _cache(root, quota_bytes=self.QUOTA)
        # eviction removes whole entries, and only while over quota
        survivors = [store.get("a"), store.get("b")]
        assert set(survivors) <= {OLD, None} and OLD in survivors
        got = store.get("c")
        assert got in (NEW, None)
        if done and done[0]:
            assert got == NEW
        _assert_clean(store)


class TracePut:
    points = PUT

    def setup(self, root):
        pass

    def run(self, root, done):
        store = TraceStore(root, io_backoff_s=0.0)
        store.put("k", _trace())
        done.append(not store.disabled)

    def check(self, root, done):
        store = TraceStore(root)
        got = store.get("k")
        assert got is None or got == _trace()
        if done and done[0]:
            assert got == _trace()
        _assert_clean(store)


class TraceEntries:
    points = QUARANTINE

    def setup(self, root):
        store = TraceStore(root)
        store.put("a", _trace())
        store.put("b", _trace())
        _corrupt(store._path("b"))

    def run(self, root, done):
        assert [key for key, _, _ in TraceStore(root).entries()] == ["a"]

    def check(self, root, done):
        store = TraceStore(root)
        assert [key for key, _, _ in store.entries()] == ["a"]
        assert store.get("b") is None
        _assert_clean(store)


class _SweepJournalOp:
    """Appends ``self.appends`` to a journal already holding ``self.held``."""

    held = ()
    appends = ()

    def journal(self, root):
        return SweepJournal(root, DIGEST)

    def setup(self, root):
        if self.held:
            with self.journal(root) as j:
                for i in self.held:
                    j.append([(f"k{i}", _rec(i))])

    def run(self, root, done):
        j = self.journal(root)
        for i in self.appends:
            try:
                j.append([(f"k{i}", _rec(i))])
            except OSError:
                continue
            done.append(_sweep_entry(i))

    def check(self, root, done):
        attempted = [_sweep_entry(i) for i in self.held + self.appends]
        returned = [_sweep_entry(i) for i in self.held] + done
        _assert_journal(lambda: self.journal(root), attempted, returned, _sweep_entry(9))
        loaded = self.journal(root).load()
        assert list(loaded) == [e["key"] for e in _entries(self.journal(root))]


class JournalHeader(_SweepJournalOp):
    points = ("open",) + APPEND * 2
    appends = (1,)


class JournalAppend(_SweepJournalOp):
    points = ("open",) + APPEND * 2
    held = (1,)
    appends = (2, 3)


class JournalGroup(_SweepJournalOp):
    """One group commit of three lines onto a journal holding one."""

    points = ("open",) + APPEND
    held = (1,)
    appends = (2, 3, 4)

    def run(self, root, done):
        try:
            self.journal(root).append([(f"k{i}", _rec(i)) for i in self.appends])
        except OSError:
            return
        done.extend(_sweep_entry(i) for i in self.appends)


class JournalGroupFresh(JournalGroup):
    """The same group on a fresh journal: its header, then the group."""

    points = ("open",) + APPEND * 2
    held = ()
    appends = (1, 2, 3)


class TornTailTruncation(_SweepJournalOp):
    points = ("open", "truncate")
    held = (1, 2)
    # valid JSON whose newline never landed: torn, never folded
    TAIL = b'{"key":"k3","record":{}}'

    def setup(self, root):
        super().setup(root)
        with open(self.journal(root).path, "ab") as fh:
            fh.write(self.TAIL)

    def run(self, root, done):
        try:
            assert list(self.journal(root).load()) == ["k1", "k2"]
        except OSError:
            pass  # the truncate failed: load reports it, the next load retries

    def check(self, root, done):
        super().check(root, done)
        assert self.TAIL not in self.journal(root).path.read_bytes()


class StaleRotation(_SweepJournalOp):
    points = ("rename",)

    def setup(self, root):
        # same file name (digest[:24]), different sweep in the header
        with SweepJournal(root, DIGEST[:24] + "e" * 40) as j:
            j.append([("k1", _rec(1))])

    def run(self, root, done):
        assert self.journal(root).load() == {}

    def check(self, root, done):
        assert self.journal(root).load() == {}
        super().check(root, done)


class RequestJournalOps:
    points = ("open",) + APPEND * 4
    REQ, RESP = {"kind": "workload"}, {"status": "ok"}

    def steps(self):
        return [
            {"op": "accepted", "key": "k1", "request": self.REQ},
            {"op": "done", "key": "k1", "response": self.RESP, "indexed": True},
            {"op": "accepted", "key": "k2", "request": self.REQ},
        ]

    def setup(self, root):
        pass

    def run(self, root, done):
        j = RequestJournal(root)
        for step in self.steps():
            call = j.accepted if step["op"] == "accepted" else j.done
            try:
                call(step["key"], step.get("request", step.get("response")))
            except OSError:
                continue
            done.append(step)

    def check(self, root, done):
        extra = {"op": "accepted", "key": "k9", "request": self.REQ}
        _assert_journal(lambda: RequestJournal(root), self.steps(), done, extra)
        pending, completed = RequestJournal(root).load()
        assert set(pending) | set(completed) <= {"k1", "k2", "k9"}
        assert "k9" in pending


class SpoolUpload:
    points = PUT
    PAYLOAD = b"RPRT" + bytes(range(256))

    def setup(self, root):
        pass

    def run(self, root, done):
        try:
            RequestJournal(root).spool_upload("k1", self.PAYLOAD)
        except OSError:
            return  # reported to the caller, which rejects the upload
        done.append(True)

    def check(self, root, done):
        j = RequestJournal(root)
        path = j.upload_path("k1")
        assert path is None or path.read_bytes() == self.PAYLOAD
        if done:
            assert path is not None, "a returned spool lost its payload"
        j.load()  # the restart reaps a dead daemon's spool temp files
        assert not list(j.uploads.glob("*.tmp*"))


OPERATIONS = {
    "put-new": PutNew(),
    "put-overwrite": PutOverwrite(),
    "quarantine-on-get": QuarantineOnGet(),
    "doctor-purge": DoctorPurge(),
    "gc": Gc(),
    "quota-eviction": QuotaEviction(),
    "trace-put": TracePut(),
    "trace-entries": TraceEntries(),
    "journal-header": JournalHeader(),
    "journal-append": JournalAppend(),
    "journal-group": JournalGroup(),
    "journal-group-fresh": JournalGroupFresh(),
    "torn-tail-truncation": TornTailTruncation(),
    "stale-rotation": StaleRotation(),
    "request-journal": RequestJournalOps(),
    "spool-upload": SpoolUpload(),
}

#: every point the enumeration below visits; a new syscall changes it
TOTAL_POINTS = 86


def test_enumeration_covers_every_point():
    assert sum(len(op.points) for op in OPERATIONS.values()) == TOTAL_POINTS


def test_put_and_append_syscalls_are_pinned(fs, tmp_path):
    """``put`` is open/write/flush/fsync/rename and an append on an open
    journal is write/flush/fsync — no directory fsync or other extra —
    whether it carries one line or a group of them."""
    store = _cache(tmp_path / "cache")
    fs.arm()
    store.put("k", NEW)
    assert tuple(fs.points) == PUT
    j = SweepJournal(tmp_path / "journal", DIGEST)
    j.append([("k1", _rec(1))])
    fs.arm()
    j.append([("k2", _rec(2))])
    assert tuple(fs.points) == APPEND
    fs.arm()
    j.append([(f"k{i}", _rec(i)) for i in range(3, 8)])
    assert tuple(fs.points) == APPEND
    fs.disarm()
    assert list(j.load()) == [f"k{i}" for i in range(1, 8)]


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_uninterrupted_run_hits_the_pinned_points(fs, tmp_path, name):
    op = OPERATIONS[name]
    op.setup(tmp_path)
    fs.arm()
    done = []
    op.run(tmp_path, done)
    fs.disarm()
    assert tuple(fs.points) == op.points
    op.check(tmp_path, done)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_every_crash_point_recovers(fs, tmp_path, name, fault):
    op = OPERATIONS[name]
    for n, point in enumerate(op.points):
        if fault == "torn" and point != "write":
            continue
        root = tmp_path / str(n)
        op.setup(root)
        fs.arm(n, fault)
        done = []
        try:
            op.run(root, done)
        except _Crash:
            assert fault in ("crash", "torn")
        finally:
            fs.disarm()
        where = f"{fault} at point {n} ({point})"
        assert fs.points[n] == point, f"{where}: enumeration drifted: {fs.points}"
        try:
            op.check(root, done)
        except AssertionError as exc:
            raise AssertionError(f"{where}: {exc}") from exc
