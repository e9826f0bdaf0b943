"""Resource-governed sweeps: budgets degrade structurally, never crash.

Covers the governance ladder end to end — wall-budget stop, over-RSS
preemption with a degraded retry, second-preemption poison
quarantine — plus the disk side (LRU quota eviction, transient-I/O
retry, ENOSPC cache-off degradation) and the maintenance races (gc /
doctor / quarantine vs concurrent writers) that used to be crashes.

The RSS tests drive real forked workers over the ballast knob
(``REPRO_RSS_BALLAST_MB``), so memory pressure is deterministic: a
plain value inflates only non-degraded attempts (preempt → degraded
retry succeeds), the ``!`` form inflates degraded attempts too
(preempt → preempt → poison).
"""

import errno
import os
import pathlib

import pytest

from repro.harness.parallel import ResultCache, run_sweep, sweep_specs
from repro.harness.resources import (
    BALLAST_ENV,
    ResourceBudget,
    current_rss_bytes,
)
from repro.trace import TraceStore, record_trace

from tests.conftest import flag_handoff_program

WORKLOAD = "locks_mutex_counter_t4"
TOOL = "helgrind-lib-spin7"

#: governed sweeps need heartbeats (RSS samples) and an explicit
#: hung-after bound — replay/streaming workers never advance the step
#: counter, so default hung detection would misread startup time
GOV = dict(heartbeat_s=0.02, hung_after_s=10, timeout_s=120)


def _specs(n=1):
    return sweep_specs([WORKLOAD] * n, [TOOL], seeds=[1])


def _trace():
    return record_trace(flag_handoff_program(), seed=2)


class TestWallBudget:
    def test_exhausted_wall_budget_drains_structurally(self, tmp_path):
        result = run_sweep(
            _specs(3),
            workers=1,
            trace_dir=tmp_path,
            budget=ResourceBudget(wall_budget_s=0.0),
            **GOV,
        )
        assert [r.status for r in result.records] == ["wall-budget"] * 3
        assert not any(r.failed for r in result.records)
        assert result.summary().wall_budget_stopped == 3

    def test_generous_wall_budget_changes_nothing(self, tmp_path):
        result = run_sweep(
            _specs(1),
            workers=1,
            trace_dir=tmp_path,
            budget=ResourceBudget(wall_budget_s=3600.0),
            **GOV,
        )
        assert [r.status for r in result.records] == ["ok"]
        assert result.summary().wall_budget_stopped == 0


class TestRssPreemption:
    def test_over_budget_worker_degrades_and_matches_ungoverned(
        self, tmp_path, monkeypatch
    ):
        specs = _specs(1)
        baseline = run_sweep(specs, workers=0)
        monkeypatch.setenv(BALLAST_ENV, "120")
        cap = current_rss_bytes() + (60 << 20)
        governed = run_sweep(
            specs,
            workers=1,
            trace_dir=tmp_path,
            budget=ResourceBudget(max_rss_bytes=cap),
            **GOV,
        )
        rec = governed.records[0]
        assert rec.status == "ok"
        assert rec.degraded
        assert rec.oom_preempts == 1
        assert rec.peak_rss > cap
        assert not rec.failed
        summary = governed.summary()
        assert summary.oom_preempted == 1
        assert summary.degraded == 1
        # a degraded retry must be invisible in the verdict
        assert (
            governed.outcomes[0].report.fingerprint()
            == baseline.outcomes[0].report.fingerprint()
        )

    def test_unsalvageable_worker_is_poisoned_not_crashed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(BALLAST_ENV, "120!")
        cap = current_rss_bytes() + (60 << 20)
        governed = run_sweep(
            _specs(1),
            workers=1,
            trace_dir=tmp_path,
            budget=ResourceBudget(max_rss_bytes=cap),
            **GOV,
        )
        rec = governed.records[0]
        assert rec.status == "poison"
        assert not rec.failed  # skipped, not failed
        assert rec.oom_preempts == 2
        assert "oom-preempted" in rec.error
        assert governed.summary().oom_preempted == 2

    def test_roomy_budget_never_preempts(self, tmp_path):
        governed = run_sweep(
            _specs(1),
            workers=1,
            trace_dir=tmp_path,
            budget=ResourceBudget(max_rss_bytes=current_rss_bytes() + (1 << 30)),
            **GOV,
        )
        rec = governed.records[0]
        assert rec.status == "ok"
        assert not rec.degraded
        assert rec.oom_preempts == 0
        assert rec.peak_rss > 0  # heartbeats sampled something real


class TestCacheQuota:
    def _fill(self, cache, n, size=1000):
        t = 1_000_000_000
        for i in range(n):
            cache.put(f"k{i}", "x" * size)
            os.utime(cache._path(f"k{i}"), (t + i, t + i))

    def test_lru_eviction_on_put(self, tmp_path):
        cache = ResultCache(tmp_path, quota_bytes=2500)
        self._fill(cache, 2)
        cache.put("k2", "x" * 1000)  # pushes past quota → evict oldest
        assert cache.get("k0") is None
        assert cache.get("k1") == "x" * 1000
        assert cache.get("k2") == "x" * 1000
        assert cache.evictions == 1

    def test_freshly_written_key_is_protected(self, tmp_path):
        # A quota smaller than one entry keeps the latest entry, never
        # evicting what the caller is about to read back.
        cache = ResultCache(tmp_path, quota_bytes=10)
        cache.put("only", "x" * 1000)
        assert cache.get("only") == "x" * 1000

    def test_sweep_budget_applies_quota_to_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.quota_bytes is None
        run_sweep(
            _specs(1),
            workers=0,
            cache=cache,
            budget=ResourceBudget(disk_quota_bytes=1 << 30),
        )
        assert cache.quota_bytes == 1 << 30


class TestTraceStoreQuota:
    def test_lru_eviction_on_put(self, tmp_path):
        trace = _trace()
        probe = TraceStore(tmp_path / "probe")
        probe.put("x", trace)
        entry_size = probe.total_bytes()
        store = TraceStore(tmp_path / "store", quota_bytes=int(entry_size * 2.5))
        t = 1_000_000_000
        for i in range(2):
            store.put(f"k{i}", trace)
            os.utime(store._path(f"k{i}"), (t + i, t + i))
        store.put("k2", trace)
        assert store.keys() == ["k1", "k2"]
        assert store.evictions == 1
        assert store.get("k1") is not None


class TestIoDegradation:
    def _enospc(self, *_a, **_k):
        raise OSError(errno.ENOSPC, "disk full")

    def test_transient_errors_retry_then_succeed(self, tmp_path):
        cache = ResultCache(tmp_path, io_backoff_s=0.0)
        orig = cache._atomic_write
        calls = []

        def flaky(tmp, path, data):
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EAGAIN, "try again")
            return orig(tmp, path, data)

        cache._atomic_write = flaky
        cache.put("k", "payload")
        assert len(calls) == 3
        assert not cache.disabled
        assert cache.get("k") == "payload"

    def test_enospc_frees_space_then_succeeds(self, tmp_path):
        cache = ResultCache(tmp_path, io_backoff_s=0.0)
        orig = cache._atomic_write
        calls = []

        def full_once(tmp, path, data):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "disk full")
            return orig(tmp, path, data)

        cache._atomic_write = full_once
        cache.put("k", "payload")
        assert not cache.disabled
        assert cache.get("k") == "payload"

    def test_persistent_enospc_turns_cache_off_with_note(self, tmp_path):
        cache = ResultCache(tmp_path, io_backoff_s=0.0)
        cache._atomic_write = self._enospc
        cache.put("k", "payload")  # must not raise
        assert cache.disabled
        assert any("cache-off" in n for n in cache.notes)
        assert cache.get("k") is None  # reads keep working (as misses)
        cache.put("k2", "payload")  # further puts are silent no-ops

    def test_persistent_enospc_turns_trace_store_off_with_note(self, tmp_path):
        store = TraceStore(tmp_path, io_backoff_s=0.0)
        store._atomic_write = self._enospc
        store.put("k", _trace())  # must not raise
        assert store.disabled
        assert any("store-off" in n for n in store.notes)
        store.put("k2", _trace())  # silent no-op

    def test_sweep_completes_and_surfaces_cache_off_note(self, tmp_path):
        cache = ResultCache(tmp_path, io_backoff_s=0.0)
        cache._atomic_write = self._enospc
        result = run_sweep(_specs(2), workers=0, cache=cache)
        assert not any(r.failed for r in result.records)
        assert [r.status for r in result.records] == ["ok", "ok"]
        assert any("cache-off" in n for n in result.notes)


class TestMaintenanceRaces:
    """gc / doctor / quarantine vs a concurrent writer or gc.

    Each test simulates losing the race deterministically: the file
    vanishes between the maintenance pass's directory listing and its
    per-entry syscall.  The pass must skip the entry — no exception,
    no phantom counts.
    """

    def test_doctor_tolerates_entries_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        store = TraceStore(tmp_path)
        trace = _trace()
        store.put("gone", trace)
        store.put("stays", trace)
        victim = store._path("gone")
        orig = pathlib.Path.read_bytes

        def racy(self):
            if self.name == victim.name and self.exists():
                os.unlink(self)  # the concurrent gc wins the race
            return orig(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", racy)
        report = store.doctor()
        assert report.ok == 1
        assert report.scanned == 1  # the vanished entry is not "scanned"
        assert not report.quarantined

    def test_cache_doctor_tolerates_entries_vanishing_mid_scan(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("gone", "a")
        cache.put("stays", "b")
        victim = cache._path("gone")
        orig = pathlib.Path.read_bytes

        def racy(self):
            if self.name == victim.name and self.exists():
                os.unlink(self)
            return orig(self)

        monkeypatch.setattr(pathlib.Path, "read_bytes", racy)
        report = cache.doctor()
        assert report.ok == 1
        assert report.scanned == 1
        assert not report.quarantined

    def test_gc_tolerates_concurrent_deletion(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        trace = _trace()
        store.put("doomed", trace)
        store.put("kept", trace)
        victim = store._path("doomed")
        orig = pathlib.Path.unlink

        def racy(self, missing_ok=False):
            if self.name == victim.name and self.exists():
                orig(self)  # the concurrent gc got there first
                raise FileNotFoundError(errno.ENOENT, "raced away", str(self))
            return orig(self, missing_ok=missing_ok)

        monkeypatch.setattr(pathlib.Path, "unlink", racy)
        stats = store.gc(keep=["kept"])
        # the raced-away entry is not *our* removal
        assert stats == {"removed": 0, "purged": 0, "kept": 1}
        assert store.keys() == ["kept"]

    def test_quarantine_tolerates_entry_vanishing(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path)
        store.put("bad", _trace())
        path = store._path("bad")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # payload bit-flip: framing intact, checksum wrong
        path.write_bytes(bytes(blob))

        def raced(src, dst):
            raise FileNotFoundError(errno.ENOENT, "raced away", str(src))

        monkeypatch.setattr(os, "replace", raced)
        assert store.get("bad") is None  # structured miss, no crash
        assert store.quarantined == []  # nothing was actually quarantined
        assert store.misses == 1


class TestDeadWriterDebris:
    """A writer killed between its temp write and its rename leaves
    ``<key>.tmp.<pid>``; once that pid is dead, doctor(purge), gc and the
    ENOSPC reclaim pass delete it — a live writer's temp file stays."""

    DEAD = 2**22 + 1  # above Linux's PID_MAX_LIMIT: never a live process

    def _debris(self, root):
        dead = root / f"gone.tmp.{self.DEAD}"
        live = root / f"busy.tmp.{os.getpid()}"
        dead.write_bytes(b"half a put")
        live.write_bytes(b"a put in progress")
        return dead, live

    def test_cache_doctor_purge_reaps_dead_writers(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k", "payload")
        dead, live = self._debris(tmp_path)
        cache.doctor()
        assert dead.exists()  # only purge deletes
        cache.doctor(purge=True)
        assert not dead.exists() and live.exists()
        assert cache.get("k") == "payload"

    def test_trace_store_gc_reaps_dead_writers(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("k", _trace())
        dead, live = self._debris(tmp_path)
        assert store.gc() == {"removed": 0, "purged": 0, "kept": 1}
        assert not dead.exists() and live.exists()

    def test_enospc_reclaim_reaps_dead_writers(self, tmp_path):
        cache = ResultCache(tmp_path, io_backoff_s=0.0)
        dead, live = self._debris(tmp_path)
        orig = cache._atomic_write
        calls = []

        def full_once(tmp, path, data):
            calls.append(1)
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, "disk full")
            return orig(tmp, path, data)

        cache._atomic_write = full_once
        cache.put("k", "payload")
        assert not dead.exists() and live.exists()
        assert cache.get("k") == "payload"
