"""TraceStore: content-addressed persistence of recorded executions.

The store follows the result cache's integrity discipline — framed
checksummed entries, atomic writes, corruption quarantined (never
raised) — and its key covers exactly what shapes the event stream:
program, scheduler, seed, instrumentation parameters, fault plan.  The
tool configuration is deliberately *excluded* so one recording serves
every preset of a sweep cell.
"""

import dataclasses
import json

import pytest

from repro.detectors import ToolConfig
from repro.harness.parallel import RunSpec
from repro.trace import Trace, TraceStore, key_for_spec, record_trace, trace_key
from repro.trace.store import TRACE_SCHEMA, _TRACE_HEADER

from tests.conftest import flag_handoff_program


@pytest.fixture
def trace():
    return record_trace(flag_handoff_program(), seed=3)


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "traces")


KEY = "k" * 64


class TestRoundTrip:
    def test_put_get(self, store, trace):
        store.put(KEY, trace)
        loaded = store.get(KEY)
        assert loaded == trace
        assert loaded.scheduler == trace.scheduler
        assert loaded.status == trace.status
        assert store.hits == 1 and store.writes == 1

    def test_round_tripped_trace_analyzes_identically(self, store, trace):
        from repro.trace import analyze_trace

        store.put(KEY, trace)
        cfg = ToolConfig.helgrind_lib_spin(7)
        assert (
            analyze_trace(store.get(KEY), cfg).report.fingerprint()
            == analyze_trace(trace, cfg).report.fingerprint()
        )

    def test_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.misses == 1

    def test_has_keys_len_clear(self, store, trace):
        assert not store.has(KEY)
        store.put(KEY, trace)
        assert store.has(KEY)
        assert store.keys() == [KEY]
        assert len(store) == 1
        store.clear()
        assert len(store) == 0

    def test_entries_reads_meta_only(self, store, trace):
        store.put(KEY, trace)
        [(key, stored, size)] = list(store.entries())
        assert key == KEY
        assert stored.program_name == trace.program_name
        assert stored.seed == trace.seed
        assert stored.scheduler == trace.scheduler
        assert len(stored.columns) == len(trace.events)
        assert stored.columns.decoded == 0  # no event decoded
        assert size > 0

    def test_get_and_open_stream_agree_on_every_metadata_field(self, store):
        trace = record_trace(flag_handoff_program(), seed=3, scheduler="round-robin")
        store.put(KEY, trace)
        got, streamed = store.get(KEY), store.open_stream(KEY)
        fields = [f.name for f in dataclasses.fields(Trace) if f.name != "columns"]
        assert len(fields) == 11
        for name in fields:
            assert getattr(streamed, name) == getattr(got, name) == getattr(trace, name), name
        assert len(streamed.columns) == len(got.columns) == len(trace.columns)


class TestCorruption:
    def test_flipped_byte_quarantines(self, store, trace):
        store.put(KEY, trace)
        path = store._path(KEY)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get(KEY) is None
        assert not path.exists()  # moved aside, not left in place
        assert store.quarantined[0].key == KEY
        note = json.loads(
            (store.corrupt_dir / f"{KEY}.note.json").read_text()
        )
        assert note["reason"] == "checksum-mismatch"

    def test_truncated_entry_quarantines(self, store, trace):
        store.put(KEY, trace)
        path = store._path(KEY)
        path.write_bytes(path.read_bytes()[:10])
        assert store.get(KEY) is None
        assert store.quarantined[0].reason == "truncated"

    def test_schema_mismatch_quarantines(self, store, trace):
        store.put(KEY, trace)
        path = store._path(KEY)
        data = bytearray(path.read_bytes())
        # rewrite the header with a future schema number
        data[: _TRACE_HEADER.size] = _TRACE_HEADER.pack(
            b"RPRT", 1, TRACE_SCHEMA + 1
        )
        path.write_bytes(bytes(data))
        assert store.get(KEY) is None
        assert store.quarantined[0].reason == f"schema-{TRACE_SCHEMA + 1}"

    def test_doctor_scans_and_purges(self, store, trace):
        store.put(KEY, trace)
        bad = "b" * 64
        store.put(bad, trace)
        path = store._path(bad)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        report = store.doctor()
        assert report.scanned == 2 and report.ok == 1
        assert [q.key for q in report.quarantined] == [bad]
        assert report.corrupt_entries == 1
        report2 = store.doctor(purge=True)
        assert report2.purged == 1
        assert not list(store.corrupt_dir.glob("*.trc"))


class TestGc:
    def test_keep_none_keeps_valid_purges_corrupt(self, store, trace):
        store.put(KEY, trace)
        store.corrupt_dir.mkdir(parents=True)
        (store.corrupt_dir / "x.trc").write_bytes(b"junk")
        stats = store.gc()
        assert stats == {"removed": 0, "purged": 1, "kept": 1}
        assert store.has(KEY)

    def test_keep_set_drops_the_rest(self, store, trace):
        store.put(KEY, trace)
        store.put("a" * 64, trace)
        stats = store.gc(keep=[KEY])
        assert stats["removed"] == 1 and stats["kept"] == 1
        assert store.keys() == [KEY]


class TestKeying:
    FP = "f" * 64

    def _key(self, **kw):
        args = dict(seed=1, max_steps=1000)
        args.update(kw)
        return trace_key(self.FP, **args)

    def test_stream_shaping_inputs_change_the_key(self):
        base = self._key()
        assert self._key(seed=2) != base
        assert self._key(scheduler="round-robin") != base
        assert self._key(max_steps=2000) != base
        assert self._key(max_blocks=16) != base
        assert self._key(inline_depth=0) != base
        assert self._key(livelock_bound=100) != base
        assert trace_key("e" * 64, seed=1, max_steps=1000) != base

    def test_scheduler_spec_is_canonicalized(self):
        assert self._key(scheduler="random") == self._key(scheduler=None)
        with pytest.raises(ValueError):
            self._key(scheduler="no-such-policy")

    def test_fault_plan_changes_the_key(self):
        from repro.vm.faults import FaultPlan, KillThread

        plan = FaultPlan(faults=(KillThread(at_step=10, tid=1),))
        assert self._key(fault_plan=plan) != self._key()

    def test_tool_config_is_excluded(self):
        """Every paper preset of a cell maps to one recording."""
        specs = [
            RunSpec(workload="streamcluster", config=name, seed=1)
            for name in ("helgrind-lib", "helgrind-lib-spin7", "drd", "eraser")
        ]
        keys = {key_for_spec(s) for s in specs}
        assert len(keys) == 1

    def test_scheduler_spec_enters_spec_key(self):
        live = RunSpec(workload="streamcluster", config="drd", seed=1)
        rr = RunSpec(
            workload="streamcluster", config="drd", seed=1, scheduler="round-robin"
        )
        assert key_for_spec(live) != key_for_spec(rr)


class TestConcurrentQuotaEviction:
    """Writers racing the collector under an eviction-forcing quota.

    Eviction unlinks files out from under concurrent ``gc``/``get``
    calls (and vice versa); the store's contract is that a vanished or
    half-visible entry is a miss, never an exception — mirroring the
    result cache's "corruption quarantined, races tolerated" posture.
    """

    def test_writers_race_gc_without_exceptions(self, tmp_path, trace):
        import threading

        root = tmp_path / "traces"
        # Size one entry, then pick a quota that holds ~3 of them so
        # every writer round forces LRU eviction of someone's entry.
        probe = TraceStore(root)
        probe.put(KEY, trace)
        entry_bytes = (root / f"{KEY}.trc").stat().st_size
        quota = 3 * entry_bytes + entry_bytes // 2

        errors = []
        stop = threading.Event()

        def writer(worker):
            store = TraceStore(root, quota_bytes=quota)
            try:
                for i in range(10):
                    key = f"{worker:02d}{i:02d}" + "e" * 60
                    store.put(key, trace)
                    got = store.get(key)
                    # Evicted-by-a-peer reads back as a miss, nothing else.
                    assert got is None or got == trace
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        def collector():
            store = TraceStore(root, quota_bytes=quota)
            try:
                while not stop.is_set():
                    stats = store.gc()
                    assert set(stats) == {"removed", "purged", "kept"}
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
        threads.append(threading.Thread(target=collector))
        for t in threads:
            t.start()
        for t in threads[:-1]:
            t.join()
        stop.set()
        threads[-1].join()

        assert errors == []
        # The survivors are intact and the store still honors its quota
        # once a final enforcement pass runs.
        survivor = TraceStore(root, quota_bytes=quota)
        for key in survivor.keys():
            got = survivor.get(key)
            assert got is None or got == trace
        survivor._enforce_quota()
        total = sum(p.stat().st_size for p in root.glob("*.trc"))
        assert total <= quota
