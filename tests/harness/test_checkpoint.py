"""Journaled checkpoints: durability, torn tails, resume equivalence."""

import dataclasses
import json

import pytest

from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_cases
from repro.harness.checkpoint import (
    CACHE_SCHEMA,
    JOURNAL_VERSION,
    SweepJournal,
    spec_key,
    sweep_digest,
)
from repro.harness.parallel import (
    ResultCache,
    RunRecord,
    RunSpec,
    run_sweep,
    sweep_specs,
)
from repro.harness.workload import Workload

from tests.conftest import flag_handoff_program


def _record(workload="wl", status="ok", seed=1, steps=10):
    return RunRecord(
        workload=workload, tool="Helgrind+ lib", seed=seed, status=status, steps=steps
    )


def _specs():
    return sweep_specs(["blackscholes", "bodytrack"], ["helgrind-lib"], [1, 2])


#: fields of a RunRecord that must survive kill+resume bit-identically
#: (everything except wall-clock timings and the attempt counter)
STABLE_FIELDS = (
    "workload",
    "tool",
    "seed",
    "status",
    "steps",
    "events",
    "detector_words",
    "spin_loops",
    "adhoc_edges",
    "racy_contexts",
    "faults",
)


def stable(rec: RunRecord) -> tuple:
    status = "ok" if rec.status == "cached" else rec.status
    return (status,) + tuple(
        getattr(rec, f) for f in STABLE_FIELDS if f != "status"
    )


#: per RunSpec field, a value that differs from the baseline spec's
KEY_VARIANTS = {
    "workload": lambda: "bodytrack",
    "config": lambda: "drd",
    "seed": lambda: 2,
    "max_steps": lambda: 1234,
    "fault_plan": lambda: next(c.plan for c in chaos_cases() if c.plan),
    "livelock_bound": lambda: 50,
    "scheduler": lambda: "round-robin",
    "trace_mode": lambda: "replay",
}


class TestKeysAndDigests:
    def test_spec_key_is_stable_and_content_sensitive(self):
        a = RunSpec("blackscholes", "helgrind-lib", 1)
        assert spec_key(a) == spec_key(a)
        assert spec_key(a) != spec_key(RunSpec("blackscholes", "helgrind-lib", 2))
        assert spec_key(a) != spec_key(RunSpec("bodytrack", "helgrind-lib", 1))

    @pytest.mark.parametrize("field", sorted(KEY_VARIANTS))
    def test_field_enters_the_key(self, field):
        base = RunSpec("blackscholes", "helgrind-lib", 1)
        variant = dataclasses.replace(base, **{field: KEY_VARIANTS[field]()})
        assert spec_key(variant) != spec_key(base)

    def test_every_runspec_field_is_keyed(self):
        # tripwire: a new RunSpec field needs a line in spec_key and a
        # KEY_VARIANTS entry, or two different runs would share a key
        assert set(KEY_VARIANTS) == {f.name for f in dataclasses.fields(RunSpec)}

    def test_sweep_digest_is_order_insensitive(self):
        keys = [spec_key(s) for s in _specs()]
        assert sweep_digest(keys) == sweep_digest(list(reversed(keys)))
        assert sweep_digest(keys) != sweep_digest(keys[:-1])


class TestJournal:
    def test_append_then_load_round_trips(self, tmp_path):
        j = SweepJournal(tmp_path, "d" * 64)
        j.append([("k1", _record(status="ok"))])
        j.append([("k2", _record(status="timeout", seed=2))])
        j.close()
        loaded = SweepJournal(tmp_path, "d" * 64).load()
        assert set(loaded) == {"k1", "k2"}
        assert loaded["k1"].status == "ok"
        assert loaded["k2"].status == "timeout" and loaded["k2"].seed == 2

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        j = SweepJournal(tmp_path, "d" * 64)
        j.append([("k1", _record())])
        j.append([("k2", _record(seed=2))])
        j.close()
        # simulate a crash mid-append: garbage half-line at the tail
        with open(j.path, "ab") as fh:
            fh.write(b'{"key": "k3", "rec')
        loaded = SweepJournal(tmp_path, "d" * 64).load()
        assert set(loaded) == {"k1", "k2"}
        # the torn bytes are gone; appending continues on a clean boundary
        j2 = SweepJournal(tmp_path, "d" * 64)
        j2.append([("k3", _record(seed=3))])
        j2.close()
        assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1", "k2", "k3"}

    def test_unterminated_valid_json_is_torn(self, tmp_path):
        # Valid JSON but the crash ate the newline: load must neither serve
        # the record nor keep it on disk, or resume would trust a record
        # the file no longer holds.
        j = SweepJournal(tmp_path, "d" * 64)
        j.append([("k1", _record())])
        j.close()
        entry = {"key": "k2", "record": dataclasses.asdict(_record(seed=2))}
        with open(j.path, "ab") as fh:
            fh.write(json.dumps(entry).encode())
        assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1"}
        assert b'"k2"' not in j.path.read_bytes()

    def test_unreadable_garbage_tail_line(self, tmp_path):
        j = SweepJournal(tmp_path, "d" * 64)
        j.append([("k1", _record())])
        j.close()
        with open(j.path, "ab") as fh:
            fh.write(b"\xff\xfe not json\n")
        assert set(SweepJournal(tmp_path, "d" * 64).load()) == {"k1"}

    def test_mismatched_header_rotates_stale(self, tmp_path):
        j = SweepJournal(tmp_path, "a" * 64)
        j.append([("k1", _record())])
        j.close()
        other = SweepJournal(tmp_path, "a" * 64)
        other.digest = "b" * 64  # same path, different sweep identity
        assert other.load() == {}
        assert j.path.with_suffix(".jsonl.stale").exists()
        assert not j.path.exists()

    def test_header_pins_version_and_schema(self, tmp_path):
        j = SweepJournal(tmp_path, "c" * 64)
        j.append([("k1", _record())])
        j.close()
        header = json.loads(j.path.read_text().splitlines()[0])
        assert header == {
            "journal": "repro-sweep",
            "version": JOURNAL_VERSION,
            "schema": CACHE_SCHEMA,
            "sweep": "c" * 64,
        }

    def test_record_round_trip_ignores_unknown_keys(self, tmp_path):
        j = SweepJournal(tmp_path, "e" * 64)
        j.append([("k1", _record())])
        j.close()
        # a future RunRecord field must not break older readers
        lines = j.path.read_text().splitlines()
        entry = json.loads(lines[1])
        entry["record"]["from_the_future"] = 42
        j.path.write_text("\n".join([lines[0], json.dumps(entry)]) + "\n")
        loaded = SweepJournal(tmp_path, "e" * 64).load()
        assert loaded["k1"].workload == "wl"


class TestResume:
    def test_fresh_run_then_full_resume(self, tmp_path):
        specs = _specs()
        r1 = run_sweep(specs, workers=0, journal_dir=tmp_path)
        assert r1.resumed == 0 and all(r.status == "ok" for r in r1.records)
        r2 = run_sweep(specs, workers=0, journal_dir=tmp_path, resume=True)
        assert r2.resumed == len(specs)
        assert [stable(a) for a in r1.records] == [stable(b) for b in r2.records]
        # resumed records are served verbatim, timing fields included
        assert [a.duration_s for a in r1.records] == [b.duration_s for b in r2.records]

    def test_partial_journal_reruns_only_the_tail(self, tmp_path):
        specs = _specs()
        baseline = run_sweep(specs, workers=0, journal_dir=tmp_path)
        # simulate a SIGKILL after two completions: keep header + 2 entries
        journal = SweepJournal(tmp_path, sweep_digest([spec_key(s) for s in specs]))
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_sweep(specs, workers=0, journal_dir=tmp_path, resume=True)
        assert resumed.resumed == 2
        assert [stable(a) for a in baseline.records] == [
            stable(b) for b in resumed.records
        ]
        # and the journal is whole again for the next resume
        assert run_sweep(
            specs, workers=0, journal_dir=tmp_path, resume=True
        ).resumed == len(specs)

    def test_resume_serves_cached_outcomes(self, tmp_path):
        specs = _specs()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(specs, workers=0, cache=cache, journal_dir=tmp_path / "j")
        r = run_sweep(
            specs, workers=0, cache=cache, journal_dir=tmp_path / "j", resume=True
        )
        assert r.resumed == len(specs)
        assert all(o is not None for o in r.outcomes)

    def test_without_resume_journal_is_rewritten(self, tmp_path):
        specs = _specs()
        run_sweep(specs, workers=0, journal_dir=tmp_path)
        r = run_sweep(specs, workers=0, journal_dir=tmp_path, resume=False)
        assert r.resumed == 0
        assert r.summary().executed == len(specs)

    def test_resume_without_journal_dir_raises(self):
        with pytest.raises(ValueError):
            run_sweep(_specs(), workers=0, resume=True)

    def test_parallel_resume_matches_serial_baseline(self, tmp_path):
        specs = _specs()
        baseline = run_sweep(specs, workers=0)
        run_sweep(specs, workers=2, journal_dir=tmp_path)
        resumed = run_sweep(specs, workers=2, journal_dir=tmp_path, resume=True)
        assert resumed.resumed == len(specs)
        assert [stable(a) for a in baseline.records] == [
            stable(b) for b in resumed.records
        ]


class TestInterrupt:
    def test_serial_keyboard_interrupt_keeps_partial_results(self, tmp_path):
        calls = {"n": 0}

        def flaky_build():
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return flag_handoff_program()

        wl_ok = Workload(name="ckpt_ok", build=flag_handoff_program, seed=1)
        wl_int = Workload(name="ckpt_interrupt", build=flaky_build, seed=1)
        specs = [
            RunSpec(wl_ok, ToolConfig.helgrind_lib(), 1),
            RunSpec(wl_int, ToolConfig.helgrind_lib(), 1),
            RunSpec(wl_ok, ToolConfig.helgrind_lib(), 2),
        ]
        # flaky_build is called once for key computation, once for the run
        result = run_sweep(
            specs, workers=0, journal_dir=tmp_path, strict=True
        )
        assert result.interrupted
        assert len(result.records) == 1 and result.records[0].status == "ok"
        # ... and the finished record was durably journaled
        files = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(files) == 1
        lines = files[0].read_text().splitlines()
        assert len(lines) == 2  # header + the one completed record
