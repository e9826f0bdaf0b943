"""The parallel sweep engine: equivalence, cache, robustness, registry."""

import errno
import json
import os
import pickle
import signal
import threading
import time

import pytest

from repro.detectors import ToolConfig
from repro.harness.parallel import (
    ResultCache,
    RunSpec,
    SweepError,
    WorkerPool,
    _Committer,
    _Job,
    _Worker,
    _record_from_outcome,
    _run_spec,
    _sigterm_as_interrupt,
    run_sweep,
    sweep_specs,
    summarize_records,
)
from repro.harness.checkpoint import SweepJournal, spec_key, sweep_digest
from repro.harness.registry import (
    RegistryBuild,
    register_workload,
    resolve_workload,
    unregister_workload,
)
from repro.harness.workload import Workload
from repro.isa import ProgramBuilder
from repro.runtime import build_library
from repro.session import run

from tests.conftest import flag_handoff_program


def _handoff(name="par_handoff", seed=1):
    return Workload(name=name, build=flag_handoff_program, seed=seed)


def _spin_forever_program():
    """A program that busy-waits on a flag nobody ever sets."""
    pb = ProgramBuilder("spin_forever")
    pb.global_("FLAG", 1)
    mn = pb.function("main")
    f = mn.addr("FLAG")
    mn.jmp("spin")
    mn.label("spin")
    v = mn.load(f)
    z = mn.eq(v, 0)
    mn.br(z, "spin2", "after")
    mn.label("spin2")
    mn.jmp("spin")
    mn.label("after")
    mn.halt()
    pb.link(build_library())
    return pb.build()


def _crashing_build():
    raise RuntimeError("boom: generator bug")


def _report_key(report):
    """Canonical report identity (set iteration order is not part of it)."""
    return (
        report.tool,
        sorted(map(str, report.warnings)),
        report.contexts,
        report.raw_count,
    )


class TestRegistry:
    def test_resolves_builtin_families(self):
        assert resolve_workload("vips").name == "vips"
        assert resolve_workload("fft").name == "fft"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            resolve_workload("no-such-workload")

    def test_register_and_shadow(self):
        wl = _handoff(name="registry_extra")
        register_workload(wl)
        try:
            assert resolve_workload("registry_extra") is wl
            with pytest.raises(ValueError):
                register_workload(wl)
        finally:
            unregister_workload("registry_extra")

    def test_registry_build_pickles(self):
        build = RegistryBuild("vips")
        clone = pickle.loads(pickle.dumps(build))
        assert clone.name == "vips"
        assert clone().fingerprint() == resolve_workload("vips").fresh_program().fingerprint()


class TestPicklableOutcome:
    LIVE = ("program", "machine", "detector", "instrumentation", "trace")

    def test_outcome_roundtrip_with_closure_build(self):
        out = run(_handoff(), ToolConfig.helgrind_lib_spin(7))
        clone = pickle.loads(pickle.dumps(out))
        assert clone.workload.name == out.workload.name
        assert _report_key(clone.report) == _report_key(out.report)
        assert (clone.steps, clone.events, clone.seed) == (out.steps, out.events, out.seed)

    @pytest.mark.parametrize("mode", ["live", "replay"])
    def test_pickle_drops_live_objects_and_keeps_the_record(self, mode, tmp_path):
        spec = RunSpec("blackscholes", "helgrind-lib-spin7", trace_mode=mode)
        out = _run_spec(spec, trace_dir=tmp_path)
        record = _record_from_outcome(spec, out, attempts=1, cached=False)
        clone = pickle.loads(pickle.dumps(out))
        assert all(getattr(clone, name) is None for name in self.LIVE)
        assert isinstance(clone.workload.build, RegistryBuild)
        assert clone.workload.fresh_program().fingerprint() == spec.program().fingerprint()
        assert _record_from_outcome(spec, clone, attempts=1, cached=False) == record
        assert clone.result.status == out.result.status

    def test_serial_sweep_keeps_outcomes_detached(self):
        # as a pool's outcomes arrive, pickled: a sweep that held every
        # cell's machine and detector would grow with its length
        result = run_sweep([RunSpec("blackscholes", "drd")], workers=0)
        (out,) = result.outcomes
        assert all(getattr(out, name) is None for name in self.LIVE)
        assert out.events == result.records[0].events > 0


class TestCacheKey:
    def test_key_is_stable(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(workload="blackscholes", config=ToolConfig.helgrind_lib(), seed=1)
        assert cache.key(spec) == cache.key(spec)

    def test_key_varies_with_config_seed_and_program(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = RunSpec(workload="blackscholes", config=ToolConfig.helgrind_lib(), seed=1)
        keys = {
            cache.key(base),
            cache.key(RunSpec("blackscholes", ToolConfig.helgrind_lib_spin(7), 1)),
            cache.key(RunSpec("blackscholes", ToolConfig.helgrind_lib(), 2)),
            cache.key(RunSpec("swaptions", ToolConfig.helgrind_lib(), 1)),
        }
        assert len(keys) == 4

    def test_same_program_different_name_shares_key_material(self, tmp_path):
        # Content addressing: the key hashes the built program, so two
        # workload wrappers around the same generator agree.
        cache = ResultCache(tmp_path)
        a = RunSpec(_handoff(name="wrap_a"), ToolConfig.helgrind_lib(), 1)
        b = RunSpec(_handoff(name="wrap_b"), ToolConfig.helgrind_lib(), 1)
        assert cache.key(a) == cache.key(b)


class TestSweep:
    CONFIGS = (ToolConfig.helgrind_lib(), ToolConfig.helgrind_lib_spin(7))
    NAMES = ("blackscholes", "bodytrack", "par_eq_handoff")

    def _specs(self):
        register_workload(_handoff(name="par_eq_handoff"), replace=True)
        return sweep_specs(self.NAMES, self.CONFIGS, [1, 2])

    def test_parallel_matches_serial_bit_for_bit(self):
        specs = self._specs()
        assert len(specs) >= 8
        serial = run_sweep(specs, workers=0)
        parallel = run_sweep(specs, workers=2)
        assert all(o is not None for o in parallel.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert _report_key(a.report) == _report_key(b.report)
            assert (a.steps, a.events, a.detector_words, a.seed) == (
                b.steps,
                b.events,
                b.detector_words,
                b.seed,
            )
            assert a.result.final_memory == b.result.final_memory

    def test_second_cached_invocation_executes_zero_runs(self, tmp_path):
        specs = self._specs()
        cache = ResultCache(tmp_path)
        first = run_sweep(specs, workers=2, cache=cache).summary()
        assert first.executed == len(specs) and first.cached == 0
        second = run_sweep(specs, workers=2, cache=cache).summary()
        assert second.executed == 0 and second.cached == len(specs)
        # ... and cached outcomes still score identically
        uncached = run_sweep(specs, workers=0)
        cached = run_sweep(specs, workers=0, cache=cache)
        for a, b in zip(uncached.outcomes, cached.outcomes):
            assert _report_key(a.report) == _report_key(b.report)

    def test_serial_path_also_writes_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1)]
        run_sweep(specs, workers=0, cache=cache)
        assert len(cache) == 1
        summary = run_sweep(specs, workers=0, cache=cache).summary()
        assert summary.cached == 1 and summary.executed == 0

    def test_records_carry_observability(self):
        specs = [RunSpec(_handoff(), ToolConfig.helgrind_lib_spin(7), 1)]
        result = run_sweep(specs, workers=0)
        (rec,) = result.records
        assert rec.status == "ok"
        assert rec.steps > 0 and rec.events > 0
        assert rec.steps_per_s > 0 and rec.events_per_s > 0
        assert rec.spin_loops >= 1 and rec.adhoc_edges >= 1
        summary = result.summary()
        assert summary.executed == 1 and summary.steps == rec.steps
        assert summary.steps_per_s > 0


class TestPooledSweepMatchesSerial:
    """A pooled sweep of every spec kind, failures interleaved, equals the
    in-process reference on every spec that does not fail."""

    def _specs(self):
        import random

        from repro.harness.chaos import chaos_spec
        from repro.workloads import build_suite
        from repro.workloads.dr_test.faults import chaos_cases

        names = [wl.name for wl in build_suite()[:9]]
        good = [
            RunSpec(name, cfg)
            for name in names[:6]
            for cfg in ("helgrind-lib", "helgrind-nolib-spin7")
        ]
        cases = chaos_cases()
        good += [
            chaos_spec(cases[i], ToolConfig.preset("helgrind-lib-spin7"))
            for i in (0, 1, 4, 5)  # livelock, ok, livelock, fault
        ]
        good += [
            RunSpec(name, cfg, trace_mode="replay")
            for name in names[6:]
            for cfg in ("drd", "helgrind-lib-spin7")
        ]
        random.Random(18).shuffle(good)

        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:  # spare the parent's prewarm pass
                os._exit(23)
            return flag_handoff_program()

        cfg = ToolConfig.helgrind_lib()
        raising = RunSpec(Workload("eq_raise", _crashing_build, seed=1), cfg, 1)
        exiting = RunSpec(Workload("eq_exit", exit_build, seed=1), cfg, 1)
        hanging = RunSpec(
            Workload("eq_hang", _spin_forever_program, seed=1, max_steps=500_000_000),
            cfg,
            1,
        )
        specs = (
            good[:2] + [raising] + good[2:9] + [exiting] + good[9:15]
            + [hanging] + good[15:]
        )
        return good, specs, {"eq_raise": "error", "eq_exit": "crash",
                             "eq_hang": "timeout"}

    def test_mixed_sweep_with_failures_matches_serial(self, tmp_path):
        good, specs, failing = self._specs()
        assert len(specs) >= 24
        serial = run_sweep(good, workers=0, trace_dir=tmp_path / "serial")
        pooled = run_sweep(
            specs,
            workers=2,
            timeout_s=4.0,
            retries=0,
            trace_dir=tmp_path / "pooled",
        )
        want = {
            id(spec): (rec, out)
            for spec, rec, out in zip(good, serial.records, serial.outcomes)
        }
        assert len(pooled.records) == len(specs)
        for spec, rec, out in zip(specs, pooled.records, pooled.outcomes):
            if spec.workload_name in failing:
                assert rec.status == failing[spec.workload_name], rec
                assert out is None
                continue
            ref_rec, ref_out = want[id(spec)]
            assert rec.status == ref_rec.status, spec
            assert out.report.fingerprint() == ref_out.report.fingerprint()
            assert (out.steps, out.events) == (ref_out.steps, ref_out.events)
            assert out.result.final_memory == ref_out.result.final_memory


class TestLongLivedWorkers:
    """Workers are forked once per pool slot and replaced only on failure."""

    CFG = ToolConfig.helgrind_lib()

    @pytest.fixture
    def starts(self, monkeypatch):
        from repro.harness.parallel import _mp_context

        process = _mp_context().Process
        started = []
        original = process.start

        def start(proc):
            started.append(proc)
            original(proc)

        monkeypatch.setattr(process, "start", start)
        return started

    def _suite_specs(self):
        from repro.workloads import build_suite

        names = [wl.name for wl in build_suite()[:10]]
        return sweep_specs(
            names,
            ["helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7", "drd"],
        )

    def test_sweep_forks_once_per_pool_slot(self, starts):
        specs = self._suite_specs()
        assert len(specs) == 40
        result = run_sweep(specs, workers=2)
        assert [r.status for r in result.records] == ["ok"] * 40
        assert len(starts) == 2

    def test_a_crash_forks_exactly_one_replacement(self, starts):
        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:  # spare the parent's prewarm pass
                os._exit(23)
            return flag_handoff_program()

        specs = self._suite_specs()
        specs.insert(20, RunSpec(Workload("lw_exit", exit_build, seed=1), self.CFG, 1))
        result = run_sweep(specs, workers=2, retries=0)
        assert [r.status for r in result.records].count("crash") == 1
        assert sum(r.status == "ok" for r in result.records) == 40
        assert len(starts) == 3

    def test_the_spec_after_an_error_runs_in_a_new_worker(self, tmp_path, starts):
        log_path = tmp_path / "pids"

        def logging_build(tag, fail=False):
            def build():
                with open(log_path, "a") as fh:
                    fh.write(f"{tag} {os.getpid()}\n")
                if fail:
                    raise RuntimeError("boom")
                return flag_handoff_program()

            return Workload(f"lw_{tag}", build, seed=1)

        specs = [
            RunSpec(logging_build("before"), self.CFG, 1),
            RunSpec(logging_build("raise", fail=True), self.CFG, 1),
            RunSpec(logging_build("after"), self.CFG, 1),
        ]
        result = run_sweep(specs, workers=1, retries=0)
        assert [r.status for r in result.records] == ["ok", "error", "ok"]
        pids = {}
        for line in log_path.read_text().splitlines():
            tag, pid = line.split()
            if int(pid) != os.getpid():  # skip the parent's prewarm builds
                pids[tag] = int(pid)
        assert pids["before"] == pids["raise"] != pids["after"]
        assert len(starts) == 2

    def test_progress_counter_restarts_for_each_unit(self, starts):
        """Each unit runs longer than the hang window while its step
        count stays below the previous unit's final one: a counter
        carried over from that unit would read as no progress."""
        wl = Workload("lw_spin", _spin_forever_program, seed=1, max_steps=400_000)
        result = run_sweep(
            [RunSpec(wl, self.CFG, 1)] * 3,
            workers=1,
            retries=0,
            heartbeat_s=0.02,
            hung_after_s=0.3,
        )
        assert [r.status for r in result.records] == ["step-limit"] * 3
        assert len(starts) == 1

    def test_wall_budget_counts_trace_prewarm(self, tmp_path):
        """Recording the sweep's traces takes longer than the budget, so
        no cell may be dispatched at all."""
        from repro.harness.resources import ResourceBudget

        def slow_build():
            time.sleep(0.3)
            return flag_handoff_program()

        wl = Workload("lw_slow_record", slow_build, seed=1)
        specs = [
            RunSpec(wl, cfg, 1, trace_mode="replay")
            for cfg in ("helgrind-lib", "helgrind-lib-spin7", "drd")
        ]
        result = run_sweep(
            specs,
            workers=2,
            trace_dir=tmp_path,
            budget=ResourceBudget(wall_budget_s=0.2),
        )
        assert [r.status for r in result.records] == ["wall-budget"] * 3
        assert result.summary().wall_budget_stopped == 3


class TestRobustness:
    def test_timeout_kills_and_records_failure(self):
        hang = Workload(
            name="par_hang",
            build=_spin_forever_program,
            seed=1,
            max_steps=500_000_000,
        )
        specs = [
            RunSpec(hang, ToolConfig.helgrind_lib(), 1),
            RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1),
        ]
        result = run_sweep(specs, workers=2, timeout_s=0.3, retries=0)
        hang_rec = next(r for r in result.records if r.workload == "par_hang")
        ok_rec = next(r for r in result.records if r.workload != "par_hang")
        assert hang_rec.status == "timeout"
        assert result.outcomes[0] is None
        # one diverging workload must not take the sweep down
        assert ok_rec.status == "ok" and result.outcomes[1] is not None

    def test_timeout_retries_are_bounded(self):
        hang = Workload(
            name="par_hang2",
            build=_spin_forever_program,
            seed=1,
            max_steps=500_000_000,
        )
        result = run_sweep(
            [RunSpec(hang, ToolConfig.helgrind_lib(), 1)],
            workers=1,
            timeout_s=0.2,
            retries=2,
        )
        (rec,) = result.records
        assert rec.status == "timeout" and rec.attempts == 3

    def test_worker_error_is_isolated(self):
        bad = Workload(name="par_crash", build=_crashing_build, seed=1)
        specs = [
            RunSpec(bad, ToolConfig.helgrind_lib(), 1),
            RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1),
        ]
        result = run_sweep(specs, workers=2, retries=0)
        bad_rec = next(r for r in result.records if r.workload == "par_crash")
        assert bad_rec.status == "error"
        assert "boom" in bad_rec.error
        assert result.outcomes[1] is not None

    def test_strict_sweep_raises(self):
        bad = Workload(name="par_crash2", build=_crashing_build, seed=1)
        with pytest.raises(SweepError):
            run_sweep(
                [RunSpec(bad, ToolConfig.helgrind_lib(), 1)],
                workers=1,
                retries=0,
                strict=True,
            )


class TestSigtermHandling:
    """A supervisor's SIGTERM gets the same graceful teardown as Ctrl-C."""

    def test_sigterm_raises_keyboard_interrupt_and_restores_handler(self):
        prev = signal.getsignal(signal.SIGTERM)
        with pytest.raises(KeyboardInterrupt, match="SIGTERM"):
            with _sigterm_as_interrupt():
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5.0)  # the pending signal interrupts the sleep
        assert signal.getsignal(signal.SIGTERM) is prev

    def test_noop_off_the_main_thread(self):
        # Signal handlers can only be installed from the main thread;
        # elsewhere the context must be inert, not crash.
        prev = signal.getsignal(signal.SIGTERM)
        seen = {}

        def body():
            with _sigterm_as_interrupt():
                seen["handler"] = signal.getsignal(signal.SIGTERM)

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert seen["handler"] is prev

    def test_sigterm_mid_sweep_returns_journaled_partial_result(self, tmp_path):
        # A stray late SIGTERM (sweep somehow done first) must not kill
        # pytest with the default action.
        outer = signal.signal(signal.SIGTERM, lambda *_a: None)
        hang = Workload(
            name="par_term_hang",
            build=_spin_forever_program,
            seed=1,
            max_steps=500_000_000,
        )
        specs = [
            RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1),
            RunSpec(hang, ToolConfig.helgrind_lib(), 1),
        ]
        timer = threading.Timer(2.0, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            result = run_sweep(
                specs, workers=2, journal_dir=tmp_path, timeout_s=120.0
            )
        finally:
            timer.cancel()
            signal.signal(signal.SIGTERM, outer)
        assert result.interrupted is True
        done = [r for r in result.records if r.workload != "par_term_hang"]
        assert [r.status for r in done] == ["ok"]
        # The finished record reached the fsynced journal before return.
        entries = []
        for path in tmp_path.glob("sweep-*.jsonl"):
            entries += path.read_text().splitlines()[1:]
        assert len(entries) == len(done)


class TestCacheIntegrity:
    def _prime(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1)
        run_sweep([spec], workers=0, cache=cache)
        key = cache.key(spec)
        assert cache.get(key) is not None
        return cache, key

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        cache, key = self._prime(tmp_path)
        assert not list(tmp_path.glob("*.tmp*"))
        assert cache._path(key).exists()

    def test_truncated_entry_quarantined_not_crash(self, tmp_path):
        cache, key = self._prime(tmp_path)
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:40])
        assert cache.get(key) is None  # a miss, never a raise
        assert not path.exists()
        (q,) = [e for e in cache.quarantined if e.key == key]
        assert q.reason in ("truncated", "checksum-mismatch")
        note = json.loads(
            (cache.corrupt_dir / f"{key}.note.json").read_text()
        )
        assert note["key"] == key and note["reason"] == q.reason

    def test_bitflip_fails_checksum(self, tmp_path):
        cache, key = self._prime(tmp_path)
        path = cache._path(key)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.get(key) is None
        assert cache.quarantined[-1].reason == "checksum-mismatch"

    def test_foreign_blob_is_bad_magic(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache._path("f" * 64).write_bytes(b"not a cache entry at all" * 4)
        assert cache.get("f" * 64) is None
        assert cache.quarantined[-1].reason == "bad-magic"

    def test_previous_schema_entry_is_a_stale_miss(self, tmp_path, monkeypatch):
        # an entry pickled under schema 10 (the previous outcome layout) must
        # never reach the unpickler
        cache, key = self._prime(tmp_path)
        monkeypatch.setattr(ResultCache, "SCHEMA", 10)
        cache.put(key, cache.get(key))
        monkeypatch.undo()
        assert cache.get(key) is None
        assert cache.quarantined[-1].reason == "schema-10"

    def test_legacy_unframed_pickle_is_quarantined(self, tmp_path):
        # an entry written by the pre-framing layout must not deserialize
        cache = ResultCache(tmp_path)
        cache._path("e" * 64).write_bytes(pickle.dumps({"old": "layout"}))
        assert cache.get("e" * 64) is None
        assert cache.quarantined

    def test_corrupted_sweep_reexecutes_and_heals(self, tmp_path):
        cache, key = self._prime(tmp_path)
        path = cache._path(key)
        path.write_bytes(b"RPRC garbage")
        spec = RunSpec(_handoff(), ToolConfig.helgrind_lib(), 1)
        summary = run_sweep([spec], workers=0, cache=cache).summary()
        assert summary.executed == 1 and summary.cached == 0
        assert cache.get(key) is not None  # rewritten cleanly

    def test_doctor_scans_and_purges(self, tmp_path):
        cache, key = self._prime(tmp_path)
        spec2 = RunSpec(_handoff(), ToolConfig.helgrind_lib(), 2)
        run_sweep([spec2], workers=0, cache=cache)
        bad = cache._path(key)
        bad.write_bytes(bad.read_bytes()[:30])
        report = cache.doctor()
        assert report.scanned == 2 and report.ok == 1
        assert len(report.quarantined) == 1 and report.corrupt_entries == 1
        report2 = cache.doctor(purge=True)
        assert report2.purged == 1
        assert not list(cache.corrupt_dir.glob("*"))


def _child_only_hang_workload(name):
    """A workload whose build hangs in worker children but not the parent
    (prewarm_static runs builds in the parent before forking)."""
    parent = os.getpid()

    def build():
        if os.getpid() != parent:
            while True:
                time.sleep(0.02)
        return flag_handoff_program()

    return Workload(name=name, build=build, seed=1)


class TestSupervision:
    CFG = ToolConfig.helgrind_lib()

    def test_hung_worker_detected_before_flat_timeout(self):
        hang = _child_only_hang_workload("sup_hang")
        start = time.monotonic()
        result = run_sweep(
            [RunSpec(hang, self.CFG, 1)],
            workers=1,
            timeout_s=60,
            retries=0,
            heartbeat_s=0.05,
            hung_after_s=0.5,
        )
        (rec,) = result.records
        assert rec.status == "hung"
        assert "no VM progress" in rec.error
        assert time.monotonic() - start < 30  # far under the flat timeout

    def test_progressing_run_with_heartbeats_completes(self):
        result = run_sweep(
            [RunSpec(_handoff(), self.CFG, 1)],
            workers=1,
            timeout_s=30,
            heartbeat_s=0.02,
        )
        (rec,) = result.records
        assert rec.status == "ok"

    def test_hung_counts_as_failed_in_summary(self):
        hang = _child_only_hang_workload("sup_hang2")
        result = run_sweep(
            [RunSpec(hang, self.CFG, 1)],
            workers=1,
            retries=0,
            heartbeat_s=0.05,
            hung_after_s=0.4,
        )
        assert result.summary().failed == 1

    def test_poison_spec_quarantined_not_failed(self):
        hang = _child_only_hang_workload("sup_poison")
        specs = [
            RunSpec(hang, self.CFG, 1),
            RunSpec(_handoff(), self.CFG, 1),
        ]
        result = run_sweep(
            specs,
            workers=2,
            retries=5,
            heartbeat_s=0.05,
            hung_after_s=0.3,
            poison_threshold=2,
        )
        poison = next(r for r in result.records if r.workload == "sup_poison")
        ok = next(r for r in result.records if r.workload != "sup_poison")
        assert poison.status == "poison" and "quarantined" in poison.error
        assert ok.status == "ok"
        summary = result.summary()
        assert summary.poisoned == 1 and summary.failed == 0
        assert result.poisoned == [poison]
        # poison is not a sweep failure: strict sweeps don't raise on it
        assert not result.failed

    def test_poison_threshold_bounds_worker_kills(self):
        parent = os.getpid()

        def exit_build():
            if os.getpid() != parent:  # spare the parent's prewarm pass
                os._exit(23)
            return flag_handoff_program()

        # crash-class failures also count toward poisoning
        crash = Workload(name="sup_exit", build=exit_build, seed=1)
        result = run_sweep(
            [RunSpec(crash, self.CFG, 1)],
            workers=1,
            retries=10,
            poison_threshold=3,
        )
        (rec,) = result.records
        assert rec.status == "poison"
        assert rec.attempts == 3


class TestWorkerPoolPoll:
    def test_clean_exit_after_the_pipe_poll_is_not_a_crash(self):
        """A worker that sends its result and exits between the pipe poll
        and the liveness check delivered: it must not read as a crash."""

        class Conn:
            polls = 0

            def poll(self, timeout):
                self.polls += 1
                return self.polls > 1  # the result lands after the first poll

            def recv(self):
                return ("ok", "outcome")

            def send(self, msg):
                pass

            def close(self):
                pass

        class Proc:
            exitcode = 0

            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

        pool = WorkerPool(workers=1)
        pool._workers.append(
            _Worker(
                proc=Proc(),
                conn=Conn(),
                table=["unit"],
                job=_Job(token="t", attempt=1, start_t=0.0, deadline=None),
            )
        )
        (done,) = pool.poll()
        assert (done.kind, done.payload) == ("ok", "outcome")

    def test_trace_upload_heartbeat_reports_decoded_events(self, tmp_path):
        """An upload runs no VM; its heartbeat must still advance, or an
        analysis longer than the hang window is killed as hung."""
        from repro.isa.program import CodeLocation
        from repro.service.engine import TraceUploadUnit
        from repro.trace import EventColumns, Trace, TraceStore
        from repro.vm.events import MemRead

        loc = CodeLocation("main", "entry", 0)
        events = [MemRead(i, 0, 4096 + i % 64, 0, loc) for i in range(100_000)]
        trace = Trace(
            program_name="long_upload", seed=1,
            columns=EventColumns.from_events(events), loop_sizes={},
            lock_sites=frozenset(), symbols=[], max_blocks=8, inline_depth=1,
            steps=len(events), ok=True,
        )
        TraceStore(tmp_path).put("k" * 64, trace)
        unit = TraceUploadUnit(str(tmp_path / ("k" * 64 + ".trc")), "drd")
        # The analysis takes about a second here, well past the window.
        pool = WorkerPool(workers=1, heartbeat_s=0.02, hung_after_s=0.4)
        pool.submit(unit, token="upload")
        exits = []
        deadline = time.monotonic() + 60
        try:
            while not exits and time.monotonic() < deadline:
                time.sleep(0.01)
                exits = pool.poll()
        finally:
            pool.shutdown()
        (done,) = exits
        assert done.kind == "ok", done.payload
        assert done.payload.events == len(events)


class TestMetricsIntegration:
    def test_score_suite_parallel_equals_serial(self):
        from repro.harness.metrics import score_suite
        from repro.workloads import build_suite

        cases = build_suite()[:6]
        cfg = ToolConfig.helgrind_lib_spin(7)
        serial, _ = score_suite(cases, cfg)
        parallel, _ = score_suite(cases, cfg, workers=2)
        assert serial.row() == parallel.row()
        assert [c.true_symbols for c in serial.cases] == [
            c.true_symbols for c in parallel.cases
        ]

    def test_racy_contexts_table_parallel_equals_serial(self):
        from repro.harness.metrics import racy_contexts_table
        from repro.workloads.parsec.registry import parsec_workload

        wls = [parsec_workload("blackscholes"), parsec_workload("bodytrack")]
        cfgs = [ToolConfig.helgrind_lib(), ToolConfig.helgrind_lib_spin(7)]
        serial = racy_contexts_table(wls, cfgs, [1, 2])
        parallel = racy_contexts_table(wls, cfgs, [1, 2], workers=2)
        assert serial == parallel


class TestSummary:
    def test_summarize_empty(self):
        s = summarize_records([], wall_s=0.0)
        assert s.runs == 0 and s.steps_per_s == 0.0 and s.speedup == 0.0


class _SlowCache(ResultCache):
    """A result cache whose puts take long enough for commits to queue."""

    def _atomic_write(self, tmp, path, data):
        time.sleep(0.01)
        super()._atomic_write(tmp, path, data)


class TestCommitter:
    """One committer thread writes a sweep's cache entries and journal
    lines, off the dispatch path and in groups."""

    CFG = ToolConfig.helgrind_lib()

    def _specs(self, n=8):
        from repro.workloads import build_suite

        return sweep_specs([wl.name for wl in build_suite()[:n]], ["helgrind-lib"])

    @staticmethod
    def _journaled(journal_dir, specs):
        keys = [spec_key(s) for s in specs]
        return SweepJournal(journal_dir, sweep_digest(keys)).load()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cache_entry_is_on_disk_before_its_journal_line(
        self, tmp_path, monkeypatch, workers
    ):
        cache = ResultCache(tmp_path / "cache")
        real_append = SweepJournal.append
        early = []

        def append(journal, records):
            records = list(records)
            early.extend(key for key, _ in records if not cache._path(key).exists())
            real_append(journal, records)

        monkeypatch.setattr(SweepJournal, "append", append)
        specs = self._specs()
        result = run_sweep(
            specs, workers=workers, cache=cache, journal_dir=tmp_path / "j"
        )
        assert [r.status for r in result.records] == ["ok"] * len(specs)
        assert early == []
        assert len(self._journaled(tmp_path / "j", specs)) == len(specs)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_journal_error_surfaces_from_run_sweep(
        self, tmp_path, monkeypatch, workers
    ):
        def append(journal, records):
            raise OSError(errno.EIO, "injected journal write error")

        monkeypatch.setattr(SweepJournal, "append", append)
        with pytest.raises(OSError, match="injected journal write error"):
            run_sweep(
                self._specs(),
                workers=workers,
                cache=ResultCache(tmp_path / "cache"),
                journal_dir=tmp_path / "j",
            )
        assert not [t for t in threading.enumerate() if t.name == "sweep-committer"]

    def test_interrupt_returns_only_journaled_records(self, tmp_path, monkeypatch):
        """Ctrl-C lands while commits are queued behind slow cache puts:
        every record the partial result returns is journaled, after its
        cache entry, by the time ``run_sweep`` returns."""
        real_poll = WorkerPool.poll
        finished = []

        def poll(pool):
            if len(finished) >= 4:
                raise KeyboardInterrupt
            exits = real_poll(pool)
            finished.extend(exits)
            return exits

        monkeypatch.setattr(WorkerPool, "poll", poll)
        specs = self._specs(12)
        cache = _SlowCache(tmp_path / "cache")
        result = run_sweep(specs, workers=2, cache=cache, journal_dir=tmp_path / "j")
        assert result.interrupted
        assert 4 <= len(result.records) < len(specs)
        journaled = self._journaled(tmp_path / "j", specs)
        assert len(journaled) == len(result.records)
        for spec, outcome in zip(specs, result.outcomes):
            if outcome is not None:
                key = spec_key(spec)
                assert key in journaled and cache.has(key)

    def test_replacement_fork_while_commits_are_queued(self, tmp_path):
        """A spec that crashes once forks a replacement worker while the
        committer thread is busy with queued puts; the sweep completes."""
        parent = os.getpid()
        for it in range(20):
            marker = tmp_path / f"crashed-{it}"

            def crash_once_build(marker=marker):
                if os.getpid() != parent and not marker.exists():
                    marker.touch()
                    os._exit(23)
                return flag_handoff_program()

            crash_once = Workload(f"crash_once_{it}", crash_once_build, seed=1)
            specs = self._specs(4)
            specs.insert(1, RunSpec(crash_once, self.CFG, 1))
            cache = _SlowCache(tmp_path / f"cache-{it}")
            result = run_sweep(
                specs,
                workers=2,
                retries=1,
                cache=cache,
                journal_dir=tmp_path / f"j-{it}",
            )
            assert marker.exists()
            assert [r.status for r in result.records] == ["ok"] * len(specs)
            assert result.records[1].attempts == 2
            assert len(self._journaled(tmp_path / f"j-{it}", specs)) == len(specs)
            assert len(cache) == len(specs)

    def test_resumed_fully_cached_sweep_commits_hits_with_one_fsync(
        self, tmp_path, monkeypatch
    ):
        specs = self._specs()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(specs, workers=0, cache=cache, journal_dir=tmp_path / "j")
        journal = SweepJournal(tmp_path / "j", sweep_digest(map(spec_key, specs)))
        lines = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join(lines[:3]) + "\n")  # header + 2

        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (fsyncs.append(os.fstat(fd).st_ino), real_fsync(fd))
        )
        groups = []
        real_append = SweepJournal.append

        def append(journal, records):
            before = len(fsyncs)
            real_append(journal, records)
            groups.append((len(records), len(fsyncs) - before))

        monkeypatch.setattr(SweepJournal, "append", append)
        result = run_sweep(
            specs, workers=2, cache=cache, journal_dir=tmp_path / "j", resume=True
        )
        assert result.resumed == 2
        assert result.summary().cached == len(specs) - 2
        assert groups == [(len(specs) - 2, 1)]
        # closing the journal syncs nothing the group commit did not
        assert fsyncs.count(journal.path.stat().st_ino) == 1
        assert len(self._journaled(tmp_path / "j", specs)) == len(specs)

    def test_commits_under_rapid_thread_switches_land_once_in_order(self, tmp_path):
        """The sweep thread queues while the committer drains; with the
        interpreter switching threads every microsecond, a lost or
        doubled queue update would show as a missing or repeated line."""
        import dataclasses
        import sys

        journal = SweepJournal(tmp_path, "d" * 64)
        committer = _Committer(None, journal)
        record = run_sweep([RunSpec(_handoff(), self.CFG, 1)], workers=0).records[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(300):
                committer.commit(f"k{i}", dataclasses.replace(record, seed=i))
        finally:
            sys.setswitchinterval(interval)
            committer.close()
            journal.close()
        loaded = SweepJournal(tmp_path, "d" * 64).load()
        assert list(loaded) == [f"k{i}" for i in range(300)]
        assert [r.seed for r in loaded.values()] == list(range(300))
        assert journal.appended == 300

    def test_worker_forked_while_the_commit_lock_is_held(self, tmp_path):
        """A worker forked while the committer's lock is held (here by
        this thread, as the committer holds it to take a batch) inherits
        it locked; the worker must still run its unit."""
        committer = _Committer(ResultCache(tmp_path / "cache"), None)
        spec = RunSpec(_handoff(), self.CFG, 1)
        exits = []
        try:
            with committer._cond:
                pool = WorkerPool(1, timeout_s=20.0, table=[spec])
                try:
                    pool.submit(spec, token=0)
                    while not exits:
                        pool.wait()
                        exits = pool.poll()
                finally:
                    pool.shutdown()
        finally:
            committer.close()
        assert [e.kind for e in exits] == ["ok"]
