"""Decode/instrument cache correctness: keying, sharing, invalidation.

The decode cache is content-keyed — program fingerprint, marker-table
digest, watchdog arming — so entries are shared exactly when the decoded
closures would be identical, and never across configurations that bake
different marked-load behavior into the handlers.
"""

import dataclasses

import pytest

from repro.analysis import (
    clear_instrument_cache,
    instrument_cache_info,
    instrument_program_cached,
)
from repro.detectors import ToolConfig
from repro.harness.parallel import (
    CACHE_SCHEMA,
    ResultCache,
    RunSpec,
    prewarm_static,
    run_sweep,
    sweep_specs,
)
from repro.harness.registry import (
    program_fingerprint,
    register_workload,
    resolve_workload,
    unregister_workload,
)
from repro.harness.workload import Workload
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Function, GlobalVar
from repro.vm.decode import (
    clear_decode_cache,
    decode_cache_info,
    decode_key,
    get_decoded_program,
)


def _spin_program(name="p"):
    """A program with a spin loop, so the marker tables are non-empty."""
    pb = ProgramBuilder(name)
    pb.global_("flag", 1, [0])
    mn = pb.function("main")
    mn.jmp("spin")
    mn.label("spin")
    v = mn.load_global("flag")
    c = mn.eq(v, 0)
    mn.br(c, "spin", "done")
    mn.label("done")
    mn.halt()
    return pb.build()


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_decode_cache()
    clear_instrument_cache()
    yield
    clear_decode_cache()
    clear_instrument_cache()


class TestDecodeKeying:
    def test_imap_changes_key(self):
        p = _spin_program()
        imap = instrument_program_cached(p)
        assert decode_key(p, None, False) != decode_key(p, imap, False)

    def test_watchdog_arming_changes_key(self):
        p = _spin_program()
        imap = instrument_program_cached(p)
        assert decode_key(p, imap, False) != decode_key(p, imap, True)

    def test_spin_window_changes_key_via_map_content(self):
        p = _spin_program()
        wide = instrument_program_cached(p, max_blocks=7)
        # A window too narrow for any loop yields empty marker tables —
        # different content, different key.
        narrow = instrument_program_cached(p, max_blocks=0)
        assert decode_key(p, wide, False) != decode_key(p, narrow, False)

    def test_program_content_changes_key(self):
        assert decode_key(_spin_program(), None, False) != decode_key(
            _spin_program("q"), None, False
        )


class TestDecodeSharing:
    def test_identical_content_shares_one_entry(self):
        d1 = get_decoded_program(_spin_program(), None, False)
        d2 = get_decoded_program(_spin_program(), None, False)
        assert d1 is d2
        info = decode_cache_info()
        assert info["entries"] == 1 and info["hits"] == 1

    def test_no_marked_flag_sharing_across_tools(self):
        """A spin tool's decoded program (marked loads baked in) must not
        be handed to a non-spin tool, and watchdog arming splits again."""
        p = _spin_program()
        imap = instrument_program_cached(p)
        plain = get_decoded_program(p, None, False)
        marked = get_decoded_program(p, imap, False)
        armed = get_decoded_program(p, imap, True)
        assert plain is not marked and marked is not armed
        assert plain.stats["marked_loads"] == 0
        assert marked.stats["marked_loads"] > 0
        assert not marked.livelock_armed and armed.livelock_armed

    def test_lru_bound(self, monkeypatch):
        import repro.vm.decode as decode_mod

        monkeypatch.setattr(decode_mod, "_CACHE_MAX", 3)
        for i in range(5):
            get_decoded_program(_spin_program(f"p{i}"), None, False)
        assert decode_cache_info()["entries"] == 3
        # The oldest entry was evicted: decoding p0 again is a miss.
        before = decode_cache_info()["misses"]
        get_decoded_program(_spin_program("p0"), None, False)
        assert decode_cache_info()["misses"] == before + 1


class TestInstrumentCache:
    def test_hit_on_identical_content(self):
        imap1 = instrument_program_cached(_spin_program())
        imap2 = instrument_program_cached(_spin_program())
        assert imap1 is imap2
        assert instrument_cache_info()["hits"] == 1

    def test_parameters_are_part_of_the_key(self):
        p = _spin_program()
        instrument_program_cached(p, max_blocks=7)
        instrument_program_cached(p, max_blocks=3)
        instrument_program_cached(p, max_blocks=7, inline_depth=0)
        assert instrument_cache_info()["entries"] == 3


class TestFingerprintMemo:
    def test_memo_and_invalidation(self):
        p = _spin_program()
        fp = p.fingerprint()
        assert p.fingerprint() == fp  # memoized, stable
        f = Function("extra")
        from repro.isa import instructions as ins
        from repro.isa.program import BasicBlock

        f.add_block(BasicBlock("entry", [ins.Halt()]))
        p.add_function(f)
        assert p.fingerprint() != fp  # add_function invalidated the memo
        fp2 = p.fingerprint()
        p.add_global(GlobalVar("g2", 1, [0]))
        assert p.fingerprint() != fp2  # add_global too

    def test_registry_memo_invalidated_on_reregister(self):
        wl = Workload(name="_decode_cache_wl", build=lambda: _spin_program("a"))
        register_workload(wl)
        try:
            fp = program_fingerprint("_decode_cache_wl")
            assert fp == resolve_workload("_decode_cache_wl").fresh_program().fingerprint()
            register_workload(
                dataclasses.replace(wl, build=lambda: _spin_program("b")),
                replace=True,
            )
            assert program_fingerprint("_decode_cache_wl") != fp
        finally:
            unregister_workload("_decode_cache_wl")


class TestResultCacheKey:
    def test_schema_is_11(self):
        assert CACHE_SCHEMA == 11


class TestCrossProcessReuse:
    def test_pool_sweep_reuses_cached_outcomes(self, tmp_path):
        specs = sweep_specs(["streamcluster"], ["helgrind-lib-spin"], seeds=[1])
        cache = ResultCache(tmp_path / "c")
        first = run_sweep(specs, workers=2, cache=cache)
        assert first.summary().executed == 1 and not first.summary().failed
        second = run_sweep(specs, workers=2, cache=cache)
        assert second.summary().cached == 1 and second.summary().executed == 0
        # Cached replay reproduces the executed run bit-for-bit.
        assert (
            second.outcomes[0].report.fingerprint()
            == first.outcomes[0].report.fingerprint()
        )
        assert second.outcomes[0].steps == first.outcomes[0].steps

    def test_prewarm_fills_both_caches(self):
        wl = Workload(name="_decode_prewarm_wl", build=_spin_program)
        register_workload(wl)
        try:
            specs = [RunSpec(workload="_decode_prewarm_wl", config="helgrind-lib-spin")]
            assert prewarm_static(specs) == 1
            assert decode_cache_info()["entries"] == 1
            assert instrument_cache_info()["entries"] == 1
            # The run itself now hits both caches.
            p = resolve_workload("_decode_prewarm_wl").fresh_program()
            imap = instrument_program_cached(p)
            get_decoded_program(p, imap, False)
            assert decode_cache_info()["hits"] == 1
            assert instrument_cache_info()["hits"] == 1
        finally:
            unregister_workload("_decode_prewarm_wl")
