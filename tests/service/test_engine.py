"""Engine behavior: golden fingerprint identity, crash recovery, admission.

The acceptance bar for the whole service is here: a verdict served over
the wire must be ``Report.fingerprint()``-identical (sha256 wire form)
to a direct in-process ``repro.run`` of the same submission — across
presets, for program cells and trace uploads, cold, cached, and
degraded alike.
"""

import asyncio
import base64

import pytest

import repro
from repro.isa.asm import assemble
from repro.service.engine import FORCE_PRESSURE_ENV, Engine
from repro.service.schema import validate_request

WORKLOAD = "locks_mutex_counter_t2"
MAX_STEPS = 60_000
PRESETS = ("drd", "eraser", "helgrind-lib-spin7")

RACY_SOURCE = """\
program racy entry=main
global COUNT size=1 init=0
func worker() {
entry:
    a = addr COUNT
    v = load a+0
    one = const 1
    n = add v, one
    store a+0, n
    ret
}
func main() {
entry:
    t1 = spawn worker()
    t2 = spawn worker()
    join t1
    join t2
    halt
}
"""


SPIN_SOURCE = """\
program spin entry=main
global FLAG size=1 init=0
func main() {
entry:
    a = addr FLAG
    jmp loop
loop:
    v = load a+0
    jmp loop
}
"""


def source_req(source, seed=1, tool="drd", max_steps=10_000, **over):
    return {
        "v": 1, "tenant": "t", "kind": "source", "source": source,
        "tool": tool, "seed": seed, "max_steps": max_steps, **over,
    }


def trace_req(trace_file, tool):
    payload = base64.b64encode(trace_file.read_bytes()).decode("ascii")
    return {"v": 1, "tenant": "team-b", "kind": "trace", "trace_b64": payload, "tool": tool}


def req(seed=1, tenant="team-a", tool="helgrind-lib-spin7", **over):
    base = {
        "v": 1,
        "tenant": tenant,
        "kind": "workload",
        "workload": WORKLOAD,
        "tool": tool,
        "seed": seed,
        "max_steps": MAX_STEPS,
    }
    base.update(over)
    return base


def run_engine(work_dir, fn, **engine_kwargs):
    """Start an engine, run ``fn(engine)`` in its loop, shut down."""
    engine_kwargs.setdefault("workers", 2)

    async def main():
        engine = Engine(work_dir, **engine_kwargs)
        await engine.startup()
        try:
            return await fn(engine)
        finally:
            await engine.shutdown(drain_s=2.0)

    return asyncio.run(main())


def direct_fingerprint(tool, seed=1):
    return repro.run(WORKLOAD, tool, seed=seed, max_steps=MAX_STEPS).fingerprint


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """An RPRT-framed recording of the test workload, as a store file."""
    from repro.harness.registry import resolve_workload
    from repro.trace import TraceStore, record_trace

    wl = resolve_workload(WORKLOAD)
    trace = record_trace(wl.fresh_program(), seed=2, max_steps=MAX_STEPS)
    root = tmp_path_factory.mktemp("svc-recording")
    TraceStore(root).put("k" * 64, trace)
    return root / ("k" * 64 + ".trc")


class TestGoldenIdentity:
    def test_workload_verdicts_match_direct_runs_across_presets(self, tmp_path):
        async def submit_all(engine):
            return {
                tool: await engine.submit(req(tool=tool)) for tool in PRESETS
            }

        responses = run_engine(tmp_path / "svc", submit_all)
        for tool, resp in responses.items():
            assert resp["status"] == "ok", resp
            assert resp["verdict"]["fingerprint"] == direct_fingerprint(tool)
            assert resp["verdict"]["seed"] == 1

    def test_trace_upload_verdicts_match_direct_runs_across_presets(
        self, tmp_path, trace_file
    ):
        payload = base64.b64encode(trace_file.read_bytes()).decode("ascii")

        async def submit_all(engine):
            return {
                tool: await engine.submit(
                    {
                        "v": 1,
                        "tenant": "team-b",
                        "kind": "trace",
                        "trace_b64": payload,
                        "tool": tool,
                    }
                )
                for tool in PRESETS
            }

        responses = run_engine(tmp_path / "svc", submit_all)
        for tool, resp in responses.items():
            assert resp["status"] == "ok", resp
            direct = repro.run(config=tool, trace=trace_file)
            assert resp["verdict"]["fingerprint"] == direct.fingerprint

    def test_source_verdict_matches_direct_run(self, tmp_path):
        async def submit(engine):
            return await engine.submit(
                {
                    "v": 1,
                    "tenant": "t",
                    "kind": "source",
                    "source": RACY_SOURCE,
                    "tool": "drd",
                    "seed": 1,
                    "max_steps": 10_000,
                }
            )

        resp = run_engine(tmp_path / "svc", submit)
        assert resp["status"] == "ok", resp
        direct = repro.run(assemble(RACY_SOURCE), "drd", seed=1, max_steps=10_000)
        assert resp["verdict"]["fingerprint"] == direct.fingerprint
        assert resp["verdict"]["racy_contexts"] >= 1

    def test_degraded_mode_is_fingerprint_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "degraded")

        async def submit(engine):
            return await engine.submit(req(tool="eraser"))

        resp = run_engine(tmp_path / "svc", submit)
        assert resp["status"] == "degraded" and resp["degraded"] is True
        assert resp["verdict"]["fingerprint"] == direct_fingerprint("eraser")


@pytest.fixture
def starts(monkeypatch):
    """Every worker process the pool starts."""
    from repro.harness.parallel import _mp_context

    process = _mp_context().Process
    started = []
    original = process.start

    def start(proc):
        started.append(proc)
        original(proc)

    monkeypatch.setattr(process, "start", start)
    return started


class TestLongLivedWorkers:
    """Requests run on ``workers`` long-lived processes, replaced only
    when one is killed."""

    def test_cold_requests_of_every_kind_share_the_pool_workers(
        self, tmp_path, trace_file, starts
    ):
        requests = [
            req(seed=1),
            req(seed=2, tool="drd"),
            source_req(RACY_SOURCE, seed=1),
            source_req(RACY_SOURCE, seed=2),
            trace_req(trace_file, "drd"),
            trace_req(trace_file, "helgrind-lib-spin7"),
        ]
        direct = [
            direct_fingerprint("helgrind-lib-spin7", seed=1),
            direct_fingerprint("drd", seed=2),
            repro.run(assemble(RACY_SOURCE), "drd", seed=1, max_steps=10_000).fingerprint,
            repro.run(assemble(RACY_SOURCE), "drd", seed=2, max_steps=10_000).fingerprint,
            repro.run(config="drd", trace=trace_file).fingerprint,
            repro.run(config="helgrind-lib-spin7", trace=trace_file).fingerprint,
        ]

        async def submit_all(engine):
            return await asyncio.gather(*(engine.submit(r) for r in requests))

        responses = run_engine(tmp_path / "svc", submit_all, workers=2)
        assert [r["status"] for r in responses] == ["ok"] * 6, responses
        assert [r["verdict"]["fingerprint"] for r in responses] == direct
        assert len(starts) == 2

    def test_a_request_past_its_deadline_costs_exactly_one_worker(
        self, tmp_path, starts
    ):
        # ``long`` keeps the other worker busy (about 1.5 s of VM steps)
        # from before ``stuck`` is killed until after ``after`` is
        # dispatched, so ``after`` runs on the replacement.
        stuck = source_req(SPIN_SOURCE, max_steps=10**9, deadline_s=0.3)
        long = source_req(SPIN_SOURCE, max_steps=1_500_000)

        async def scenario(engine):
            long_task = asyncio.ensure_future(engine.submit(long))
            stuck_resp = await engine.submit(stuck)
            after = await engine.submit(req(seed=3))
            # the replacement is long-lived too: no fork for this one
            again = await engine.submit(req(seed=4))
            return stuck_resp, await long_task, after, again

        stuck_resp, long_resp, after, again = run_engine(
            tmp_path / "svc", scenario, workers=2
        )
        assert stuck_resp["status"] == "error"
        assert "deadline exceeded" in stuck_resp["error"]
        assert long_resp["status"] == "ok", long_resp
        assert long_resp["verdict"]["run_status"] == "step-limit"
        assert after["status"] == "ok", after
        assert after["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7", seed=3
        )
        assert again["status"] == "ok", again
        assert len(starts) == 3


class TestCachingAndCoalescing:
    def test_resubmission_serves_verdict_without_recompute(self, tmp_path):
        async def twice(engine):
            first = await engine.submit(req())
            second = await engine.submit(req())
            return first, second, engine.stats_snapshot()

        first, second, stats = run_engine(tmp_path / "svc", twice)
        assert first["status"] == "ok" and not first.get("cached")
        assert second["cached"] is True
        assert second["verdict"] == first["verdict"]
        assert stats["executed"] == 1 and stats["served_index"] == 1

    def test_concurrent_identical_submissions_coalesce(self, tmp_path):
        async def both(engine):
            a, b = await asyncio.gather(engine.submit(req()), engine.submit(req()))
            return a, b, engine.stats_snapshot()

        a, b, stats = run_engine(tmp_path / "svc", both)
        assert a["status"] == b["status"] == "ok"
        assert a["verdict"]["fingerprint"] == b["verdict"]["fingerprint"]
        assert stats["executed"] == 1 and stats["received"] == 2

    def test_restart_serves_completed_verdicts_from_index(self, tmp_path):
        work = tmp_path / "svc"
        first = run_engine(work, lambda e: e.submit(req()))
        assert first["status"] == "ok"

        async def resubmit(engine):
            return await engine.submit(req()), engine.stats_snapshot()

        resp, stats = run_engine(work, resubmit)
        assert resp["cached"] is True
        assert resp["verdict"] == first["verdict"]
        assert stats["executed"] == 0  # zero recomputation across restart


class TestCrashRecovery:
    def test_restart_drains_journaled_inflight_requests(self, tmp_path):
        work = tmp_path / "svc"
        # Hand-craft the post-SIGKILL state: a request journaled as
        # accepted with no ``done`` — exactly what a crash mid-analysis
        # leaves behind.
        dead = Engine(work, workers=2)
        sub = validate_request(req())
        key, _ = dead._content_key(sub)
        dead.journal.accepted(key, dead._journal_request(sub, key))
        dead.journal.close()
        dead.pool.shutdown()

        async def wait_drained(engine):
            for _ in range(600):
                if key in engine.completed:
                    break
                await asyncio.sleep(0.05)
            return dict(engine.completed), engine.stats_snapshot()

        completed, stats = run_engine(work, wait_drained)
        assert stats["drained"] == 1 and stats["executed"] == 1
        assert completed[key]["status"] == "ok"
        assert completed[key]["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7"
        )

    def test_unreconstructable_journal_entry_becomes_error_verdict(self, tmp_path):
        work = tmp_path / "svc"
        dead = Engine(work, workers=2)
        # A journaled trace request whose spool file is gone.
        dead.journal.accepted(
            "f" * 64, {"v": 1, "tenant": "t", "kind": "trace", "tool": "drd"}
        )
        dead.journal.close()
        dead.pool.shutdown()

        async def snapshot(engine):
            return dict(engine.completed), engine.stats_snapshot()

        completed, stats = run_engine(work, snapshot)
        assert completed["f" * 64]["status"] == "error"
        assert stats["drained"] == 0


class TestAdmission:
    def test_queue_depth_backpressure(self, tmp_path):
        async def flood(engine):
            return await asyncio.gather(
                *(engine.submit(req(seed=s)) for s in range(1, 5))
            )

        responses = run_engine(
            tmp_path / "svc", flood, workers=1, queue_depth=1
        )
        statuses = sorted(r["status"] for r in responses)
        assert statuses == ["backpressure", "backpressure", "backpressure", "ok"]
        for resp in responses:
            if resp["status"] == "backpressure":
                assert resp["retry_after_s"] > 0

    def test_tenant_rate_backpressure_is_per_tenant(self, tmp_path):
        async def two_tenants(engine):
            a1, a2, b1 = await asyncio.gather(
                engine.submit(req(seed=1, tenant="a")),
                engine.submit(req(seed=2, tenant="a")),
                engine.submit(req(seed=3, tenant="b")),
            )
            return a1, a2, b1

        a1, a2, b1 = run_engine(
            tmp_path / "svc",
            two_tenants,
            tenant_rate=1e-9,
            tenant_burst=1.0,
        )
        # Tenant a's second request is over rate; tenant b is untouched.
        assert a1["status"] == "ok"
        assert a2["status"] == "backpressure"
        assert b1["status"] == "ok"

    def test_critical_pressure_sheds_queued_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")

        async def submit(engine):
            return await engine.submit(req()), engine.stats_snapshot()

        resp, stats = run_engine(tmp_path / "svc", submit)
        assert resp["status"] == "shed"
        assert resp["retry_after_s"] > 0
        assert stats["shed"] == 1 and stats["executed"] == 0

    def test_invalid_requests_get_structured_rejection(self, tmp_path):
        async def submit(engine):
            return (
                await engine.submit("not an object"),
                await engine.submit({"v": 1}),
                await engine.submit(req(workload="no-such-workload")),
            )

        not_obj, missing, unknown = run_engine(tmp_path / "svc", submit)
        assert not_obj["status"] == missing["status"] == unknown["status"] == "invalid"
        assert "error" in unknown
