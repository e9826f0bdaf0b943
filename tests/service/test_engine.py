"""Engine behavior: golden fingerprint identity, crash recovery, admission.

The acceptance bar for the whole service is here: a verdict served over
the wire must be ``Report.fingerprint()``-identical (sha256 wire form)
to a direct in-process ``repro.run`` of the same submission — across
presets, for program cells and trace uploads, cold, cached, and
degraded alike.
"""

import asyncio
import base64
import time

import pytest

import repro
from repro.isa.asm import assemble
from repro.service.engine import FORCE_PRESSURE_ENV, Engine
from repro.service.journal import RequestJournal
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
        "v": 1, "kind": "source", "source": source,
        "tool": tool, "seed": seed, "max_steps": max_steps, **over,
    }


def trace_req(trace_file, tool):
    payload = base64.b64encode(trace_file.read_bytes()).decode("ascii")
    return {"v": 1, "kind": "trace", "trace_b64": payload, "tool": tool}


def req(seed=1, tool="helgrind-lib-spin7", **over):
    base = {
        "v": 1,
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


def wait_completed(keys):
    """An ``fn`` for :func:`run_engine`: wait until every key has a
    verdict (the restart drain), then snapshot the index and stats."""

    async def wait(engine):
        for _ in range(600):
            if all(key in engine.completed for key in keys):
                break
            await asyncio.sleep(0.05)
        return dict(engine.completed), engine.stats_snapshot()

    return wait


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

        completed, stats = run_engine(work, wait_completed([key]))
        assert stats["drained"] == 1 and stats["executed"] == 1
        assert completed[key]["status"] == "ok"
        assert completed[key]["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7"
        )

    def test_drain_requeues_past_the_queue_depth(self, tmp_path):
        # Journaled work was accepted once; a restart with a smaller
        # queue must run all of it, not bounce the overflow.
        work = tmp_path / "svc"
        dead = Engine(work, workers=1)
        keys = []
        for seed in (1, 2, 3):
            sub = validate_request(req(seed=seed))
            key, _ = dead._content_key(sub)
            dead.journal.accepted(key, dead._journal_request(sub, key))
            keys.append(key)
        dead.journal.close()
        dead.pool.shutdown()

        completed, stats = run_engine(
            work, wait_completed(keys), workers=1, queue_depth=1
        )
        assert stats["drained"] == 3 and stats["executed"] == 3
        assert stats["backpressure"] == 0
        for seed, key in zip((1, 2, 3), keys):
            assert completed[key]["status"] == "ok"
            assert completed[key]["verdict"]["fingerprint"] == direct_fingerprint(
                "helgrind-lib-spin7", seed=seed
            )

    def test_journal_line_carrying_a_tenant_drains(self, tmp_path):
        # The line as daemons that journaled ``tenant`` wrote it: the
        # field is ignored and the drained verdict is a direct run's.
        work = tmp_path / "svc"
        probe = Engine(work, workers=1)
        key, _ = probe._content_key(validate_request(req()))
        probe.journal.close()
        probe.pool.shutdown()
        (work / "journal" / "requests.jsonl").write_text(
            '{"journal":"repro-service","version":1,"schema":1}\n'
            '{"op":"accepted","key":"%s","request":{"v":1,"tenant":"t",'
            '"kind":"workload","tool":"helgrind-lib-spin7",'
            '"workload":"%s","seed":1,"max_steps":%d}}\n'
            % (key, WORKLOAD, MAX_STEPS)
        )

        completed, stats = run_engine(work, wait_completed([key]), workers=1)
        assert stats["drained"] == 1
        assert completed[key]["status"] == "ok"
        assert completed[key]["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7"
        )

    def test_journaled_request_drops_the_tenant_label(self, tmp_path):
        engine = Engine(tmp_path / "svc", workers=1)
        try:
            sub = validate_request(req(tenant="team-a"))
            key, _ = engine._content_key(sub)
            line = engine._journal_request(sub, key)
            assert "tenant" not in line
            assert engine._rebuild_cell(key, line).sub == sub
        finally:
            engine.journal.close()
            engine.pool.shutdown()

    def test_unreconstructable_journal_entry_becomes_error_verdict(self, tmp_path):
        work = tmp_path / "svc"
        dead = Engine(work, workers=2)
        # A journaled trace request whose spool file is gone.
        dead.journal.accepted(
            "f" * 64, {"v": 1, "kind": "trace", "tool": "drd"}
        )
        dead.journal.close()
        dead.pool.shutdown()

        async def snapshot(engine):
            return dict(engine.completed), engine.stats_snapshot()

        completed, stats = run_engine(work, snapshot)
        assert stats["drained"] == 0
        # answered as done, so no later restart drains it again; not
        # indexed, so a resubmission carrying the payload runs
        assert "f" * 64 not in completed
        pending, _ = RequestJournal(work / "journal").load()
        assert not pending
        assert '"status":"error"' in (work / "journal" / "requests.jsonl").read_text()


class TestVerdictIndex:
    """Only answers that cannot change on a retry are served from the
    verdict index: a shed or an expired deadline is answered once."""

    def test_shed_request_runs_when_resubmitted_after_pressure_lifts(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")

        async def scenario(engine):
            shed = await engine.submit(req())
            monkeypatch.delenv(FORCE_PRESSURE_ENV)
            retried = await engine.submit(req())
            return shed, retried, engine.stats_snapshot()

        shed, retried, stats = run_engine(tmp_path / "svc", scenario)
        assert shed["status"] == "shed"
        assert retried["status"] == "ok", retried
        assert retried["cached"] is False
        assert stats["executed"] == 1 and stats["served_index"] == 0
        assert retried["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7"
        )

    def test_shed_request_runs_when_resubmitted_after_a_restart(
        self, tmp_path, monkeypatch
    ):
        work = tmp_path / "svc"
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")
        shed = run_engine(work, lambda engine: engine.submit(req()))
        assert shed["status"] == "shed"
        monkeypatch.delenv(FORCE_PRESSURE_ENV)

        async def resubmit(engine):
            return await engine.submit(req()), engine.stats_snapshot()

        retried, stats = run_engine(work, resubmit)
        assert retried["status"] == "ok", retried
        assert retried["cached"] is False
        assert stats["executed"] == 1
        assert stats["drained"] == 0  # the shed was journaled as done

    def test_request_whose_deadline_expired_runs_when_resubmitted(self, tmp_path):
        # ``long`` is queued first and holds the one worker for about
        # 0.3 s, so the next request's 50 ms deadline runs out in queue.
        long = source_req(SPIN_SOURCE, max_steps=300_000)

        async def scenario(engine):
            long_task = asyncio.ensure_future(engine.submit(long))
            await asyncio.sleep(0)
            expired = await engine.submit(req(deadline_s=0.05))
            retried = await engine.submit(req())
            return expired, await long_task, retried, engine.stats_snapshot()

        expired, long_resp, retried, stats = run_engine(
            tmp_path / "svc", scenario, workers=1
        )
        assert expired["status"] == "error"
        assert "exceeded in queue" in expired["error"]
        assert long_resp["status"] == "ok", long_resp
        assert retried["status"] == "ok", retried
        assert retried["cached"] is False
        assert stats["executed"] == 2  # ``long`` and the retry
        assert retried["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7"
        )

    def test_error_raised_by_the_unit_is_served_from_the_index(self, tmp_path):
        bad_join = (
            "program badjoin entry=main\n"
            "func main() {\nentry:\n    t = const 5\n    join t\n    halt\n}\n"
        )

        async def twice(engine):
            first = await engine.submit(source_req(bad_join))
            second = await engine.submit(source_req(bad_join))
            return first, second, engine.stats_snapshot()

        first, second, stats = run_engine(tmp_path / "svc", twice)
        assert first["status"] == "error" and "unknown thread" in first["error"]
        assert second["cached"] is True and second["error"] == first["error"]
        assert stats["executed"] == 1 and stats["served_index"] == 1


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

    def test_critical_pressure_sheds_queued_work(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")

        async def submit(engine):
            return await engine.submit(req()), engine.stats_snapshot()

        resp, stats = run_engine(tmp_path / "svc", submit)
        assert resp["status"] == "shed"
        assert resp["retry_after_s"] > 0
        assert stats["shed"] == 1 and stats["executed"] == 0

    def test_critical_pressure_sheds_every_queued_request(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")

        async def flood(engine):
            responses = await asyncio.gather(
                *(engine.submit(req(seed=s)) for s in (1, 2, 3))
            )
            return responses, engine.stats_snapshot()

        responses, stats = run_engine(tmp_path / "svc", flood, workers=1)
        assert [r["status"] for r in responses] == ["shed"] * 3
        assert stats["shed"] == 3 and stats["executed"] == 0
        assert stats["queued"] == stats["inflight"] == 0

    def test_queued_requests_run_in_arrival_order(self, tmp_path):
        dispatched = []

        async def scenario(engine):
            submit = engine.pool.submit

            def recording(work, **kw):
                dispatched.append(work.seed)
                return submit(work, **kw)

            engine.pool.submit = recording
            return await asyncio.gather(
                *(engine.submit(req(seed=s)) for s in (4, 1, 3, 2))
            )

        responses = run_engine(tmp_path / "svc", scenario, workers=1)
        assert [r["status"] for r in responses] == ["ok"] * 4
        assert dispatched == [4, 1, 3, 2]

    def test_refused_request_is_not_journaled_and_runs_on_retry(self, tmp_path):
        from repro.service.schema import response_http_status

        async def scenario(engine):
            first, refused = await asyncio.gather(
                engine.submit(req(seed=1)), engine.submit(req(seed=2))
            )
            accepted = engine.journal.path.read_text().count('"op":"accepted"')
            retried = await engine.submit(req(seed=2))
            return first, refused, accepted, retried

        first, refused, accepted, retried = run_engine(
            tmp_path / "svc", scenario, workers=1, queue_depth=1
        )
        assert first["status"] == "ok"
        assert refused["status"] == "backpressure"
        assert refused["retry_after_s"] == 0.5
        assert response_http_status(refused)[0] == 429
        assert accepted == 1  # the refusal wrote nothing
        assert retried["status"] == "ok", retried
        assert retried["verdict"]["fingerprint"] == direct_fingerprint(
            "helgrind-lib-spin7", seed=2
        )

    def test_oom_retry_requeues_past_a_full_queue(self, tmp_path):
        from repro.harness.parallel import WorkerExit

        engine = Engine(tmp_path / "svc", workers=1, queue_depth=1)
        try:
            sub = validate_request(req())
            key, unit = engine._content_key(sub)
            engine.inflight[key] = engine._cell(key, sub, unit, time.monotonic())
            engine.queue.append("another-key")  # the queue is full
            engine._handle_exit(
                WorkerExit(token=key, kind="oom", payload=1 << 30, attempt=1, degraded=False)
            )
            assert list(engine.queue) == ["another-key", key]
            assert engine.inflight[key].degraded and engine.inflight[key].attempt == 2
        finally:
            engine.journal.close()
            engine.pool.shutdown()

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


class TestSchedulingWakes:
    """The scheduling loop sleeps until a worker has news, a deadline is
    due, or a request arrives — not on a fixed timer."""

    def test_a_running_request_costs_polls_per_heartbeat_not_per_tick(self, tmp_path):
        polls = []

        async def scenario(engine):
            poll = engine.pool.poll

            def counting():
                polls.append(time.monotonic())
                return poll()

            engine.pool.poll = counting
            t0 = time.monotonic()
            resp = await engine.submit(source_req(SPIN_SOURCE, max_steps=300_000))
            return resp, t0, time.monotonic()

        resp, t0, t1 = run_engine(tmp_path / "svc", scenario, workers=1)
        assert resp["status"] == "ok", resp
        assert resp["verdict"]["run_status"] == "step-limit"
        # One wake per 50 ms heartbeat plus a few for submit and exit; a
        # 5 ms timer would poll about 60 times over a 0.3 s request.
        during = [t for t in polls if t0 <= t <= t1]
        assert len(during) <= 4 + 2 * (t1 - t0) / 0.05, (len(during), t1 - t0)

    def test_heartbeats_keep_shedding_prompt_while_workers_are_busy(
        self, tmp_path, monkeypatch
    ):
        async def scenario(engine):
            busy = asyncio.ensure_future(
                engine.submit(source_req(SPIN_SOURCE, max_steps=1_500_000))
            )
            await asyncio.sleep(0.1)
            queued = asyncio.ensure_future(engine.submit(req()))
            await asyncio.sleep(0.01)
            assert len(engine.queue) == 1  # the only worker is busy
            monkeypatch.setenv(FORCE_PRESSURE_ENV, "critical")
            shed = await asyncio.wait_for(queued, 0.5)
            still_running = not busy.done()
            monkeypatch.delenv(FORCE_PRESSURE_ENV)
            return shed, still_running, await busy

        shed, still_running, busy = run_engine(tmp_path / "svc", scenario, workers=1)
        assert shed["status"] == "shed"
        assert still_running
        assert busy["status"] == "ok", busy
