#!/usr/bin/env python
"""Crash-safety smoke test for the analysis service daemon.

1. Starts the daemon (``repro.harness.cli serve``), waits for the ready
   line, and drives concurrent clients: every
   verdict must come back ``ok`` and the fingerprint must be identical
   to a direct in-process ``repro.run`` of the same cell.  Resubmitting
   the same requests must be served from the verdict index with the
   ``executed`` counter unchanged (zero recomputation).  A second batch
   of fresh requests must run on the same worker processes as the
   first (the daemon's children, read from ``/proc``): no request forks.
2. Fires a fresh batch of concurrent requests and SIGKILLs the whole
   daemon process group once all are journaled ``accepted`` but not all
   ``done`` — the crash window the journal exists for.
3. Restarts the daemon on the same state directory and asserts the
   journal drain: every accepted-but-unfinished request is re-run to a
   ``done`` verdict without client involvement, completed verdicts are
   served from the index with zero recomputation, and a pre-kill
   verdict resubmitted after the restart is fingerprint-identical.
4. Starts a deliberately tiny daemon (1 worker, queue depth 2) and
   floods it: at least one client must get an explicit HTTP 429
   ``backpressure`` response with ``retry_after_s`` — never a hang —
   while the admitted requests still complete ``ok``.

Exits non-zero (with a message) on any violation.  Used by the CI
``service-smoke`` job; safe to run locally from the repo root.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from _smoke_common import REPO, fail, sigkill_group, workdir

WORKLOAD = "locks_mutex_counter_t2"
TOOL = "helgrind-lib-spin7"
MAX_STEPS = 60_000


def request(seed: int) -> dict:
    return {
        "v": 1,
        "kind": "workload",
        "workload": WORKLOAD,
        "tool": TOOL,
        "seed": seed,
        "max_steps": MAX_STEPS,
    }


def start_daemon(
    state: Path, *, workers: int, queue_depth: int, timeout_s: float = 90.0
):
    """Launch ``serve`` and block on its JSON ready line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness.cli", "serve",
            "--work-dir", str(state),
            "--port", "0",
            "--workers", str(workers),
            "--queue-depth", str(queue_depth),
        ],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,  # so SIGKILL takes the workers down too
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"daemon exited (rc={proc.returncode}) before the ready line")
        readable, _, _ = select.select([proc.stdout], [], [], 0.2)
        if not readable:
            continue
        line = proc.stdout.readline()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if obj.get("ready"):
            return proc, int(obj["port"])
    fail(f"daemon printed no ready line in {timeout_s:.0f}s")


def post(port: int, req: dict, timeout: float = 180.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", "/v1/analyze", json.dumps(req).encode(),
            {"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def get_stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/v1/stats")
        return json.loads(conn.getresponse().read().decode("utf-8"))
    finally:
        conn.close()


def post_threads(port: int, reqs):
    """Start one posting thread per request; returns (threads, results)."""
    results = [None] * len(reqs)

    def worker(idx: int, req: dict) -> None:
        try:
            results[idx] = post(port, req)
        except (OSError, ValueError) as exc:  # daemon killed mid-request
            results[idx] = ("transport", str(exc))

    threads = [
        threading.Thread(target=worker, args=(i, r)) for i, r in enumerate(reqs)
    ]
    for t in threads:
        t.start()
    return threads, results


def post_concurrent(port: int, reqs):
    threads, results = post_threads(port, reqs)
    for t in threads:
        t.join()
    return results


def journal_ops(state: Path):
    """(accepted keys, done keys) from the daemon's request journal."""
    path = state / "journal" / "requests.jsonl"
    accepted, done = set(), set()
    if path.exists():
        for line in path.read_text().splitlines()[1:]:
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # torn tail: the daemon truncates it on load
            if obj.get("op") == "accepted":
                accepted.add(obj["key"])
            elif obj.get("op") == "done":
                done.add(obj["key"])
    return accepted, done


def direct_fingerprint(seed: int) -> str:
    import repro

    return repro.run(WORKLOAD, TOOL, seed=seed, max_steps=MAX_STEPS).fingerprint


def worker_pids(pid: int) -> set:
    """The daemon's child processes — its pool workers — from /proc."""
    pids = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        pids.update(int(p) for p in path.read_text().split())
    return pids


def graceful_stop(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=60)
    if rc != 0:
        fail(f"daemon did not exit cleanly on SIGTERM (rc={rc})")


def warm_and_identity_check(state: Path, proc, port: int) -> dict:
    seeds = list(range(1, 7))
    reqs = [request(s) for s in seeds]
    print(f"submitting {len(reqs)} concurrent requests ...")
    results = post_concurrent(port, reqs)
    fingerprints = {}
    for (code, body), seed in zip(results, seeds):
        if code != 200 or body.get("status") != "ok":
            fail(f"warm request seed={seed} failed: {code} {body}")
        fingerprints[seed] = body["verdict"]["fingerprint"]
    if fingerprints[seeds[0]] != direct_fingerprint(seeds[0]):
        fail("served fingerprint diverged from a direct repro.run")
    stats = get_stats(port)
    if stats["executed"] != len(reqs):
        fail(f"expected {len(reqs)} executions, stats say {stats['executed']}")

    for seed, req in zip(seeds, reqs):
        code, body = post(port, req)
        if code != 200 or not body.get("cached"):
            fail(f"resubmitted seed={seed} was not served cached: {code} {body}")
        if body["verdict"]["fingerprint"] != fingerprints[seed]:
            fail(f"cached verdict for seed={seed} diverged")
    stats = get_stats(port)
    if stats["executed"] != len(reqs):
        fail("resubmission recomputed instead of serving the verdict index")

    workers = worker_pids(proc.pid)
    if len(workers) != 2:
        fail(f"expected the daemon's 2 pool workers, /proc lists {sorted(workers)}")
    fresh = [request(s) for s in range(101, 107)]
    for code, body in post_concurrent(port, fresh):
        if code != 200 or body.get("status") != "ok":
            fail(f"second batch request failed: {code} {body}")
    if get_stats(port)["executed"] != len(reqs) + len(fresh):
        fail("second batch did not execute every fresh request")
    if worker_pids(proc.pid) != workers:
        fail(
            f"second batch forked: workers {sorted(workers)} became "
            f"{sorted(worker_pids(proc.pid))}"
        )
    print(
        f"warm OK: {len(reqs)} verdicts, fingerprints identical to direct "
        f"runs, resubmission served with zero recomputation, a second "
        f"batch of {len(fresh)} ran on the same {len(workers)} workers"
    )
    return fingerprints


def kill_mid_flight(state: Path, proc, port: int) -> set:
    reqs = [request(s) for s in (301, 302, 303, 304)]
    accepted_before, done_before = journal_ops(state)
    print(f"submitting {len(reqs)} requests and SIGKILLing mid-flight ...")
    threads, _results = post_threads(port, reqs)
    deadline = time.monotonic() + 60
    try:
        while True:
            accepted, done = journal_ops(state)
            new_accepted = accepted - accepted_before
            if len(new_accepted) >= len(reqs):
                break
            if time.monotonic() > deadline:
                fail("requests were not journaled as accepted in 60s")
            time.sleep(0.001)
    finally:
        sigkill_group(proc)
    for t in threads:
        t.join()
    accepted, done = journal_ops(state)
    pending = accepted - done
    if not pending:
        fail("every request completed before the kill landed; no crash window")
    print(f"killed with {len(pending)}/{len(reqs)} accepted requests unfinished")
    return pending


def restart_drain_check(state: Path, pending: set, fingerprints: dict) -> None:
    proc, port = start_daemon(state, workers=2, queue_depth=16)
    try:
        deadline = time.monotonic() + 120
        while True:
            stats = get_stats(port)
            if stats["inflight"] == 0 and stats["queued"] == 0 and stats["running"] == 0:
                break
            if time.monotonic() > deadline:
                fail("restart drain did not finish in 120s")
            time.sleep(0.05)
        if stats["drained"] != len(pending):
            fail(
                f"expected {len(pending)} drained request(s), "
                f"stats say {stats['drained']}"
            )
        if stats["executed"] != len(pending):
            fail("restart executed more than the journaled in-flight tail")
        accepted, done = journal_ops(state)
        if accepted - done:
            fail(f"journal still holds unfinished keys after drain: {accepted - done}")

        # Resubmissions of killed requests: verdicts now exist, served
        # from the index without recomputation.
        for seed in (301, 302, 303, 304):
            code, body = post(port, request(seed))
            if code != 200 or body.get("status") != "ok" or not body.get("cached"):
                fail(f"drained seed={seed} not served from the index: {code} {body}")
        # And a pre-kill verdict survives the restart bit-identically.
        code, body = post(port, request(1))
        if code != 200 or not body.get("cached"):
            fail(f"pre-kill verdict not cached across restart: {code} {body}")
        if body["verdict"]["fingerprint"] != fingerprints[1]:
            fail("pre-kill verdict fingerprint changed across restart")
        if get_stats(port)["executed"] != len(pending):
            fail("post-drain resubmissions recomputed instead of index hits")
        print(
            f"restart OK: {len(pending)} journaled request(s) drained to "
            f"verdicts, cached verdicts identical across the kill, zero "
            f"recomputation for completed keys"
        )
    finally:
        graceful_stop(proc)


def backpressure_check(work: Path) -> None:
    state = work / "state-bp"
    proc, port = start_daemon(state, workers=1, queue_depth=2)
    try:
        reqs = [request(s) for s in range(401, 409)]
        print(f"flooding 1-worker/depth-2 daemon with {len(reqs)} concurrent requests ...")
        results = post_concurrent(port, reqs)
        refused = [r for r in results if r[0] == 429]
        served = [r for r in results if r[0] == 200 and r[1].get("status") == "ok"]
        if not refused:
            fail("full admission queue never produced an HTTP 429")
        for code, body in refused:
            if body.get("status") != "backpressure" or "retry_after_s" not in body:
                fail(f"429 response malformed: {body}")
        if len(served) + len(refused) != len(reqs):
            fail(f"unexpected responses under flood: {results}")
        print(
            f"backpressure OK: {len(refused)} explicit 429(s) with "
            f"retry_after_s, {len(served)} admitted requests served"
        )
    finally:
        graceful_stop(proc)


def main() -> None:
    with workdir(".repro-service-smoke") as work:
        state = work / "state"
        proc, port = start_daemon(state, workers=2, queue_depth=16)
        killed = False
        try:
            fingerprints = warm_and_identity_check(state, proc, port)
            pending = kill_mid_flight(state, proc, port)
            killed = True
        finally:
            if not killed:
                sigkill_group(proc)
        restart_drain_check(state, pending, fingerprints)
        backpressure_check(work)
    print("service smoke: all checks passed")


if __name__ == "__main__":
    main()
