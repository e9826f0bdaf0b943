"""HTTP transport: framing, routes, status codes, keep-alive."""

import asyncio
import json
import logging
import os
import signal

from repro.service.app import HttpServer, serve_async
from repro.service.engine import Engine

WORKLOAD = "locks_mutex_counter_t2"


def http_roundtrip(tmp_path, requests):
    """Serve one engine over a real socket; returns [(code, body), ...]."""

    async def main():
        engine = Engine(tmp_path / "svc", workers=2)
        await engine.startup()
        http = await HttpServer.start(engine, "127.0.0.1", 0)
        port = http.port
        results = []
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for method, path, body in requests:
                payload = body.encode() if body else b""
                writer.write(
                    (
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: localhost\r\n"
                        f"Content-Length: {len(payload)}\r\n\r\n"
                    ).encode()
                    + payload
                )
                await writer.drain()
                status_line = await reader.readline()
                code = int(status_line.split()[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                results.append((code, json.loads(await reader.readexactly(length))))
            writer.close()
            await writer.wait_closed()
        finally:
            http.close()
            await engine.shutdown(drain_s=2.0)
            await http.wait_closed()
        return results

    return asyncio.run(main())


def test_analyze_stats_and_health_over_one_connection(tmp_path):
    analyze = json.dumps(
        {
            "v": 1,
            "tenant": "t",
            "kind": "workload",
            "workload": WORKLOAD,
            "seed": 1,
            "max_steps": 60_000,
        }
    )
    results = http_roundtrip(
        tmp_path,
        [
            ("GET", "/healthz", None),
            ("POST", "/v1/analyze", analyze),
            ("POST", "/v1/analyze", analyze),  # keep-alive: same socket
            ("GET", "/v1/stats", None),
        ],
    )
    (h_code, health), (a_code, first), (b_code, second), (s_code, stats) = results
    assert h_code == 200 and health["ok"] is True
    assert a_code == 200 and first["status"] == "ok"
    assert b_code == 200 and second["cached"] is True
    assert second["verdict"]["fingerprint"] == first["verdict"]["fingerprint"]
    assert s_code == 200 and stats["executed"] == 1


def test_error_routes_map_to_http_codes(tmp_path):
    results = http_roundtrip(
        tmp_path,
        [
            ("POST", "/v1/analyze", "{not json"),
            ("POST", "/v1/analyze", json.dumps({"v": 99})),
            ("GET", "/no/such/route", None),
        ],
    )
    codes = [code for code, _ in results]
    assert codes == [400, 400, 400]
    assert all(body["status"] == "invalid" for _, body in results)
    assert "v=1" in results[1][1]["error"]


def test_shutdown_with_an_idle_keep_alive_connection_logs_no_error(
    tmp_path, caplog
):
    """A client keeps its connection open after its last request while
    the daemon stops.  The handler awaiting that connection's next
    request must end with the daemon: one left for the closing loop to
    cancel makes asyncio log an unhandled ``CancelledError``."""

    async def main():
        loop = asyncio.get_running_loop()
        port = loop.create_future()

        class Ready:
            def write(self, line):
                port.set_result(json.loads(line)["port"])

            def flush(self):
                pass

        daemon = asyncio.ensure_future(
            serve_async(tmp_path / "svc", workers=1, ready_stream=Ready())
        )
        reader, writer = await asyncio.open_connection("127.0.0.1", await port)
        writer.write(b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n")
        await writer.drain()
        assert b" 200 " in await reader.readline()
        os.kill(os.getpid(), signal.SIGTERM)  # the daemon's graceful stop
        await asyncio.wait_for(daemon, 30)
        # No await past this point: the server must not learn of the
        # close before the loop shuts down.
        writer.transport.abort()

    prev = signal.getsignal(signal.SIGTERM)
    try:
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            asyncio.run(main())
    finally:
        signal.signal(signal.SIGTERM, prev)
    errors = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    assert errors == []
