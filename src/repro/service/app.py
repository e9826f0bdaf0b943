"""Service transport: HTTP JSON over the shared engine.

Dependency-free by design (the repo rule: no new packages): the HTTP
side is a minimal asyncio HTTP/1.1 server speaking exactly the three
routes the service defines, with keep-alive, ``Content-Length`` framing
and the status-code mapping :func:`repro.service.schema.
response_http_status` pins (429 for backpressure, 503 for shed, 400
for invalid).

Routes::

    POST /v1/analyze   one request object  → one response object
    GET  /v1/stats     engine counters + queue/pressure snapshot
    GET  /healthz      {"ok": true}

Lifecycle: :func:`serve` prints a single JSON *ready line* to stdout
(``{"ready": true, "port": N, "pid": P}``) once the engine has loaded
its journal and the socket is bound — supervisors and the smoke test
block on it.  SIGTERM and SIGINT both trigger the graceful path: stop
accepting, drain in-flight work briefly, flush and close the journal.
A SIGKILL instead is exactly what the journal exists for.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import sys
from pathlib import Path
from typing import Dict, Optional, Set, Union

from repro.harness.resources import ResourceBudget
from repro.service.engine import Engine
from repro.service.schema import make_response, response_http_status

__all__ = ["HttpServer", "serve", "serve_async"]

log = logging.getLogger("repro.service")

_MAX_BODY = 64 << 20  # 64 MiB: traces upload whole, sources are tiny


def _http_payload(resp: dict) -> bytes:
    body = json.dumps(resp, separators=(",", ":")).encode()
    code, reason = response_http_status(resp)
    headers = [
        f"HTTP/1.1 {code} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    if "retry_after_s" in resp:
        headers.append(f"Retry-After: {max(1, round(resp['retry_after_s']))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; returns (method, path, body) or None."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split()
    except ValueError:
        return None
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length < 0 or length > _MAX_BODY:
        return None
    body = await reader.readexactly(length) if length else b""
    close = headers.get("connection", "").lower() == "close"
    return method.upper(), path, body, close


class HttpServer:
    """The HTTP transport: an asyncio server and the connections it holds.

    Shutdown is :meth:`close` (stop accepting, end the idle keep-alive
    connections), then the engine's own shutdown, then
    :meth:`wait_closed`, which awaits every handler: a busy one answers
    its request first.  No handler is left for the closing event loop to
    cancel, which asyncio would report as an unhandled ``CancelledError``.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.server: asyncio.AbstractServer
        self.closing = False
        #: handler task -> its connection's writer
        self._handlers: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: the handlers awaiting their connection's next request
        self._idle: Set[asyncio.Task] = set()

    @classmethod
    async def start(cls, engine: Engine, host: str, port: int) -> "HttpServer":
        """Bind ``host:port`` and start accepting connections."""
        http = cls(engine)
        http.server = await asyncio.start_server(http._serve, host, port)
        return http

    @property
    def port(self) -> int:
        return self.server.sockets[0].getsockname()[1]

    async def _serve(self, reader, writer) -> None:
        """Answer one connection's requests until it closes or we do."""
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while not self.closing:
                self._idle.add(task)
                try:
                    req = await _read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                finally:
                    self._idle.discard(task)
                if req is None:
                    return
                method, path, body, close = req
                writer.write(_http_payload(await self._respond(method, path, body)))
                await writer.drain()
                if close:
                    return
        except ConnectionError:
            pass
        finally:
            del self._handlers[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, method: str, path: str, body: bytes) -> dict:
        engine = self.engine
        if method == "POST" and path == "/v1/analyze":
            try:
                obj = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                return make_response("invalid", error="request body is not JSON")
            return await engine.submit(obj)
        if method == "GET" and path == "/v1/stats":
            resp = dict(engine.stats_snapshot())
            resp["status"] = "ok"
            resp["v"] = 1
            return resp
        if method == "GET" and path == "/healthz":
            return {"v": 1, "status": "ok", "ok": True}
        return make_response("invalid", error=f"no route {method} {path}")

    def close(self) -> None:
        """Stop accepting and end every connection idle between requests."""
        self.closing = True
        self.server.close()
        for task in self._idle:
            self._handlers[task].close()

    async def wait_closed(self) -> None:
        """Await the server and every connection handler."""
        await self.server.wait_closed()
        await asyncio.gather(*self._handlers, return_exceptions=True)


async def serve_async(
    work_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    queue_depth: int = 32,
    default_deadline_s: float = 60.0,
    budget: Optional[ResourceBudget] = None,
    ready_stream=None,
) -> None:
    """Run the daemon until SIGTERM/SIGINT."""
    engine = Engine(
        work_dir,
        workers=workers,
        queue_depth=queue_depth,
        default_deadline_s=default_deadline_s,
        budget=budget,
    )
    await engine.startup()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, ValueError):  # pragma: no cover
            pass

    http = await HttpServer.start(engine, host, port)
    bound_port = http.port
    ready = ready_stream if ready_stream is not None else sys.stdout
    import os

    ready.write(
        json.dumps({"ready": True, "port": bound_port, "pid": os.getpid()}) + "\n"
    )
    ready.flush()
    log.info("serving on %s:%d (work_dir=%s)", host, bound_port, work_dir)

    try:
        await stop.wait()
    finally:
        http.close()
        await engine.shutdown()
        await http.wait_closed()
        log.info("drained and stopped")


def serve(**kwargs) -> None:
    """Synchronous entry point (the CLI's ``serve`` subcommand)."""
    asyncio.run(serve_async(**kwargs))
