"""Versioned request/response schema for the analysis service.

Every submission is one JSON object validated *strictly* against
schema version 1 before it touches the engine: unknown fields, a blank
``tenant``, a payload that does not match its declared ``kind``, an
unknown tool preset — each is rejected with a precise message rather
than half-accepted.  A service that journals requests durably must never
journal one it cannot replay.

Request (``v`` = 1)::

    {"v": 1, "id": "req-1", "kind": "workload",
     "workload": "racy-counter", "tool": "helgrind-lib-spin7",
     "seed": 1, "deadline_s": 30.0}

``tenant`` is optional: a client label the service checks (a non-empty
string) and otherwise ignores.

``kind`` selects the payload field:

========  ==============  =================================================
kind      payload field   meaning
========  ==============  =================================================
workload  ``workload``    registry workload name (PARSEC-style suites)
source    ``source``      assembly text, assembled server-side
trace     ``trace_b64``   base64 RPRT-framed recording, analyzed offline
========  ==============  =================================================

Responses mirror the version and echo the client ``id``; ``status`` is
one of :data:`RESPONSE_STATUSES`.  ``verdict.fingerprint`` is the
sha256 hex digest of the report's
:meth:`~repro.detectors.reports.Report.fingerprint` — bit-identical to
what a direct :func:`repro.run` of the same submission produces, which
the golden-response tests assert.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.detectors import ToolConfig

__all__ = [
    "SCHEMA_VERSION",
    "REQUEST_KINDS",
    "RESPONSE_STATUSES",
    "SchemaError",
    "Submission",
    "validate_request",
    "make_response",
    "GOLDEN_REQUEST",
    "GOLDEN_RESPONSE",
]

#: bump on incompatible request/response layout changes
SCHEMA_VERSION = 1

REQUEST_KINDS = ("workload", "source", "trace")

RESPONSE_STATUSES = (
    "ok",            # analyzed (or served from cache/journal)
    "degraded",      # analyzed under pressure in streaming-replay mode
    "backpressure",  # admission queue full
    "shed",          # accepted load dropped under critical pressure
    "invalid",       # request failed schema validation
    "error",         # analysis failed (crash, deadline, poison)
)

#: payload field per kind — exactly one must be present, matching kind
_PAYLOAD_FIELDS = {"workload": "workload", "source": "source", "trace": "trace_b64"}

_KNOWN_FIELDS = frozenset(
    {"v", "id", "tenant", "kind", "tool", "seed", "max_steps", "deadline_s"}
    | set(_PAYLOAD_FIELDS.values())
)

#: documentation/test fixture: a canonical valid request and the shape
#: of its response (dynamic fields elided)
GOLDEN_REQUEST = {
    "v": 1,
    "id": "req-1",
    "kind": "workload",
    "workload": "racy-counter",
    "tool": "helgrind-lib-spin7",
    "seed": 1,
    "deadline_s": 30.0,
}

GOLDEN_RESPONSE = {
    "v": 1,
    "id": "req-1",
    "status": "ok",
    "cached": False,
    "degraded": False,
    "verdict": {
        "fingerprint": "<sha256 of Report.fingerprint()>",
        "tool": "Helgrind+ lib+spin(7)",
        "seed": 1,
        "run_status": "ok",
        "racy_contexts": 1,
        "warnings": 1,
        "summary": "...",
    },
    "duration_s": 0.42,
}


class SchemaError(ValueError):
    """A request failed strict validation; ``str(exc)`` names the field."""


@dataclass(frozen=True)
class Submission:
    """One validated request, payload decoded and tool preset resolved."""

    kind: str
    id: Optional[str] = None
    workload: Optional[str] = None
    source: Optional[str] = None
    trace_bytes: Optional[bytes] = field(default=None, repr=False)
    tool: str = "helgrind-lib-spin7"
    seed: Optional[int] = None
    max_steps: Optional[int] = None
    deadline_s: Optional[float] = None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def validate_request(obj: object) -> Submission:
    """Strictly validate one request object; raises :class:`SchemaError`.

    Strict means *reject, never coerce*: unknown fields, wrong types,
    payload/kind mismatches and unknown tool presets all fail with a
    message precise enough for the client to fix the request.
    """
    _require(isinstance(obj, dict), f"request must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - _KNOWN_FIELDS)
    _require(not unknown, f"unknown field(s): {', '.join(unknown)}")
    _require("v" in obj, "missing required field 'v'")
    _require(
        obj["v"] == SCHEMA_VERSION,
        f"unsupported schema version {obj['v']!r}; this server speaks v={SCHEMA_VERSION}",
    )

    if "tenant" in obj:
        tenant = obj["tenant"]
        _require(
            isinstance(tenant, str) and tenant.strip() != "",
            "'tenant' is optional but must be a non-empty string when given",
        )

    kind = obj.get("kind")
    _require(
        kind in REQUEST_KINDS,
        f"'kind' must be one of {REQUEST_KINDS}, got {kind!r}",
    )
    payload_field = _PAYLOAD_FIELDS[kind]
    present = [f for f in _PAYLOAD_FIELDS.values() if f in obj]
    _require(
        present == [payload_field],
        f"kind={kind!r} takes exactly the {payload_field!r} payload field, "
        f"got {present or 'none'}",
    )
    payload = obj[payload_field]
    _require(
        isinstance(payload, str) and payload != "",
        f"{payload_field!r} must be a non-empty string",
    )

    rid = obj.get("id")
    _require(
        rid is None or isinstance(rid, str),
        f"'id' must be a string, got {type(rid).__name__}",
    )

    tool = obj.get("tool", "helgrind-lib-spin7")
    _require(isinstance(tool, str), "'tool' must be a preset name string")
    try:
        ToolConfig.preset(tool)
    except KeyError as exc:
        raise SchemaError(str(exc.args[0]) if exc.args else f"unknown tool {tool!r}") from None

    seed = obj.get("seed")
    _require(
        seed is None or (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0),
        f"'seed' must be a non-negative integer, got {seed!r}",
    )
    max_steps = obj.get("max_steps")
    _require(
        max_steps is None
        or (isinstance(max_steps, int) and not isinstance(max_steps, bool) and max_steps > 0),
        f"'max_steps' must be a positive integer, got {max_steps!r}",
    )
    deadline_s = obj.get("deadline_s")
    _require(
        deadline_s is None
        or (isinstance(deadline_s, (int, float)) and not isinstance(deadline_s, bool) and deadline_s > 0),
        f"'deadline_s' must be a positive number, got {deadline_s!r}",
    )

    trace_bytes: Optional[bytes] = None
    if kind == "trace":
        try:
            trace_bytes = base64.b64decode(payload, validate=True)
        except (binascii.Error, ValueError):
            raise SchemaError("'trace_b64' is not valid base64") from None
        _require(
            trace_bytes[:4] == b"RPRT",
            "'trace_b64' does not decode to an RPRT-framed recording",
        )

    return Submission(
        kind=kind,
        id=rid,
        workload=payload if kind == "workload" else None,
        source=payload if kind == "source" else None,
        trace_bytes=trace_bytes,
        tool=tool,
        seed=seed,
        max_steps=max_steps,
        deadline_s=float(deadline_s) if deadline_s is not None else None,
    )


def make_response(
    status: str,
    id: Optional[str] = None,
    verdict: Optional[dict] = None,
    error: Optional[str] = None,
    cached: bool = False,
    degraded: bool = False,
    retry_after_s: Optional[float] = None,
    duration_s: Optional[float] = None,
) -> dict:
    """Assemble one response object (the only shape the service emits)."""
    assert status in RESPONSE_STATUSES, status
    resp = {"v": SCHEMA_VERSION, "status": status, "cached": cached, "degraded": degraded}
    if id is not None:
        resp["id"] = id
    if verdict is not None:
        resp["verdict"] = verdict
    if error is not None:
        resp["error"] = error
    if retry_after_s is not None:
        resp["retry_after_s"] = retry_after_s
    if duration_s is not None:
        resp["duration_s"] = duration_s
    return resp


def response_http_status(resp: dict) -> Tuple[int, str]:
    """Map a response's ``status`` to its HTTP status line."""
    return {
        "ok": (200, "OK"),
        "degraded": (200, "OK"),
        "backpressure": (429, "Too Many Requests"),
        "shed": (503, "Service Unavailable"),
        "invalid": (400, "Bad Request"),
        "error": (500, "Internal Server Error"),
    }[resp["status"]]
