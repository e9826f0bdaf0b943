"""Race-detection-as-a-service: the crash-safe analysis daemon.

The hardened front-end over the one-call :func:`repro.run` seam —
submissions (registry workloads, assembly sources, RPRT trace uploads)
arrive over HTTP JSON, are validated against a strict
versioned schema, admitted to a bounded FIFO queue (a full queue
answers ``backpressure``), journaled durably, scheduled onto the supervised
:class:`~repro.harness.parallel.WorkerPool`, and answered with verdicts
whose report fingerprints are bit-identical to direct session runs.

Layering (one module per concern)::

    schema.py    versioned request/response validation, golden examples
    journal.py   fsynced request journal + trace-upload spool
    engine.py    the shared asyncio engine (queue → pool → verdict)
    app.py       HTTP transport, daemon lifecycle
    client.py    the ``repro-service-client`` command

See ``docs/internals.md`` §13 for the architecture and failure matrix.
"""

from repro.service.engine import Engine, report_fingerprint_hex
from repro.service.journal import RequestJournal
from repro.service.schema import (
    SCHEMA_VERSION,
    SchemaError,
    Submission,
    make_response,
    validate_request,
)

__all__ = [
    "Engine",
    "RequestJournal",
    "SCHEMA_VERSION",
    "SchemaError",
    "Submission",
    "make_response",
    "report_fingerprint_hex",
    "validate_request",
]
