"""Execution traces: record once, analyze under many tool configurations.

A dynamic race detector's verdict depends on the observed interleaving.
When comparing tool configurations it is therefore desirable to feed all
of them the *same* execution — which is exactly what Valgrind-based
tools cannot easily do (each run re-executes the program), but a
deterministic substrate can.

:func:`record_trace` executes a program once, with instrumentation wide
enough for any spin window, and captures the full event stream as
columns (:class:`EventColumns`) plus the metadata needed to re-filter it
per configuration (each marked loop's effective block count, the symbol
map).  :func:`analyze_trace` then runs any
:class:`~repro.detectors.ToolConfig` over the recorded rows with no VM
in the loop — from a :class:`Trace` in memory or from one opened off a
file, whose :class:`FileColumns` decode the rows in bounded chunks
without materializing them — and its report fingerprint is
bit-identical to a live run's:

* the rows reach the same detector kernel a live run's VM flush feeds
  (``consume_batch``), which drops what the configuration ignores
  (marked-loop rows without spin, library traffic in lib mode,
  bookkeeping) inline;
* ``spin(k)`` configurations ignore marker rows of loops wider than ``k``;
* lib/nolib interception works unchanged (rows carry ``in_library``);
* lock-inference configurations get the recorded acquire sites;
* the report is finalized from the trace's termination status so
  partial (deadlock/livelock/fault-truncated) runs replay faithfully.

:class:`TraceStore` persists recordings content-addressed by
``(program fingerprint, scheduler, seed, instrumentation, faults)`` —
compressed, checksummed, and quarantined-on-corruption like the sweep
result cache — so one recording can serve any number of offline
analyses.  Store-backed replays (sweep cells, ``trace analyze``, service
uploads) open their recording through :meth:`TraceStore.open_stream`
instead of materializing it.  Outside a store a recording is one framed
file: :func:`save_trace_file` writes it and :func:`open_trace_file`
opens it the same way.  Either way the result is a :class:`Trace`, the
one recording type.
"""

from repro.trace.trace import (
    EventColumns,
    Trace,
    analyze_trace,
    record_trace,
    replay_trace,
    synthesize_result,
)
from repro.trace.stream import FileColumns, TraceStreamCorruption
from repro.trace.store import (
    TraceStore, key_for_spec, open_trace_file, save_trace_file, trace_key,
)
from repro.trace.hbgraph import HbGraph, HbNode, build_hb_graph

__all__ = [
    "EventColumns",
    "FileColumns",
    "Trace",
    "TraceStore",
    "TraceStreamCorruption",
    "analyze_trace",
    "record_trace",
    "replay_trace",
    "synthesize_result",
    "key_for_spec",
    "open_trace_file",
    "save_trace_file",
    "trace_key",
    "HbGraph",
    "HbNode",
    "build_hb_graph",
]
