"""F7 — streaming-decode peak memory: bounded-memory vs in-memory analysis.

Records the largest PARSEC stand-in traces once each, then analyzes
every recording two ways in fresh interpreters with
:func:`repro.trace.analyze_trace`: materialized (``TraceStore.get``, a
``Trace`` with decoded columns) and streamed (``TraceStore.open_stream``,
a ``Trace`` whose :class:`~repro.trace.FileColumns` decode bounded
chunks off the file).  The
probe children report the peak traced allocation of the store-read +
analysis region (``tracemalloc``; byte-precise and deterministic, where
``ru_maxrss`` carries kilobyte granularity and import-transient slack)
plus whole-process peak RSS as supporting data.

The acceptance bar is a >=4x peak-memory reduction on *every* measured
row — these are exactly the traces where decode strategy moves peak
memory, so the bar holds on subsets too — with the streamed report
fingerprint byte-identical to the in-memory one on every row.  Results
are written to ``BENCH_streaming.json`` (set ``REPRO_BENCH_OUT=`` to
skip) and compared against the committed copy when one exists: a >30%
growth in streamed peak allocation fails the run.

``REPRO_PERF_SUBSET=N`` caps the measurement at N workloads for the CI
perf-smoke job (largest first).

The figure is the ``f7`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f7_streaming_memory(benchmark):
    run_figure(benchmark, "f7")
