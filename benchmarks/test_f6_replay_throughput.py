"""F6 — replay throughput: stored-trace analysis vs live execution.

Records each of the 13 PARSEC stand-ins once (the trace store's
record-once convention: instrumentation widened to cover every tool in
the sweep), then analyzes the recording under three tool presets —
``helgrind-lib``, ``helgrind-lib-spin7``, ``drd`` — and compares against
running each preset live.  Replay delivers the recorded event stream
straight to the detector (:func:`repro.trace.analyze_trace`); no VM is
in the loop, so events per second measures what re-analysis costs once a
cell is recorded.

The acceptance bar is a >=5x aggregate re-analysis speedup over live on
the full sweep, with the replayed report fingerprint byte-identical to
the live run's on every row — a fast replay that changed verdicts would
be worthless.  Results are written to ``BENCH_replay.json`` (set
``REPRO_BENCH_OUT=`` to skip) and compared against the committed copy
when one exists: a >30% replay events/sec regression fails the run.

``REPRO_PERF_SUBSET=N`` caps the sweep at N workloads for the CI
perf-smoke job; the 5x bar is only enforced on the full sweep (small
subsets are timer-noise dominated), the regression gate and the
fingerprint oracle always are.

The figure is the ``f6`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f6_replay_throughput(benchmark):
    run_figure(benchmark, "f6")
