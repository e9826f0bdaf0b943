"""F3 — analysis-pipeline throughput: events per analysis-second.

Sweeps the 120-case dr_test suite and the 13 PARSEC stand-ins under
``helgrind-lib`` (spin off) and ``helgrind-lib-spin7`` (spin on) at each
workload's own seed.  Throughput is events per second of *analysis
time* (detector wall-clock minus the bare interpreter baseline — the F2
accounting).  Every row's report fingerprint must equal its cell in the
golden verdict corpus (``tests/data/golden_corpus.json``): a throughput
number from a pipeline that changed verdicts would be meaningless.

Results are written to ``BENCH_pipeline.json`` (set ``REPRO_BENCH_OUT=``
to skip) and compared against the committed copy when one exists: a
>30% wall events/sec regression on the t1 suite fails the run.
``REPRO_PERF_SUBSET=N`` caps both sweeps at N workloads for the CI
perf-smoke job.

The figure is the ``f3`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f3_pipeline_throughput(benchmark):
    run_figure(benchmark, "f3")
