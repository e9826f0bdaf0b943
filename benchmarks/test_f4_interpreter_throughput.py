"""F4 — interpreter throughput: steps per second with no detector.

Runs the 13 PARSEC stand-ins bare on the pre-decoded threaded-code
interpreter (:mod:`repro.vm.decode`) at each workload's own seed.  Every
row's final interpreter state (status, steps, outputs, final memory)
must equal its live cell in the golden verdict corpus
(``tests/data/golden_corpus.json``): a dispatch change that altered
execution would make the number meaningless.

Results are written to ``BENCH_interpreter.json`` (set
``REPRO_BENCH_OUT=`` to skip) and compared against the committed copy
when one exists: a >30% steps/sec regression fails the run.
``REPRO_PERF_SUBSET=N`` caps the sweep at N workloads for the CI
perf-smoke job.

The figure is the ``f4`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f4_interpreter_throughput(benchmark):
    run_figure(benchmark, "f4")
