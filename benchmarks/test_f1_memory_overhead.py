"""F1 (slide 31) — memory consumption with the spin feature off vs on.

The paper's claim is qualitative: the new feature adds only *minor*
memory overhead.  Our measure is the detector-state footprint (shadow
memory, vector clocks, locksets, reports) plus the instrumentation
marker tables and ad-hoc engine state, in words.

The figure is the ``f1`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f1_memory_overhead(benchmark):
    run_figure(benchmark, "f1")
