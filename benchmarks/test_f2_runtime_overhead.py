"""F2 (slide 32) — runtime with the spin feature off vs on.

The paper's claim: slight runtime overhead.  Our measure: wall-clock of
VM + detector for ``lib`` vs ``lib+spin(7)`` over the PARSEC programs,
with the bare (no detector) machine as the common baseline.

The figure is the ``f2`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f2_runtime_overhead(benchmark):
    run_figure(benchmark, "f2")
