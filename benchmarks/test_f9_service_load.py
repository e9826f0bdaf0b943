"""F9 — service load: requests/s and latency on cold, cached, degraded paths.

Boots the real daemon (engine + HTTP transport on an ephemeral port) and
drives it with concurrent clients spread over two tenants, three ways:
**cold** (seed-varied submissions, every one executed on the worker
pool), **cached** (the same submissions again, served from the journaled
verdict index with zero recomputation), and **degraded** (fresh seeds
under forced resource pressure, analyzed as streaming trace replays).

The correctness oracle is absolute: every cold verdict's fingerprint is
checked against a direct in-process ``repro.run`` of the same cell, and
any non-expected response status counts as an error.  Either failing
fails the benchmark unconditionally.

The performance bar is the journal's whole point: cached p99 latency
must be >=10x faster than cold p99 — a served-from-index verdict that
costs anything like a re-analysis means the durability layer is not
actually short-circuiting work.  Enforced on the full sweep only (tiny
subsets make percentiles degenerate).  The regression gate always
applies: a >30%-equivalent cold p50 latency increase against the
committed ``BENCH_service.json`` fails the run — per-request latency,
unlike aggregate requests/s, is comparable across subset sizes (a
4-request fan-out pays warmup and tail effects that say nothing about
per-request cost).

``REPRO_PERF_SUBSET=N`` caps the sweep at N requests per path for the
CI perf-smoke job; ``REPRO_BENCH_OUT=`` skips writing the JSON.

The figure is the ``f9`` config row of
:data:`repro.harness.figures.FIGURES`, measured and gated by
:func:`benchmarks.conftest.run_figure`.
"""

from benchmarks.conftest import run_figure


def test_f9_service_load(benchmark):
    run_figure(benchmark, "f9")
