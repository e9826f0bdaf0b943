"""Shared infrastructure for the experiment benchmarks.

Every benchmark regenerates one table or figure of the paper and prints
it (run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables
inline; they are also echoed into the benchmark's ``extra_info``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

import pytest


def env_workers() -> int:
    """Worker processes for sweep-shaped benchmarks (``REPRO_WORKERS``).

    Defaults to 0 (serial in-process) so benchmark timings stay
    comparable; set ``REPRO_WORKERS=4`` to fan the experiment sweeps out.
    Scores are identical either way — the parallel runner is bit-exact.
    """
    return int(os.environ.get("REPRO_WORKERS", "0"))


def env_cache():
    """Result cache for sweep-shaped benchmarks (``REPRO_CACHE_DIR``).

    When set, repeated benchmark invocations skip already-measured
    (workload, config, seed) triples entirely.
    """
    cache_dir: Optional[str] = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        return None
    from repro.harness.parallel import ResultCache

    return ResultCache(cache_dir)


#: the repository root: committed ``BENCH_*.json`` baselines live here
ROOT = Path(__file__).resolve().parents[1]


def golden_cells() -> Dict[str, Dict[str, dict]]:
    """Case id -> config name -> cells of the committed golden verdict
    corpus (``tests/data/golden_corpus.json``)."""
    return json.loads((ROOT / "tests" / "data" / "golden_corpus.json").read_text())["cases"]


def run_once(benchmark, fn):
    """Benchmark a whole experiment exactly once (they are minutes-scale
    aggregates, not microbenchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def golden_moved(fig, groups):
    """(group, workload, tool) of every row whose ``fig.golden`` field
    differs from its live cell in the golden verdict corpus: the report
    fingerprint under the row's tool, or the final interpreter state
    (which no detector steers, so any config's cell pins it)."""
    from repro.harness.registry import resolve_tool

    cells = golden_cells()
    source = dict(fig.groups)
    moved = []
    for group, rows in groups.items():
        for r in rows:
            case = cells[f"{source[group]}/{r['workload']}"]
            if fig.golden == "state":
                cell = case["drd"]["live"]
                want = (cell["status"], cell["steps"], cell["outputs"], cell["memory"])
            else:
                config = next(name for name in case if resolve_tool(name).name == r["tool"])
                want = case[config]["live"]["fingerprint"]
            if r[fig.golden] != want:
                moved.append((group, r["workload"], r.get("tool")))
    return moved


def run_figure(benchmark, key: str) -> None:
    """Measure one figure and hold it to its oracle, bar and gate.

    ``REPRO_PERF_SUBSET=N`` caps each group at N workloads (F9: N requests
    per path) for the CI perf-smoke job; acceptance bars then apply only
    where the figure holds them on subsets.  A full run writes the
    figure's committed ``BENCH_*.json``; ``REPRO_BENCH_OUT`` redirects it
    (``""`` skips writing).  Either way the run is gated against the
    committed copy: the committed metric, recomputed over exactly the
    rows measured, may not be beaten by more than 30% in the figure's
    direction.
    """
    from repro.harness import perf
    from repro.harness.figures import FIGURES

    fig = FIGURES[key]
    raw = os.environ.get("REPRO_PERF_SUBSET", "")
    subset = int(raw) if raw else 0
    groups = run_once(benchmark, lambda: perf.measure(fig, limit=subset))
    print()
    print(perf.render(fig, groups))
    for group, rows in groups.items():
        for name, v in perf.summarize(fig, rows).items():
            benchmark.extra_info[f"{group}_{name}"] = round(v, 3) if isinstance(v, float) else v

    if fig.golden:
        moved = golden_moved(fig, groups)
        assert not moved, f"{key} rows differ from the golden corpus: {moved}"
    failed = perf.check(fig, groups, full=not subset)
    assert not failed, failed

    baseline = ROOT / fig.bench if fig.bench else None
    committed = perf.load_bench(baseline) if baseline else None
    out = os.environ.get("REPRO_BENCH_OUT")
    if out is None:
        out = str(baseline) if baseline and not subset else ""
    if out:
        perf.write_bench(out, fig, groups)
        print(f"wrote {os.path.abspath(out)}")

    result = perf.gate(fig, groups, committed)
    if result is not None:
        group, metric, bound = fig.gate
        benchmark.extra_info[f"baseline_{metric}"] = round(result.committed, 3)
        assert result.ok, (
            f"{key} {group} {metric} regressed >30%: {result.current:.4g} vs "
            f"committed {result.committed:.4g} (bound {bound:.3g}x)"
        )


@pytest.fixture(scope="session")
def suite120():
    from repro.workloads.dr_test.suite import build_suite

    return build_suite()


@pytest.fixture(scope="session")
def parsec13():
    from repro.workloads.parsec.registry import parsec_workloads

    return parsec_workloads()
