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


def golden_cells() -> Dict[str, Dict[str, dict]]:
    """Case id -> config name -> cells of the committed golden verdict
    corpus (``tests/data/golden_corpus.json``)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "golden_corpus.json"
    return json.loads(path.read_text())["cases"]


def run_once(benchmark, fn):
    """Benchmark a whole experiment exactly once (they are minutes-scale
    aggregates, not microbenchmarks)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session")
def suite120():
    from repro.workloads.dr_test.suite import build_suite

    return build_suite()


@pytest.fixture(scope="session")
def parsec13():
    from repro.workloads.parsec.registry import parsec_workloads

    return parsec_workloads()
