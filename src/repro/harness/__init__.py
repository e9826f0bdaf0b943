"""Experiment harness: run workloads under tool configurations and score.

* :mod:`repro.harness.workload` — the workload abstraction (program
  factory + ground truth);
* :mod:`repro.harness.registry` — name → workload resolution (pickling
  and cross-process dispatch);
* :mod:`repro.harness.parallel` — process-pool sweep engine with
  content-keyed result caching, per-run timeout/retry, worker
  supervision, and structured observability records;
* :mod:`repro.harness.checkpoint` — fsynced sweep journals for
  crash-safe ``resume=True`` sweeps;
* :mod:`repro.harness.triage` — failure forensics: replayable trace
  artifacts and the ddmin repro shrinker;
* :mod:`repro.harness.metrics` — suite scoring (false alarms / missed
  races / failed / correct) and racy-context averaging;
* :mod:`repro.harness.tables` — text rendering of the paper's tables;
* :mod:`repro.harness.perf` — the one bench harness: a measurement
  primitive per run kind, flat records, ratio-of-sums summaries, the
  ``BENCH_*.json`` layout and the regression gate;
* :mod:`repro.harness.figures` — every performance figure (the paper's
  F1/F2 overhead claims, F3/F4/F6/F7/F9) as a config row;
* :mod:`repro.harness.cli` — ``repro-experiments`` command line.
"""

from repro.harness.workload import Workload
from repro.harness.registry import register_workload, resolve_workload
from repro.harness.parallel import (
    ResultCache,
    RunRecord,
    RunSpec,
    SweepResult,
    SweepSummary,
    prewarm_static,
    run_sweep,
    sweep_specs,
)
from repro.harness.checkpoint import SweepJournal, spec_key, sweep_digest
from repro.harness.triage import ShrinkResult, capture_failure, shrink_failure
from repro.harness.metrics import (
    CaseScore,
    SuiteScore,
    score_case,
    score_suite,
    racy_contexts_avg,
)
from repro.harness.tables import format_table
from repro.harness.oracle import OracleVerdict, check_suite, check_workload

__all__ = [
    "Workload",
    "register_workload",
    "resolve_workload",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "ShrinkResult",
    "SweepJournal",
    "SweepResult",
    "SweepSummary",
    "capture_failure",
    "prewarm_static",
    "run_sweep",
    "shrink_failure",
    "spec_key",
    "sweep_digest",
    "sweep_specs",
    "CaseScore",
    "SuiteScore",
    "score_case",
    "score_suite",
    "racy_contexts_avg",
    "format_table",
    "OracleVerdict",
    "check_suite",
    "check_workload",
]
