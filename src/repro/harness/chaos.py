"""The chaos sweep: run every fault class against its oracle.

Executes the :mod:`repro.workloads.dr_test.faults` cases as one
:func:`~repro.harness.parallel.run_sweep` and verifies each run against
its pinned expectation:

* the harness status is one the case allows (``livelock``/``fault``/
  ``ok`` — never ``error`` or ``crash``: detectors must not raise on
  truncated or faulted streams);
* a livelocked run's :class:`~repro.vm.faults.LivelockReport` names the
  expected stuck loop and condition symbol;
* expected condvar protocol notes (lost signal, spurious wake-up) are
  present on the report.

Infrastructure failures (a worker that times out, crashes, errors or
hangs) are retried by the sweep's own ``retries``, under its journal,
heartbeat and poison supervision.  Oracle *mismatches* are never
retried: the runs are deterministic, so a mismatch is a bug, not
flakiness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.detectors import ToolConfig
from repro.harness.parallel import ResultCache, RunRecord, RunSpec, run_sweep
from repro.harness.resources import ResourceBudget
from repro.harness.registry import resolve_tool
from repro.harness.runner import RunOutcome
from repro.harness.triage import CaptureUnit, capture_failures, chaos_oracle_predicate
from repro.workloads.dr_test.faults import ChaosCase, chaos_cases


@dataclass(frozen=True)
class CaseVerdict:
    """One chaos case checked against its oracle."""

    case: str
    workload: str
    fault_class: str
    status: str
    passed: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Everything a chaos sweep produced."""

    verdicts: List[CaseVerdict] = field(default_factory=list)
    records: List[RunRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> List[CaseVerdict]:
        return [v for v in self.verdicts if not v.passed]

    @property
    def ok(self) -> bool:
        return not self.failed


def chaos_spec(case: ChaosCase, config: ToolConfig) -> RunSpec:
    """The :class:`RunSpec` executing one chaos case."""
    return RunSpec(
        workload=case.workload,
        config=config,
        seed=case.seed,
        fault_plan=case.plan,
        livelock_bound=case.livelock_bound,
    )


def verify_case(
    case: ChaosCase, record: RunRecord, outcome: Optional[RunOutcome]
) -> CaseVerdict:
    """Check one run against the case's pinned expectations."""
    problems: List[str] = []
    status = record.status
    if record.failed:
        problems.append(f"infrastructure failure: {status} {record.error}".strip())
    elif status == "cached":
        # A cache hit replays the stored outcome; re-derive the status it
        # would have had so the oracle still applies.
        status = outcome.result.status if outcome is not None else "cached"
        if status in ("deadlock", "step-limit") and outcome.result.faults_injected:
            status = "fault"
    if not record.failed and status not in case.expect_statuses:
        problems.append(
            f"status {status!r} not in expected {case.expect_statuses!r}"
        )
    livelock = outcome.result.livelock if outcome is not None else None
    if case.expect_cond_symbol:
        if livelock is None:
            problems.append("expected a livelock report, got none")
        elif not livelock.cond_symbol.startswith(case.expect_cond_symbol):
            problems.append(
                f"livelock names {livelock.cond_symbol!r}, "
                f"expected {case.expect_cond_symbol!r}"
            )
    if case.expect_loop_function and livelock is not None:
        if not livelock.loop_name.startswith(case.expect_loop_function):
            problems.append(
                f"livelock loop {livelock.loop_name!r} is not in "
                f"{case.expect_loop_function!r}"
            )
    if case.expect_note:
        notes = outcome.report.notes if outcome is not None else []
        if not any(n.startswith(case.expect_note) for n in notes):
            problems.append(f"missing expected note {case.expect_note!r}")
    return CaseVerdict(
        case=case.name,
        workload=case.workload,
        fault_class=case.fault_class,
        status=record.status,
        passed=not problems,
        detail="; ".join(problems) if problems else record.error,
    )


def run_chaos(
    cases: Optional[Sequence[ChaosCase]] = None,
    config: Optional[Union[str, ToolConfig]] = None,
    workers: int = 0,
    cache: Optional[ResultCache] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    journal_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    heartbeat_s: Optional[float] = None,
    poison_threshold: Optional[int] = None,
    forensics_dir: Optional[Union[str, Path]] = None,
    budget: Optional[ResourceBudget] = None,
) -> ChaosReport:
    """Run the chaos suite as one sweep; verify every case.

    ``config`` may be a :class:`ToolConfig` or a preset name resolved
    through :func:`repro.harness.registry.resolve_tool`.  Verdicts are
    listed by fault class.

    Execution and supervision knobs (``workers``, ``cache``,
    ``timeout_s``, ``retries``, ``journal_dir``/``resume``,
    ``heartbeat_s``, ``poison_threshold``, ``forensics_dir``,
    ``budget``) pass straight through to
    :func:`~repro.harness.parallel.run_sweep`.  ``resume`` requires a
    ``cache`` (``ValueError`` otherwise): the journal restores records,
    but the note/livelock oracles also inspect detector outcomes, which
    only the cache can replay.  With ``forensics_dir`` set, infrastructure failures are captured by
    the sweep and *oracle mismatches* are captured here — re-executed
    under ``record_trace`` with the case's fault plan, shrunk via ddmin
    with the oracle itself as the "still fails" predicate.
    """
    if resume and cache is None:
        raise ValueError(
            "resume needs a result cache: the journal restores run records but "
            "not the detector outcomes (livelock reports, protocol notes) that "
            "the chaos oracles read"
        )
    cases = sorted(
        cases if cases is not None else chaos_cases(), key=lambda c: c.fault_class
    )
    config = resolve_tool(config) if config else ToolConfig.helgrind_lib_spin(7)
    start = time.perf_counter()
    specs = [chaos_spec(c, config) for c in cases]
    result = run_sweep(
        specs,
        workers=workers,
        cache=cache,
        timeout_s=timeout_s,
        retries=retries,
        journal_dir=journal_dir,
        resume=resume,
        heartbeat_s=heartbeat_s,
        poison_threshold=poison_threshold,
        forensics_dir=forensics_dir,
        budget=budget,
    )
    report = ChaosReport(records=list(result.records))
    mismatches: List[CaptureUnit] = []
    for case, spec, record, outcome in zip(
        cases, specs, result.records, result.outcomes
    ):
        verdict = verify_case(case, record, outcome)
        report.verdicts.append(verdict)
        # The runs are deterministic, so an oracle mismatch is a
        # reproducible bug worth a shrunk repro with the oracle as the
        # failure predicate (the sweep already captured failed runs).
        if forensics_dir is not None and not verdict.passed and not record.failed:
            mismatches.append(
                CaptureUnit(
                    spec,
                    record,
                    forensics_dir,
                    predicate=chaos_oracle_predicate(case, config),
                )
            )
    capture_failures(mismatches, workers)
    report.wall_s = time.perf_counter() - start
    return report


def chaos_table(report: ChaosReport) -> str:
    """Render the chaos verdicts with the shared table formatter."""
    from repro.harness.tables import format_table

    rows = [
        [
            v.case,
            v.fault_class,
            v.workload,
            v.status,
            "PASS" if v.passed else "FAIL",
            v.detail[:60],
        ]
        for v in report.verdicts
    ]
    return format_table(
        ["Case", "Fault class", "Workload", "Status", "Verdict", "Detail"],
        rows,
        title=f"Chaos suite — {len(report.verdicts)} case(s), "
        f"{len(report.failed)} failing, {report.wall_s:.2f}s",
    )
