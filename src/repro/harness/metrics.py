"""Scoring: suite pass/fail metrics and PARSEC racy-context averages.

The data-race-test style scoring follows the paper's Table on slide 24:

* a case produces a **false alarm** when the detector reports a race on
  a symbol the ground truth says is race-free;
* a racy case is a **missed race** when no true racy symbol is reported;
* a case **fails** if either happened; otherwise it is **correctly
  analysed**.  ``failed = false_alarms + missed_races`` may double-count
  a case that both missed its race and raised a false alarm — we follow
  the paper, whose columns satisfy failed = false alarms + missed races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.detectors import ToolConfig
from repro.detectors.reports import Report
from repro.harness.workload import Workload
from repro.session import SessionResult, run

if TYPE_CHECKING:
    from repro.harness.parallel import ResultCache


@dataclass(frozen=True)
class CaseScore:
    """Outcome of one suite case under one tool."""

    workload: str
    tool: str
    false_alarm: bool
    missed_race: bool
    #: base symbols reported that are not in the ground truth
    false_symbols: Tuple[str, ...] = ()
    #: true racy symbols found
    true_symbols: Tuple[str, ...] = ()
    #: run ended by timeout/deadlock (lost-wakeup style bugs)
    abnormal: bool = False

    @property
    def failed(self) -> bool:
        return self.false_alarm or self.missed_race

    @property
    def correct(self) -> bool:
        return not self.failed


@dataclass
class SuiteScore:
    """Aggregated suite metrics for one tool — one row of Table 1/2."""

    tool: str
    cases: List[CaseScore] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def false_alarms(self) -> int:
        return sum(1 for c in self.cases if c.false_alarm)

    @property
    def missed_races(self) -> int:
        return sum(1 for c in self.cases if c.missed_race)

    @property
    def failed(self) -> int:
        # Paper convention: failed = false alarms + missed races.
        return self.false_alarms + self.missed_races

    @property
    def correct(self) -> int:
        return self.total - sum(1 for c in self.cases if c.failed)

    def row(self) -> Dict[str, object]:
        return {
            "tool": self.tool,
            "false_alarms": self.false_alarms,
            "missed_races": self.missed_races,
            "failed": self.failed,
            "correct": self.correct,
        }


def score_case(workload: Workload, report: Report, abnormal: bool = False) -> CaseScore:
    """Score one run of one case against its ground truth."""
    reported = report.reported_base_symbols
    false_syms = tuple(sorted(reported - workload.racy_symbols))
    true_syms = tuple(sorted(reported & workload.racy_symbols))
    return CaseScore(
        workload=workload.name,
        tool=report.tool,
        false_alarm=bool(false_syms),
        missed_race=workload.is_racy and not true_syms,
        false_symbols=false_syms,
        true_symbols=true_syms,
        abnormal=abnormal,
    )


def _sweep_outcomes(
    workloads: Sequence[Workload],
    configs: Sequence[ToolConfig],
    seeds: Sequence[Optional[int]],
    workers: int,
    cache: Optional["ResultCache"],
) -> List[SessionResult]:
    """Run the cross product via the parallel engine, workload-major.

    Strict: a terminally failed run raises rather than silently skewing
    the paper's metrics.  Results are bit-identical to serial execution.
    """
    from repro.harness.parallel import RunSpec, run_sweep

    specs = [
        RunSpec(workload=wl, config=cfg, seed=seed)
        for wl in workloads
        for cfg in configs
        for seed in seeds
    ]
    result = run_sweep(specs, workers=workers, cache=cache, strict=True)
    return [o for o in result.outcomes if o is not None]


def score_suite(
    workloads: Sequence[Workload],
    config: ToolConfig,
    workers: int = 0,
    cache: Optional["ResultCache"] = None,
) -> Tuple[SuiteScore, List[SessionResult]]:
    """Run every case once (its own seed) under ``config`` and aggregate.

    ``workers > 0`` fans the cases out over that many processes (with
    optional result caching); scores are identical to the serial path.
    """
    score = SuiteScore(tool=config.name)
    if workers > 0 or cache is not None:
        outcomes = _sweep_outcomes(workloads, [config], [None], workers, cache)
    else:
        outcomes = [run(wl, config).detached() for wl in workloads]
    for wl, outcome in zip(workloads, outcomes):
        score.cases.append(score_case(wl, outcome.report, abnormal=not outcome.ok))
    return score, outcomes


def racy_contexts_avg(
    workload: Workload, config: ToolConfig, seeds: Sequence[int]
) -> float:
    """Average distinct racy contexts across seeds (PARSEC tables)."""
    counts = [run(workload, config, seed=s).racy_contexts for s in seeds]
    return sum(counts) / len(counts)


def racy_contexts_table(
    workloads: Sequence[Workload],
    configs: Sequence[ToolConfig],
    seeds: Sequence[int],
    workers: int = 0,
    cache: Optional["ResultCache"] = None,
) -> Dict[str, Dict[str, float]]:
    """``{workload: {tool: avg contexts}}`` for the PARSEC tables.

    ``workers > 0`` runs all (workload, tool, seed) triples through the
    parallel engine; averages are identical to the serial path.
    """
    if workers > 0 or cache is not None:
        outcomes = _sweep_outcomes(workloads, configs, list(seeds), workers, cache)
        table: Dict[str, Dict[str, float]] = {wl.name: {} for wl in workloads}
        i = 0
        for wl in workloads:
            for cfg in configs:
                counts = [
                    outcomes[i + j].report.racy_contexts for j in range(len(seeds))
                ]
                table[wl.name][cfg.name] = sum(counts) / len(counts)
                i += len(seeds)
        return table
    return {
        wl.name: {cfg.name: racy_contexts_avg(wl, cfg, seeds) for cfg in configs}
        for wl in workloads
    }
