"""The pinned verdict corpus shared by the golden and reference-detector tests.

A *case* is one execution environment: a workload plus the seed, step
budget, fault plan and livelock bound it runs under.  The corpus is the
120-case dr_test suite, the 8 fault-injection (chaos) cases and the 13
PARSEC models.  Each case runs under the distinct tool configurations
behind the named presets (``eraser``/``lockset`` and
``universal``/``universal-hybrid`` are aliases, so 8 names give 6
configurations), live on the VM and replayed from one recording.  The
ablations flip one ``ToolConfig`` branch of a spin preset each and are
replayed only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.detectors import ToolConfig
from repro.harness.chaos import chaos_spec
from repro.harness.registry import resolve_tool
from repro.harness.workload import Workload
from repro.trace import Trace, record_trace
from repro.vm.faults import FaultPlan
from repro.workloads import build_suite, parsec_workloads
from repro.workloads.dr_test.faults import chaos_cases

#: instrumentation window of every recording: wide enough for spin(8)
MAX_BLOCKS = 8


def _distinct_presets() -> Dict[str, ToolConfig]:
    configs: Dict[str, ToolConfig] = {}
    for name in ToolConfig.presets():
        cfg = resolve_tool(name)
        if cfg not in configs.values():
            configs[name] = cfg
    return configs


#: first preset name -> configuration, one entry per distinct configuration
CONFIGS: Dict[str, ToolConfig] = _distinct_presets()

#: ``preset/flag`` -> the spin preset with that one branch flipped: the
#: ad-hoc engine's counterpart rule and suppression, and the long-run
#: state machine, which no preset sets
ABLATIONS: Dict[str, ToolConfig] = {
    f"{preset}/{flag}": replace(resolve_tool(preset), **{flag: value})
    for preset in ("helgrind-lib-spin7", "helgrind-nolib-spin7")
    for flag, value in (
        ("adhoc_variable_level", False),
        ("adhoc_suppress", False),
        ("long_run", True),
    )
}


@dataclass(frozen=True)
class Case:
    """One corpus workload with the machine environment it runs under."""

    id: str
    workload: Workload
    seed: int
    max_steps: int
    fault_plan: Optional[FaultPlan] = None
    livelock_bound: Optional[int] = None

    @property
    def group(self) -> str:
        return self.id.split("/", 1)[0]


def _build_cases() -> List[Case]:
    cases = [
        Case(f"suite/{wl.name}", wl, wl.seed, wl.max_steps) for wl in build_suite()
    ]
    for c in chaos_cases():
        spec = chaos_spec(c, ToolConfig.helgrind_lib_spin(7))
        cases.append(
            Case(
                f"chaos/{c.name}",
                spec.resolve(),
                spec.effective_seed(),
                spec.effective_max_steps(),
                spec.fault_plan,
                spec.livelock_bound,
            )
        )
    cases += [
        Case(f"parsec/{wl.name}", wl, wl.seed, wl.max_steps)
        for wl in parsec_workloads()
    ]
    return cases


CASES: List[Case] = _build_cases()
CASE_BY_ID: Dict[str, Case] = {c.id: c for c in CASES}


def record(case: Case) -> Trace:
    """Record ``case`` once, in the environment its live runs use."""
    return record_trace(
        case.workload.fresh_program(),
        seed=case.seed,
        max_steps=case.max_steps,
        max_blocks=MAX_BLOCKS,
        fault_plan=case.fault_plan,
        livelock_bound=case.livelock_bound,
    )


_recordings: Dict[str, Trace] = {}


def recording(case: Case) -> Trace:
    """Memoized :func:`record` for the small suite and chaos cases.

    PARSEC recordings are large, so they are never kept.
    """
    if case.group == "parsec":
        return record(case)
    trace = _recordings.get(case.id)
    if trace is None:
        trace = _recordings[case.id] = record(case)
    return trace


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
