"""Production verdicts against the independent reference detector.

For every suite and chaos case, the racy-context set the production
detector finds on a recording (``analyze_trace``; the golden corpus pins
it equal to the live run) must equal the set the naive reference
detector (:mod:`tests.reference_detector`) finds on the same recording,
under the paper's four tool columns plus plain ``helgrind-lib``.

A disagreement the paper's rules explain is listed in
``KNOWN_DIVERGENCES``, one line per (case, preset), naming the rule.
The table is checked both ways: a listed pair that starts agreeing fails
too, so the table never goes stale.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.harness.registry import resolve_tool
from repro.trace import analyze_trace
from tests.corpus import CASES, recording
from tests.reference_detector import reference_contexts

PRESETS = ("drd", "eraser", "helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7")

#: The counterpart write is matched per synchronization *variable*
#: (PAPER.md §1, runtime phase: the loop's exit "data-depends" on the
#: store to its condition variable).  Production also pairs a read of a
#: classified variable made outside the loop, such as the CAS that grabs a
#: spinlock after the spin exits, with its own counterpart write.  The
#: reference joins only at loop exit, so when another thread releases the
#: lock between the spin's last read and the CAS, it misses that release
#: and reports the guarded counter.
_CAS_REREAD = "counterpart write matched on the sync variable's CAS re-read"

KNOWN_DIVERGENCES = {
    ("suite/locks_spinlock_counter_t4", "helgrind-nolib-spin7"): _CAS_REREAD,
    ("suite/locks_spinlock_counter_t8", "helgrind-nolib-spin7"): _CAS_REREAD,
    ("suite/locks_contended_spinlock_t4", "helgrind-nolib-spin7"): _CAS_REREAD,
    ("suite/sem_mutex_t8", "helgrind-nolib-spin7"): _CAS_REREAD,
}

CHECKED = [c for c in CASES if c.group in ("suite", "chaos")]


def test_reference_is_independent_of_production_detectors():
    """The oracle may read events, never reuse the detector it checks."""
    tree = ast.parse(Path(__file__).parents[1].joinpath("reference_detector.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith("repro")} == {"repro.vm.events"}


def test_known_divergences_name_checked_cells():
    ids = {c.id for c in CHECKED}
    for case_id, preset in KNOWN_DIVERGENCES:
        assert case_id in ids and preset in PRESETS


@pytest.mark.parametrize("case", CHECKED, ids=lambda c: c.id)
def test_reference_agrees_with_production(case):
    trace = recording(case)
    problems = []
    for preset in PRESETS:
        cfg = resolve_tool(preset)
        production = analyze_trace(trace, cfg).report.contexts
        reference = reference_contexts(trace, cfg)
        known = (case.id, preset) in KNOWN_DIVERGENCES
        if known and production == reference:
            problems.append(f"{preset}: listed as divergent but agrees")
        elif not known and production != reference:
            problems.append(
                f"{preset}: production-only {sorted(production - reference)[:3]}, "
                f"reference-only {sorted(reference - production)[:3]}"
            )
    assert not problems, f"{case.id}:\n" + "\n".join(problems)
