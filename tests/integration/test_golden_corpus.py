"""Golden verdict corpus: every pinned cell must reproduce bit-for-bit.

``tests/data/golden_corpus.json`` holds, for each corpus case (see
:mod:`tests.corpus`) and each distinct preset configuration:

* ``live``: the sha256 of the live run's ``Report.fingerprint()`` plus
  the interpreter state it ended in: termination status, VM steps,
  events delivered to the detector, and sha256 digests of the program's
  outputs and final memory snapshot.  A dispatch change that alters
  execution without moving a verdict still fails here.
* ``replay``: the sha256 of the fingerprint of the same case analyzed
  from one ``record_trace`` recording with no VM in the loop.

Under ``ablations`` it holds, per case, the replay digest of each
:data:`~tests.corpus.ABLATIONS` configuration on that same recording.

The corpus is the behavioural definition of "the same detector": a
change that moves any cell is a behaviour change and must regenerate the
file on purpose::

    PYTHONPATH=src python -m tests.integration.test_golden_corpus --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.session import run
from repro.trace import analyze_trace
from repro.trace import Trace
from tests.corpus import ABLATIONS, CASE_BY_ID, CASES, CONFIGS, Case, recording, sha

CORPUS_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_corpus.json"


def live_cell(case: Case, name: str) -> Dict[str, object]:
    out = run(
        case.workload,
        CONFIGS[name],
        seed=case.seed,
        max_steps=case.max_steps,
        faults=case.fault_plan,
        livelock_bound=case.livelock_bound,
    )
    return {
        "fingerprint": sha(out.report.fingerprint()),
        "status": out.result.status,
        "steps": out.steps,
        # pinned as the delivered count, filtered events included
        "events": out.detector.events_processed,
        "outputs": sha(repr(out.result.outputs)),
        "memory": sha(repr(sorted(out.result.final_memory.items()))),
    }


def case_cells(case: Case, trace: Trace) -> Dict[str, Dict[str, object]]:
    """Every preset cell of one case, in the corpus file's shape."""
    return {
        name: {
            "live": live_cell(case, name),
            "replay": sha(analyze_trace(trace, cfg).report.fingerprint()),
        }
        for name, cfg in CONFIGS.items()
    }


def ablation_cells(trace: Trace) -> Dict[str, str]:
    """The replay digest of every ablation configuration on ``trace``."""
    return {
        name: sha(analyze_trace(trace, cfg).report.fingerprint())
        for name, cfg in ABLATIONS.items()
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(CORPUS_PATH.read_text())


@pytest.fixture(scope="module")
def corpus(golden) -> Dict[str, Dict[str, Dict[str, object]]]:
    return golden["cases"]


def test_corpus_covers_every_case_and_config(golden, corpus):
    assert len(CASES) == 141 and len(CONFIGS) == 6 and len(ABLATIONS) == 6
    assert set(corpus) == set(golden["ablations"]) == set(CASE_BY_ID)
    for cells in corpus.values():
        assert set(cells) == set(CONFIGS)
    for cells in golden["ablations"].values():
        assert set(cells) == set(ABLATIONS)


def test_replay_cells_equal_live_cells(corpus):
    """Record once, analyze anywhere: every replayed verdict is the live one."""
    diverged = [
        (case_id, name)
        for case_id, cells in corpus.items()
        for name, cell in cells.items()
        if cell["replay"] != cell["live"]["fingerprint"]
    ]
    assert not diverged


@pytest.mark.parametrize("case_id", list(CASE_BY_ID))
def test_case_reproduces_golden_cells(case_id, golden, corpus):
    case = CASE_BY_ID[case_id]
    trace = recording(case)
    got, want = case_cells(case, trace), corpus[case_id]
    diffs = [
        f"{name}/{mode}: {got[name][mode]!r} != golden {want[name][mode]!r}"
        for name in CONFIGS
        for mode in ("live", "replay")
        if got[name][mode] != want[name][mode]
    ]
    got, want = ablation_cells(trace), golden["ablations"][case_id]
    diffs += [
        f"{name}/replay: {got[name]!r} != golden {want[name]!r}"
        for name in ABLATIONS
        if got[name] != want[name]
    ]
    assert not diffs, f"{case_id} moved:\n" + "\n".join(diffs)


def write_corpus(path: Path = CORPUS_PATH) -> None:
    cases, ablations = {}, {}
    for case in CASES:
        trace = recording(case)
        cases[case.id] = case_cells(case, trace)
        ablations[case.id] = ablation_cells(trace)
        print(f"{case.id}: {len(cases[case.id])} configs", file=sys.stderr)
    payload = {"configs": sorted(CONFIGS), "cases": cases, "ablations": ablations}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.integration.test_golden_corpus --write")
    write_corpus()
