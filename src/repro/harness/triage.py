"""Failure forensics: replayable artifacts and ddmin-shrunk repros.

A failed sweep run (timeout, hang, crash, injected-fault fallout, or a
chaos case that misses its oracle) is only actionable if it survives the
sweep as something a human can *replay* and *minimize*.  This module
turns a failing :class:`~repro.harness.parallel.RunSpec` into an
artifact directory::

    <forensics_dir>/<workload>--<tool>--seed<seed>--<key>/
        repro.json          # metadata: spec, tool config, record, shrink stats
        trace.trc           # full recorded trace (RPRT-framed, as in a store)
        shrunk_trace.trc    # minimized still-failing repro (when shrinking ran)

The ``.trc`` files are written by :func:`~repro.trace.save_trace_file`
and are byte-for-byte what a :class:`~repro.trace.TraceStore` entry
holds — anything that opens trace files (:func:`~repro.trace.open_trace_file`,
``repro.run(trace=path)``) replays these artifacts, and the
``repro-experiments triage replay`` subcommand streams them.

The shrinker is classic ddmin (Zeller's delta debugging) over the
program's *instruction list*: candidate instructions (non-terminator,
non-library, non-``Nop``) are replaced by ``Nop`` in ever-larger
complements until no subset can be removed while the repro still fails
the same way, then the schedule seed is minimized.  Every trial is a
deterministic in-VM run, so "still fails" is exact, and the whole loop
is bounded by a VM-step budget rather than wall-clock.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.isa import instructions as ins
from repro.isa.instructions import is_terminator
from repro.isa.program import CodeLocation, Program
from repro.trace import (
    Trace, TraceStream, open_trace_file, record_trace, save_trace_file,
)

log = logging.getLogger(__name__)

#: artifact format marker + version, pinned in every ``repro.json``
ARTIFACT_KIND = "repro-triage"
ARTIFACT_VERSION = 2

#: default total VM steps the shrinker may spend across all trials
DEFAULT_STEP_BUDGET = 2_000_000

#: wall-clock bound on one pooled capture (re-run plus shrink)
CAPTURE_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# Failure predicates


def failure_predicate(status: str) -> Callable[[Trace], bool]:
    """"Still fails the same way" check for a harness record status.

    Wall-clock statuses (``timeout``/``hung``) have no in-VM analogue —
    a deterministic bounded re-run of such a spec shows up as an
    exhausted step budget or a watchdog trip, so any abnormal ending
    counts.  ``fault`` covers both abnormal shapes fault injection
    produces.  Everything else must reproduce its exact status.
    """
    if status in ("timeout", "hung", "crash", "error", "poison"):
        return lambda trace: trace.status != "ok"
    if status == "fault":
        return lambda trace: trace.status in ("deadlock", "step-limit", "livelock")
    return lambda trace: trace.status == status


def chaos_oracle_predicate(case, config) -> Callable[[Trace], bool]:
    """"Still violates the case oracle" check for a chaos mismatch.

    Status-level check plus, when the oracle pins a detector note, an
    offline analysis of the trace under ``config`` to confirm the note
    is still missing.  ``case`` is a
    :class:`~repro.workloads.dr_test.faults.ChaosCase`.
    """
    from repro.trace import analyze_trace

    def pred(trace: Trace) -> bool:
        status = trace.status
        # mirror verify_case's fault folding: an abnormal ending of a
        # faulted run reports as "fault" at the harness level
        allowed = set(case.expect_statuses)
        if status not in allowed:
            if not (status in ("deadlock", "step-limit") and "fault" in allowed):
                return True
        if case.expect_note:
            # analyze_trace finalizes from trace.status, so a deadlock
            # or livelock trace is sealed as partial (not mislabeled by
            # the lossy ``not trace.ok`` boolean).
            report = analyze_trace(trace, config).report
            if not any(n.startswith(case.expect_note) for n in report.notes):
                return True
        return False

    return pred


# ---------------------------------------------------------------------------
# The ddmin shrinker


@dataclass(frozen=True)
class ShrinkResult:
    """What the shrinker achieved, and what it cost."""

    #: noppable instruction sites the original program offered
    candidates: int
    #: sites proven irrelevant (replaced by ``Nop`` in the repro)
    nopped: int
    #: sites the repro still needs
    retained: int
    #: minimized schedule seed of the repro
    seed: int
    original_seed: int
    trials: int
    steps_spent: int
    #: machine status of the shrunk repro
    status: str


class StepBudget:
    """Mutable VM-step allowance shared by all shrink trials."""

    def __init__(self, total: int) -> None:
        self.total = total
        self.spent = 0

    def charge(self, steps: int) -> None:
        self.spent += steps

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.total


def shrink_candidates(program: Program) -> List[CodeLocation]:
    """Instruction sites the shrinker may try to ``Nop`` out.

    Terminators keep the CFG well-formed, library internals are shared
    infrastructure (nopping half of ``mutex_lock`` proves nothing about
    the workload), and existing ``Nop`` padding is already gone.
    """
    out: List[CodeLocation] = []
    for fname in sorted(program.functions):
        func = program.functions[fname]
        if func.is_library:
            continue
        for loc, instr in func.locations():
            if is_terminator(instr) or isinstance(instr, ins.Nop):
                continue
            out.append(loc)
    return out


def apply_nops(program: Program, locs: Sequence[CodeLocation]) -> Program:
    """Replace the instructions at ``locs`` with ``Nop`` in place.

    Raises ``ValueError`` on a read-only program (the registry's shared
    build): shrinking always works on a fresh build.
    """
    program._will_mutate()
    for loc in locs:
        block = program.functions[loc.function].blocks[loc.block]
        block.instructions[loc.index] = ins.Nop()
    return program


def _split(items: List, n: int) -> List[List]:
    size = len(items) // n
    extra = len(items) % n
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return [c for c in chunks if c]


def shrink_failure(
    build: Callable[[], Program],
    predicate: Callable[[Trace], bool],
    seed: int,
    max_steps: int,
    max_blocks: int = 8,
    inline_depth: int = 1,
    fault_plan=None,
    livelock_bound: Optional[int] = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    scheduler: Optional[str] = None,
) -> Tuple[Optional[Trace], ShrinkResult]:
    """ddmin-minimize a failing program and its schedule seed.

    ``build`` must return a *fresh* failing program each call (the
    workload's ``fresh_program``); ``predicate`` decides whether a trial
    trace still fails the interesting way.  Returns the minimized trace
    (``None`` if even the unmodified program no longer fails — a flaky
    or environment-dependent failure the shrinker cannot hold) and the
    shrink statistics.
    """
    budget = StepBudget(step_budget)
    trials = 0

    def try_repro(nop_locs: Sequence[CodeLocation], trial_seed: int) -> Optional[Trace]:
        nonlocal trials
        trials += 1
        program = apply_nops(build(), nop_locs)
        try:
            trace = record_trace(
                program,
                seed=trial_seed,
                max_steps=max_steps,
                max_blocks=max_blocks,
                inline_depth=inline_depth,
                fault_plan=fault_plan,
                livelock_bound=livelock_bound,
                scheduler=scheduler,
            )
        except Exception:
            # Nopping can orphan registers or thread structure; a run
            # that *raises* is a different failure, not our repro.
            return None
        budget.charge(trace.steps)
        return trace if predicate(trace) else None

    candidates = shrink_candidates(build())
    baseline = try_repro([], seed)
    if baseline is None:
        return None, ShrinkResult(
            candidates=len(candidates),
            nopped=0,
            retained=len(candidates),
            seed=seed,
            original_seed=seed,
            trials=trials,
            steps_spent=budget.spent,
            status="not-reproduced",
        )

    # ddmin over the *retained* set: retained instructions stay, the
    # complement is nopped.  Invariant: retaining `retained` still fails.
    retained = list(candidates)
    best = baseline
    n = 2
    while len(retained) >= 2 and not budget.exhausted:
        chunks = _split(retained, n)
        reduced = False
        for chunk in chunks:  # reduce to subset
            if budget.exhausted:
                break
            trace = try_repro([c for c in candidates if c not in set(chunk)], seed)
            if trace is not None:
                retained, best, n, reduced = chunk, trace, 2, True
                break
        if not reduced and n > 2:
            for chunk in chunks:  # reduce to complement
                if budget.exhausted:
                    break
                comp = [c for c in retained if c not in set(chunk)]
                trace = try_repro([c for c in candidates if c not in set(comp)], seed)
                if trace is not None:
                    retained, best = comp, trace
                    n, reduced = max(n - 1, 2), True
                    break
        if not reduced:
            if n >= len(retained):
                break
            n = min(len(retained), 2 * n)

    # Seed minimization: smallest seed under which the minimized program
    # still fails (bounded probe — seeds are small ints by convention).
    final_seed = seed
    nop_locs = [c for c in candidates if c not in set(retained)]
    for s in range(0, min(seed, 8)):
        if budget.exhausted:
            break
        trace = try_repro(nop_locs, s)
        if trace is not None:
            final_seed, best = s, trace
            break

    return best, ShrinkResult(
        candidates=len(candidates),
        nopped=len(candidates) - len(retained),
        retained=len(retained),
        seed=final_seed,
        original_seed=seed,
        trials=trials,
        steps_spent=budget.spent,
        status=best.status,
    )


# ---------------------------------------------------------------------------
# Artifact capture


def _slug(text: str) -> str:
    return re.sub(r"[^\w.-]+", "_", text)


def artifact_dir(root: Union[str, Path], record, key: str = "") -> Path:
    name = (
        f"{_slug(record.workload)}--{_slug(record.tool)}"
        f"--seed{record.seed}--{key[:12] if key else 'nokey'}"
    )
    return Path(root) / name


def capture_failure(
    spec,
    record,
    root: Union[str, Path],
    key: str = "",
    shrink: bool = True,
    step_budget: int = DEFAULT_STEP_BUDGET,
    predicate: Optional[Callable[[Trace], bool]] = None,
) -> Optional[Path]:
    """Re-execute a failed spec under ``record_trace``; write the artifact.

    The failing run re-executes once, deterministically, with the same
    seed, fault plan, and watchdog bound, capturing a replayable
    :class:`~repro.trace.Trace`; with ``shrink=True`` the ddmin loop
    then minimizes it.  The capture runs in the calling process: to
    keep a genuinely crashing workload (the very thing being triaged)
    away from a sweep parent, run it as a :class:`CaptureUnit` through
    :func:`capture_failures`.

    Returns the artifact directory, or ``None`` when capture itself
    failed (logged, never raised — forensics must not sink sweeps).
    """
    dest = artifact_dir(root, record, key)
    try:
        _write_artifact(spec, record, dest, key, shrink, step_budget, predicate)
    except Exception as exc:
        log.warning("forensics capture failed for %s: %s", dest.name, exc)
        return None
    return dest


def _write_artifact(
    spec,
    record,
    dest: Path,
    key: str,
    shrink: bool,
    step_budget: int,
    predicate: Optional[Callable[[Trace], bool]],
) -> None:
    workload = spec.resolve()
    config = spec.tool()
    # Everything that shapes the recording, the scheduler included: a
    # random-scheduler stand-in for a round-robin/adversarial failure
    # replays a different interleaving than the failure being triaged.
    env = spec.recording_params()
    if predicate is None:
        predicate = failure_predicate(record.status)
    trace = record_trace(workload.fresh_program(), **env)
    shrunk: Optional[Trace] = None
    shrink_stats: Optional[ShrinkResult] = None
    if shrink:
        shrunk, shrink_stats = shrink_failure(
            workload.fresh_program, predicate, step_budget=step_budget, **env
        )

    dest.mkdir(parents=True, exist_ok=True)
    save_trace_file(trace, dest / "trace.trc")
    if shrunk is not None:
        save_trace_file(shrunk, dest / "shrunk_trace.trc")
    meta = {
        "format": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "workload": record.workload,
        "tool": record.tool,
        "config": dataclasses.asdict(config),
        "seed": env["seed"],
        "max_steps": env["max_steps"],
        "fault_plan": repr(spec.fault_plan) if spec.fault_plan else None,
        "livelock_bound": spec.livelock_bound,
        "scheduler": trace.scheduler,
        "key": key,
        "record": dataclasses.asdict(record),
        "trace": "trace.trc",
        "trace_status": trace.status,
        "shrunk": "shrunk_trace.trc" if shrunk is not None else None,
        "shrink": dataclasses.asdict(shrink_stats) if shrink_stats else None,
    }
    (dest / "repro.json").write_text(json.dumps(meta, indent=2))


@dataclass(frozen=True)
class CaptureUnit:
    """One forensic capture riding the worker pool's ``execute()`` protocol."""

    spec: object
    record: object
    root: Union[str, Path]
    key: str = ""
    predicate: Optional[Callable[[Trace], bool]] = None

    def execute(self, machine_sink=None, trace_dir=None) -> Optional[Path]:
        return capture_failure(
            self.spec, self.record, self.root, key=self.key, predicate=self.predicate
        )


def capture_failures(
    units: Sequence[CaptureUnit], workers: int
) -> List[Optional[Path]]:
    """Run a batch of captures; returns each one's artifact dir or ``None``.

    The units always run on a :class:`~repro.harness.parallel.WorkerPool`
    of ``max(1, workers)`` processes forked holding them, so closure-built
    workloads and oracle predicates reach the workers without pickling,
    and a capture that crashes or overruns :data:`CAPTURE_TIMEOUT_S`
    costs one worker, not the caller — even for a serial sweep, whose
    failed records may come from a resumed journal rather than from
    cells it ran itself.  A pool that cannot start or be driven (fork
    refused, units that a spawn-only platform cannot pickle) is logged
    and yields ``None`` for every capture not yet finished: forensics
    must not sink sweeps.
    """
    if not units:
        return []
    from repro.harness.parallel import WorkerPool

    results: List[Optional[Path]] = [None] * len(units)
    pending = list(range(len(units)))
    pool = WorkerPool(
        min(max(1, workers), len(units)), timeout_s=CAPTURE_TIMEOUT_S, table=units
    )
    try:
        while pending or pool.active:
            while pending and pool.free_slots:
                i = pending.pop(0)
                pool.submit(units[i], token=i)
            exits = pool.poll()
            for exit in exits:
                if exit.kind == "ok":
                    results[exit.token] = exit.payload
                else:
                    log.warning(
                        "forensics capture %s for %s: %s",
                        exit.kind, units[exit.token].record.workload, exit.payload,
                    )
            if not exits:
                pool.wait()
    except Exception as exc:
        log.warning("forensics capture pool failed: %s", exc)
    finally:
        pool.shutdown()
    return results


# ---------------------------------------------------------------------------
# Replay


def load_artifact(path: Union[str, Path]) -> dict:
    """Read and validate an artifact's ``repro.json`` (``OSError`` if
    unreadable, ``ValueError`` if not a current-version artifact)."""
    path = Path(path)
    meta = json.loads((path / "repro.json").read_text())
    if not isinstance(meta, dict) or meta.get("format") != ARTIFACT_KIND:
        raise ValueError(f"not a {ARTIFACT_KIND} artifact")
    if meta.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"artifact version {meta.get('version')} != {ARTIFACT_VERSION}"
        )
    return meta


def replay_artifact(
    path: Union[str, Path],
    config=None,
    shrunk: bool = False,
) -> Tuple[TraceStream, "object"]:
    """Stream an artifact's trace file through the session pipeline;
    returns ``(stream, finalized detector)``.

    ``config`` defaults to the tool configuration the failure was
    captured under (stored in ``repro.json``); pass a
    :class:`~repro.detectors.ToolConfig` or preset name to analyze the
    same failing execution under a different tool.  ``shrunk=True``
    replays the minimized repro instead of the full trace.  An invalid
    trace file raises :class:`~repro.trace.TraceStreamCorruption`.
    """
    from repro.detectors import ToolConfig
    from repro.trace import analyze_trace

    path = Path(path)
    meta = load_artifact(path)
    name = meta["shrunk"] if shrunk else meta["trace"]
    if name is None:
        raise ValueError(f"{path} has no shrunk trace")
    stream = open_trace_file(path / name)
    if config is None:
        config = ToolConfig(**meta["config"])
    # analyze_trace resolves preset names and finalizes the detector
    # from the trace's termination status.
    return stream, analyze_trace(stream, config).detector
