"""Performance measurements for the paper's two figures.

Slide 31 (memory consumption) and slide 32 (runtime overhead) claim the
spin-loop feature adds only *minor* overhead on top of Helgrind+.  Our
equivalents:

* **memory**: the detector-state footprint (shadow memory, vector
  clocks, locksets, reports) plus the instrumentation marker tables and
  ad-hoc engine state, in words, with the feature off (``lib``) and on
  (``lib+spin``);
* **runtime**: wall-clock seconds of machine + detector for the same two
  configurations, plus the bare (no detector) machine as the common
  baseline.

The absolute numbers are meaningless outside this simulator; the figure
of merit is the *ratio* between the two configurations.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.detectors import ToolConfig
from repro.harness.runner import run_bare, run_workload
from repro.harness.workload import Workload


@dataclass(frozen=True)
class PerfRow:
    """One program's overhead measurement."""

    program: str
    bare_s: float
    lib_s: float
    spin_s: float
    lib_words: int
    spin_words: int
    #: instrumentation-phase wall-clock per configuration; the spin
    #: feature pays a static analysis pass *before* execution starts,
    #: which the overhead figure must not silently exclude
    lib_instr_s: float = 0.0
    spin_instr_s: float = 0.0

    @property
    def lib_total_s(self) -> float:
        return self.lib_s + self.lib_instr_s

    @property
    def spin_total_s(self) -> float:
        return self.spin_s + self.spin_instr_s

    @property
    def runtime_overhead(self) -> float:
        """Relative extra runtime of the spin feature (spin / lib),
        including each configuration's instrumentation phase."""
        return (
            self.spin_total_s / self.lib_total_s
            if self.lib_total_s > 0
            else float("nan")
        )

    @property
    def memory_overhead(self) -> float:
        """Relative extra detector memory of the spin feature."""
        return self.spin_words / self.lib_words if self.lib_words else float("nan")


def measure_overhead(
    workloads: Sequence[Workload],
    k: int = 7,
    seed: int = 1,
    repeats: int = 3,
) -> List[PerfRow]:
    """Measure both figures over ``workloads``.

    ``repeats`` runs are taken and the *minimum* runtime kept (standard
    practice for wall-clock micro-measurements; memory is deterministic).
    """
    lib_cfg = ToolConfig.helgrind_lib()
    spin_cfg = ToolConfig.helgrind_lib_spin(k)
    rows: List[PerfRow] = []
    for wl in workloads:
        bare = min(run_bare(wl, seed=seed) for _ in range(repeats))
        lib_runs = [run_workload(wl, lib_cfg, seed=seed) for _ in range(repeats)]
        spin_runs = [run_workload(wl, spin_cfg, seed=seed) for _ in range(repeats)]
        lib_best = min(lib_runs, key=lambda r: r.total_s)
        spin_best = min(spin_runs, key=lambda r: r.total_s)
        rows.append(
            PerfRow(
                program=wl.name,
                bare_s=bare,
                lib_s=lib_best.duration_s,
                spin_s=spin_best.duration_s,
                lib_words=lib_best.detector_words,
                spin_words=spin_best.detector_words + spin_best.imap_words,
                lib_instr_s=lib_best.instrument_s,
                spin_instr_s=spin_best.instrument_s,
            )
        )
    return rows


def overhead_summary(rows: Sequence[PerfRow]) -> Dict[str, float]:
    """Geometric-ish means for the headline claim (minor overhead)."""
    if not rows:
        return {"runtime": float("nan"), "memory": float("nan")}
    runtime = sum(r.runtime_overhead for r in rows) / len(rows)
    memory = sum(r.memory_overhead for r in rows) / len(rows)
    return {"runtime": runtime, "memory": memory}


# ---------------------------------------------------------------------------
# Shared bench-file format (every committed BENCH_*.json baseline)


def write_bench(
    path: Union[str, Path],
    figure: str,
    groups: Mapping[str, Sequence[object]],
    summary_fn,
    row_fn,
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write one ``BENCH_*.json`` trajectory baseline.

    Every figure's bench file shares one layout — ``schema``/``figure``
    headers, per-group summaries (floats rounded to 3 places), and flat
    per-row dicts tagged with their group — so the CI perf-smoke jobs
    and ad-hoc tooling parse them uniformly.  ``summary_fn`` maps a row
    sequence to its summary mapping; ``row_fn`` maps one row to its
    dict (sans the ``group`` tag, added here).
    """
    payload: Dict[str, object] = {
        "schema": 1,
        "figure": figure,
        "groups": {},
        "rows": [],
    }
    if extra:
        payload.update(extra)
    for name, rows in groups.items():
        payload["groups"][name] = {
            k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in summary_fn(rows).items()
        }
        for r in rows:
            payload["rows"].append({"group": name, **row_fn(r)})
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return payload


def load_baseline(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load a committed ``BENCH_*.json`` baseline (``None`` if absent
    or unreadable — a perf gate treats both as "no baseline yet")."""
    p = Path(path)
    if not p.exists():
        return None
    try:
        return json.loads(p.read_text())
    except (OSError, json.JSONDecodeError):
        return None


# ---------------------------------------------------------------------------
# F3 — analysis-pipeline throughput


@dataclass(frozen=True)
class PipelineRow:
    """One (workload, tool) pair: events per second of analysis time.

    The denominator is *analysis time*: wall-clock with the detector
    attached minus the bare interpreter's wall-clock on the same schedule
    (``run_bare``, the same accounting as the F2 overhead figure).  The
    interpreter stands in for native execution under Valgrind — its cost
    is the program's, not the pipeline's — so events / analysis-seconds
    is the throughput of the analysis pipeline itself.  Runs use each
    workload's own seed, so ``fingerprint`` can be checked against the
    golden verdict corpus.
    """

    workload: str
    tool: str
    spin: bool
    #: events the pipeline delivered to the detector
    events: int
    #: wall-clock with the detector attached (machine + detector)
    run_s: float
    #: wall-clock of the bare interpreter, no listener
    bare_s: float
    #: detector shadow-state footprint, in words (8-byte words)
    words: int
    racy_contexts: int
    #: sha256 of the report fingerprint
    fingerprint: str

    # Timer noise can push a tiny workload's analysis time to ~0 or even
    # below zero; anything under ~2% of the with-detector wall-clock is
    # beneath measurement resolution, so clamp the denominator there
    # (aggregate over a full sweep via pipeline_summary for the headline
    # figures — the floor never binds on sweeps of realistic size).
    _FLOOR = 0.02

    @property
    def analysis_s(self) -> float:
        return max(self.run_s - self.bare_s, self.run_s * self._FLOOR, 1e-9)

    @property
    def events_per_s(self) -> float:
        return self.events / self.analysis_s


def measure_pipeline(
    workloads: Sequence[Workload],
    configs: Sequence[ToolConfig],
    repeats: int = 2,
) -> List[PipelineRow]:
    """Measure analysis-pipeline throughput over a sweep.

    Every (workload, config) pair runs ``repeats`` times at the
    workload's own seed; the minimum wall-clock is kept.
    """
    rows: List[PipelineRow] = []
    for wl in workloads:
        bare_s = min(run_bare(wl) for _ in range(repeats))
        for cfg in configs:
            runs = [run_workload(wl, cfg) for _ in range(repeats)]
            best = min(runs, key=lambda r: r.duration_s)
            rows.append(
                PipelineRow(
                    workload=wl.name,
                    tool=cfg.name,
                    spin=cfg.spin,
                    events=best.events,
                    run_s=best.duration_s,
                    bare_s=bare_s,
                    words=best.detector_words,
                    racy_contexts=best.report.racy_contexts,
                    fingerprint=_sha(best.report.fingerprint()),
                )
            )
    return rows


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pipeline_summary(rows: Sequence[PipelineRow]) -> Dict[str, float]:
    """Aggregate throughput over a row set (sum events / sum analysis-s).

    Analysis seconds are summed *before* dividing so timer noise on tiny
    workloads averages out instead of being clamped row by row.
    """
    events = sum(r.events for r in rows)
    run_s = sum(r.run_s for r in rows)
    analysis_s = max(run_s - sum(r.bare_s for r in rows), run_s * PipelineRow._FLOOR, 1e-9)
    return {
        "events": events,
        "analysis_s": analysis_s,
        "events_per_s": events / analysis_s if rows else 0.0,
        "wall_events_per_s": events / run_s if run_s > 0 else 0.0,
        "words": sum(r.words for r in rows),
    }


def write_pipeline_bench(
    path: Union[str, Path],
    groups: Mapping[str, Sequence[PipelineRow]],
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write ``BENCH_pipeline.json``: per-group summaries + per-row data.

    ``groups`` maps a sweep name (``"t1_suite"``, ``"parsec"``) to its
    rows; the committed file is the trajectory baseline the CI perf-smoke
    job gates regressions against.
    """
    def row(r: PipelineRow) -> Dict[str, object]:
        return {
            "workload": r.workload,
            "tool": r.tool,
            "spin": r.spin,
            "events": r.events,
            "run_s": round(r.run_s, 6),
            "bare_s": round(r.bare_s, 6),
            "events_per_s": round(r.events_per_s, 1),
            "words": r.words,
            "racy_contexts": r.racy_contexts,
        }

    return write_bench(
        path,
        "F3 — analysis-pipeline throughput (events per analysis-second)",
        groups,
        pipeline_summary,
        row,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# F4 — interpreter throughput


@dataclass(frozen=True)
class InterpRow:
    """One workload run bare (no detector) on the threaded-code interpreter.

    ``decode_s`` is the one-time translation cost measured on a *cold*
    decode cache; it is reported separately and not charged to ``run_s``
    (the cache amortizes it across every later run of the same program,
    exactly as ``instrument_s`` amortizes the static phase).  Runs use
    each workload's own seed, so ``state`` can be checked against the
    golden verdict corpus.
    """

    workload: str
    #: VM steps executed
    steps: int
    #: min wall-clock over the repeats
    run_s: float
    #: one-time decode (translation) cost, cold cache
    decode_s: float
    #: (status, steps, sha256 of outputs, sha256 of final memory)
    state: Tuple[str, int, str, str]

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.run_s if self.run_s > 0 else 0.0


def _interp_run(wl: Workload):
    """One bare run; returns (wall_s, decode_s, state)."""
    from repro.vm import Machine, RandomScheduler

    machine = Machine(
        wl.fresh_program(), scheduler=RandomScheduler(wl.seed), max_steps=wl.max_steps
    )
    start = time.perf_counter()
    result = machine.run()
    wall = time.perf_counter() - start
    state = (
        result.status,
        machine.step_count,
        _sha(repr(result.outputs)),
        _sha(repr(sorted(result.final_memory.items()))),
    )
    return wall, machine.decode_s, state


def measure_interpreter(
    workloads: Sequence[Workload], repeats: int = 3
) -> List[InterpRow]:
    """Measure bare interpreter throughput over workloads.

    Each workload runs ``repeats`` times with the minimum wall-clock
    kept.  The first run per workload starts from a cold decode cache so
    ``decode_s`` reflects the real one-time translation cost.
    """
    from repro.vm.decode import clear_decode_cache

    rows: List[InterpRow] = []
    for wl in workloads:
        clear_decode_cache()
        runs = [_interp_run(wl) for _ in range(repeats)]
        state = runs[0][2]
        rows.append(
            InterpRow(
                workload=wl.name,
                steps=state[1],
                run_s=min(w for w, _, _ in runs),
                decode_s=runs[0][1],
                state=state,
            )
        )
    return rows


def interpreter_summary(rows: Sequence[InterpRow]) -> Dict[str, float]:
    """Aggregate throughput (sum steps / sum seconds) over a row set.

    Seconds are summed before dividing so timer noise on tiny workloads
    averages out.
    """
    steps = sum(r.steps for r in rows)
    run_s = sum(r.run_s for r in rows)
    return {
        "steps": steps,
        "run_s": run_s,
        "decode_s": sum(r.decode_s for r in rows),
        "steps_per_s": steps / run_s if run_s > 0 else 0.0,
    }


def write_interpreter_bench(
    path: Union[str, Path],
    groups: Mapping[str, Sequence[InterpRow]],
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write ``BENCH_interpreter.json``: per-group summaries + rows.

    The committed file is the trajectory baseline the CI perf-smoke job
    gates interpreter regressions against.
    """
    def row(r: InterpRow) -> Dict[str, object]:
        return {
            "workload": r.workload,
            "steps": r.steps,
            "run_s": round(r.run_s, 6),
            "decode_s": round(r.decode_s, 6),
            "steps_per_s": round(r.steps_per_s, 1),
        }

    return write_bench(
        path,
        "F4 — interpreter throughput (steps per second, no detector)",
        groups,
        interpreter_summary,
        row,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# F6 — replay throughput (stored-trace analysis vs live execution)


@dataclass(frozen=True)
class ReplayRow:
    """One (workload, tool) pair analyzed live and from a stored trace.

    ``live_s`` is machine + detector wall-clock (the cost every tool
    configuration pays again under record-once-analyze-everywhere's
    alternative: re-executing the VM per config); ``replay_s`` is
    detector-only wall-clock over the recorded event stream
    (:func:`repro.trace.analyze_trace` — delivery plus finalize).  The
    recording itself (``record_s``, paid once per *cell*, not per tool)
    is a one-time cost reported separately, exactly as F4 reports
    ``decode_s`` outside the throughput number.

    Throughput shares the live run's delivered event count as numerator
    for both sides, mirroring F3's shared-numerator convention.
    """

    workload: str
    tool: str
    spin: bool
    #: events the live run delivered to the detector
    events: int
    #: one-time recording cost for the cell (instrumented VM run + capture)
    record_s: float
    #: min wall-clock over the repeats, live machine + detector
    live_s: float
    #: min wall-clock over the repeats, detector over the stored trace
    replay_s: float
    #: live and replayed report fingerprints are byte-identical
    fingerprints_match: bool

    @property
    def live_events_per_s(self) -> float:
        return self.events / self.live_s if self.live_s > 0 else 0.0

    @property
    def replay_events_per_s(self) -> float:
        return self.events / self.replay_s if self.replay_s > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Re-analysis speedup: live wall-clock over replay wall-clock."""
        return self.live_s / self.replay_s if self.replay_s > 0 else float("nan")


def measure_replay(
    workloads: Sequence[Workload],
    configs: Sequence[ToolConfig],
    seed: int = 1,
    repeats: int = 3,
) -> List[ReplayRow]:
    """Measure live-vs-replay analysis cost over a (workload, tool) sweep.

    Each workload is recorded *once* with instrumentation wide enough for
    every config in the sweep (the store's ``max(8, spin window)``
    convention), then every config analyzes both ways, ``repeats`` times
    each with the minimum wall-clock kept.  Replay fingerprints are
    checked against the live reports — a throughput number from a replay
    that changed verdicts would be meaningless.
    """
    import time

    from repro.trace import analyze_trace, record_trace

    rows: List[ReplayRow] = []
    max_blocks = max([8, *(c.spin_max_blocks for c in configs)])
    inline_depth = max(c.inline_depth for c in configs)
    for wl in workloads:
        record_start = time.perf_counter()
        trace = record_trace(
            wl.fresh_program(),
            seed=seed,
            max_steps=wl.max_steps,
            max_blocks=max_blocks,
            inline_depth=inline_depth,
        )
        record_s = time.perf_counter() - record_start
        for cfg in configs:
            live_runs = [run_workload(wl, cfg, seed=seed) for _ in range(repeats)]
            live_best = min(live_runs, key=lambda r: r.duration_s)
            analyses = [analyze_trace(trace, cfg) for _ in range(repeats)]
            replay_best = min(analyses, key=lambda a: a.duration_s)
            rows.append(
                ReplayRow(
                    workload=wl.name,
                    tool=cfg.name,
                    spin=cfg.spin,
                    events=live_best.events,
                    record_s=record_s,
                    live_s=live_best.duration_s,
                    replay_s=replay_best.duration_s,
                    fingerprints_match=replay_best.report.fingerprint()
                    == live_best.report.fingerprint(),
                )
            )
    return rows


def replay_summary(rows: Sequence[ReplayRow]) -> Dict[str, float]:
    """Aggregate replay throughput (sum events / sum seconds) over rows.

    Seconds are summed before dividing so timer noise on tiny workloads
    averages out; the aggregate speedup is what the ≥5x acceptance gate
    reads.  ``record_s`` is summed over *distinct* workloads (one
    recording serves every tool row of its cell).
    """
    if not rows:
        return {
            "events": 0,
            "live_s": 0.0,
            "replay_s": 0.0,
            "record_s": 0.0,
            "live_events_per_s": 0.0,
            "replay_events_per_s": 0.0,
            "speedup": float("nan"),
            "configs_per_recording": 0.0,
            "mismatches": 0,
        }
    events = sum(r.events for r in rows)
    live_s = sum(r.live_s for r in rows)
    replay_s = sum(r.replay_s for r in rows)
    per_workload: Dict[str, float] = {}
    for r in rows:
        per_workload[r.workload] = r.record_s
    record_s = sum(per_workload.values())
    return {
        "events": events,
        "live_s": live_s,
        "replay_s": replay_s,
        "record_s": record_s,
        "live_events_per_s": events / live_s if live_s > 0 else 0.0,
        "replay_events_per_s": events / replay_s if replay_s > 0 else 0.0,
        "speedup": live_s / replay_s if replay_s > 0 else float("nan"),
        "configs_per_recording": len(rows) / len(per_workload),
        "mismatches": sum(1 for r in rows if not r.fingerprints_match),
    }


def write_replay_bench(
    path: Union[str, Path],
    groups: Mapping[str, Sequence[ReplayRow]],
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write ``BENCH_replay.json``: per-group summaries + per-row data.

    The committed file is the trajectory baseline the CI perf-smoke job
    gates replay regressions against.
    """
    def row(r: ReplayRow) -> Dict[str, object]:
        return {
            "workload": r.workload,
            "tool": r.tool,
            "spin": r.spin,
            "events": r.events,
            "record_s": round(r.record_s, 6),
            "live_s": round(r.live_s, 6),
            "replay_s": round(r.replay_s, 6),
            "live_events_per_s": round(r.live_events_per_s, 1),
            "replay_events_per_s": round(r.replay_events_per_s, 1),
            "speedup": round(r.speedup, 3),
            "fingerprints_match": r.fingerprints_match,
        }

    return write_bench(
        path,
        "F6 — replay throughput (stored-trace analysis vs live)",
        groups,
        replay_summary,
        row,
        extra=extra,
    )


def load_replay_baseline(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load a committed ``BENCH_replay.json`` (``None`` if absent)."""
    return load_baseline(path)


# ---------------------------------------------------------------------------
# F7 — streaming-decode peak memory (trace analysis RSS, in-memory vs stream)
# ---------------------------------------------------------------------------

#: resolution floor for the memory-reduction ratio.  A streaming pass
#: holds one decode chunk at a time, so its peak traced allocation can
#: be arbitrarily small; flooring the denominator at 64 KiB keeps the
#: figure finite and conservative.
_ALLOC_FLOOR_BYTES = 64 << 10

#: the PARSEC stand-ins with the largest recorded traces (descending) —
#: the workloads where decode strategy actually moves peak memory, and
#: the default F7 measurement set.
F7_WORKLOADS = ("raytrace", "facesim", "vips", "streamcluster")


@dataclass(frozen=True)
class StreamingRow:
    """One workload's trace analyzed in-memory and in streaming mode.

    Each analysis runs in a fresh interpreter so nothing leaks between
    strategies.  The gated figure is the *peak traced allocation* of
    the store-read + analysis region (``tracemalloc``, byte-precise):
    process-level ``ru_maxrss`` ticks in kilobytes and carries several
    megabytes of import-transient slack that can swallow a whole
    materialization, so it is reported alongside as supporting data
    (``*_total_peak``) but not gated on.
    """

    workload: str
    tool: str
    #: events the analysis delivered to the detector (identical by oracle)
    events: int
    #: peak traced allocation of the in-memory analysis region, bytes
    inmem_peak_alloc: int
    #: peak traced allocation of the streaming analysis region, bytes
    stream_peak_alloc: int
    #: whole-process peak RSS of each probe child, bytes
    inmem_total_peak: int
    stream_total_peak: int
    #: min analysis wall-clock over the repeats, seconds (measured under
    #: tracemalloc — comparable across modes, inflated vs production)
    inmem_s: float
    stream_s: float
    #: both decode paths produced byte-identical report fingerprints
    fingerprints_match: bool

    @property
    def reduction(self) -> float:
        """Peak-memory reduction factor, streamed vs materialized."""
        return self.inmem_peak_alloc / max(self.stream_peak_alloc, _ALLOC_FLOOR_BYTES)


def _streaming_probe(mode: str, trace_dir: str, key: str, tool_name: str) -> Dict:
    """Probe-child body: analyze one stored trace, report peak RSS.

    Runs inside a fresh interpreter (see :func:`_run_probe`); measures
    the high-water delta across exactly the store-read + analysis
    region (``get`` + :func:`~repro.trace.analyze_trace`, or
    ``open_stream`` + :func:`~repro.trace.analyze_trace_streaming` —
    materialization cost is the thing being measured, so it stays
    inside the window).
    """
    import time as _time
    import tracemalloc

    from repro.harness.registry import resolve_tool
    from repro.harness.resources import peak_rss_bytes
    from repro.trace import TraceStore, analyze_trace, analyze_trace_streaming

    store = TraceStore(trace_dir)
    cfg = resolve_tool(tool_name)
    tracemalloc.start()
    t0 = _time.perf_counter()
    if mode == "stream":
        stream = store.open_stream(key)
        if stream is None:
            raise RuntimeError(f"trace {key[:16]}… missing from probe store")
        analysis = analyze_trace_streaming(stream, cfg)
    else:
        trace = store.get(key)
        if trace is None:
            raise RuntimeError(f"trace {key[:16]}… missing from probe store")
        analysis = analyze_trace(trace, cfg)
    duration = _time.perf_counter() - t0
    _, peak_alloc = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "peak_alloc": peak_alloc,
        "total_peak": peak_rss_bytes(),
        "duration_s": duration,
        "events": analysis.events,
        "fingerprint": analysis.report.fingerprint(),
    }


#: ``python -c`` body the probe children run: argv is (mode, trace_dir,
#: key, tool_name); the measurement travels back as JSON on stdout.
_PROBE_SNIPPET = (
    "import json, sys\n"
    "from repro.harness.perf import _streaming_probe\n"
    "print(json.dumps(_streaming_probe(*sys.argv[1:5])))\n"
)


def _run_probe(mode: str, trace_dir: str, key: str, tool_name: str) -> Dict:
    """Run one probe in a fresh interpreter (``subprocess``, not fork).

    A forked child inherits the parent's RSS high-water, which can
    swallow the analysis delta entirely; a clean ``python -c`` child
    starts from the interpreter's own baseline.  ``PYTHONPATH`` is
    extended with this package's root so the child resolves ``repro``
    regardless of how the parent was launched.
    """
    import os as _os
    import subprocess
    import sys as _sys

    pkg_root = str(Path(__file__).resolve().parents[2])
    env = dict(_os.environ)
    env["PYTHONPATH"] = _os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [_sys.executable, "-c", _PROBE_SNIPPET, mode, trace_dir, key, tool_name],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"F7 {mode} probe failed (exit {proc.returncode}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_streaming(
    workloads: Sequence[Workload],
    config: str = "helgrind-lib-spin7",
    seed: int = 1,
    repeats: int = 2,
) -> List[StreamingRow]:
    """Measure peak analysis RSS, in-memory vs streaming, per workload.

    Records each workload once into a throwaway :class:`TraceStore`,
    then analyzes the entry both ways in fresh spawned subprocesses —
    ``repeats`` probes per mode, minimum delta and wall-clock kept
    (RSS high-water is monotone within a process, so each repeat needs
    its own).  Fingerprints are compared across the two modes; a
    memory figure from a decode path that changed verdicts would be
    meaningless.
    """
    import tempfile

    from repro.harness.registry import resolve_tool
    from repro.trace import TraceStore, record_trace, trace_key

    if not isinstance(config, str):
        raise TypeError(
            "measure_streaming takes a tool *preset name* — the probe "
            "children resolve it in their own interpreter"
        )
    cfg = resolve_tool(config)
    rows: List[StreamingRow] = []
    with tempfile.TemporaryDirectory(prefix="repro-f7-") as tmp:
        store = TraceStore(tmp)
        for wl in workloads:
            program = wl.fresh_program()
            max_blocks = max(8, cfg.spin_max_blocks)
            trace = record_trace(
                program,
                seed=seed,
                max_steps=wl.max_steps,
                max_blocks=max_blocks,
                inline_depth=cfg.inline_depth,
            )
            key = trace_key(
                program.fingerprint(),
                seed=seed,
                max_steps=wl.max_steps,
                max_blocks=max_blocks,
                inline_depth=cfg.inline_depth,
            )
            store.put(key, trace)
            probes = {
                mode: [
                    _run_probe(mode, tmp, key, config)
                    for _ in range(max(1, repeats))
                ]
                for mode in ("inmem", "stream")
            }
            inmem = min(probes["inmem"], key=lambda p: p["peak_alloc"])
            stream = min(probes["stream"], key=lambda p: p["peak_alloc"])
            rows.append(
                StreamingRow(
                    workload=wl.name,
                    tool=cfg.name,
                    events=inmem["events"],
                    inmem_peak_alloc=inmem["peak_alloc"],
                    stream_peak_alloc=stream["peak_alloc"],
                    inmem_total_peak=inmem["total_peak"],
                    stream_total_peak=stream["total_peak"],
                    inmem_s=min(p["duration_s"] for p in probes["inmem"]),
                    stream_s=min(p["duration_s"] for p in probes["stream"]),
                    fingerprints_match=(
                        inmem["fingerprint"] == stream["fingerprint"]
                        and inmem["events"] == stream["events"]
                    ),
                )
            )
    return rows


def streaming_summary(rows: Sequence[StreamingRow]) -> Dict[str, float]:
    """Aggregate F7: the gate reads ``reduction_min`` (worst row wins)."""
    if not rows:
        return {
            "events": 0,
            "inmem_peak_alloc": 0,
            "stream_peak_alloc": 0,
            "reduction_min": float("nan"),
            "reduction_aggregate": float("nan"),
            "mismatches": 0,
        }
    inmem = sum(r.inmem_peak_alloc for r in rows)
    stream = sum(r.stream_peak_alloc for r in rows)
    return {
        "events": sum(r.events for r in rows),
        "inmem_peak_alloc": inmem,
        "stream_peak_alloc": stream,
        "reduction_min": min(r.reduction for r in rows),
        "reduction_aggregate": inmem / max(stream, _ALLOC_FLOOR_BYTES),
        "mismatches": sum(1 for r in rows if not r.fingerprints_match),
    }


def write_streaming_bench(
    path: Union[str, Path],
    groups: Mapping[str, Sequence[StreamingRow]],
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write ``BENCH_streaming.json``: per-group summaries + rows."""
    def row(r: StreamingRow) -> Dict[str, object]:
        return {
            "workload": r.workload,
            "tool": r.tool,
            "events": r.events,
            "inmem_peak_alloc": r.inmem_peak_alloc,
            "stream_peak_alloc": r.stream_peak_alloc,
            "inmem_total_peak": r.inmem_total_peak,
            "stream_total_peak": r.stream_total_peak,
            "inmem_s": round(r.inmem_s, 6),
            "stream_s": round(r.stream_s, 6),
            "reduction": round(r.reduction, 3),
            "fingerprints_match": r.fingerprints_match,
        }

    return write_bench(
        path,
        "F7 — streaming-decode peak memory (trace analysis RSS)",
        groups,
        streaming_summary,
        row,
        extra=extra,
    )


def load_streaming_baseline(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load a committed ``BENCH_streaming.json`` (``None`` if absent)."""
    return load_baseline(path)


# ---------------------------------------------------------------------------
# F9 — service load: requests/s and latency over the analysis daemon


#: the three paths the service benchmark exercises
F9_PATHS = ("cold", "cached", "degraded")

#: default submission the load benchmark analyzes (small and racy so a
#: cold cell executes in tens of milliseconds and the verdict is
#: non-trivial); seeds vary per request to defeat the content cache on
#: the cold/degraded paths
F9_WORKLOAD = "locks_mutex_counter_t2"


@dataclass(frozen=True)
class ServiceRow:
    """One request path measured under concurrent client load.

    Latencies are per-request HTTP round trips (connection, request,
    response) measured client-side; ``total_s`` is the wall-clock of
    the whole fan-out, so ``requests_per_s`` reflects real concurrent
    throughput, not summed latencies.  ``errors`` counts responses
    whose status differs from the path's expectation (``ok`` for
    cold/cached, ``degraded`` for degraded) — any error fails the
    benchmark's correctness assertions.
    """

    path: str
    requests: int
    clients: int
    workers: int
    total_s: float
    p50_ms: float
    p99_ms: float
    errors: int
    #: every verdict fingerprint matched the direct-session oracle
    fingerprints_match: bool = True

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.total_s if self.total_s > 0 else 0.0


def _pct(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


def measure_service(
    requests: int = 24,
    clients: int = 8,
    workers: int = 2,
    workload: str = F9_WORKLOAD,
    tool: str = "helgrind-lib-spin7",
    max_steps: int = 60_000,
    verify_fingerprints: bool = True,
) -> List[ServiceRow]:
    """Drive a real daemon over HTTP with concurrent clients, three ways.

    Boots the full engine + HTTP transport on an ephemeral port, then
    measures each path with ``clients`` concurrent connections spread
    over two tenants:

    * **cold** — ``requests`` distinct submissions (seed-varied), every
      one executed on the worker pool;
    * **cached** — the same submissions again, served from the journaled
      verdict index with zero recomputation;
    * **degraded** — fresh seeds under forced resource pressure
      (:data:`repro.service.engine.FORCE_PRESSURE_ENV`), each analyzed
      as a streaming trace replay.

    With ``verify_fingerprints`` every cold verdict is checked against
    a direct in-process :func:`repro.run` of the same cell — the bench
    doubles as a golden-response sweep.
    """
    import asyncio
    import http.client
    import os
    import time as _time

    from repro.service.app import _handle_http
    from repro.service.engine import FORCE_PRESSURE_ENV, Engine

    import tempfile

    rows: List[ServiceRow] = []

    async def drive(port: int, path_name: str, seeds: Sequence[int]) -> ServiceRow:
        latencies: List[float] = []
        errors = 0
        fingerprints: Dict[int, str] = {}
        expect = "degraded" if path_name == "degraded" else "ok"
        loop = asyncio.get_running_loop()

        def one_request(i: int, seed: int) -> float:
            body = json.dumps(
                {
                    "v": 1,
                    "id": f"{path_name}-{i}",
                    "tenant": "bench-a" if i % 2 == 0 else "bench-b",
                    "kind": "workload",
                    "workload": workload,
                    "tool": tool,
                    "seed": seed,
                    "max_steps": max_steps,
                }
            ).encode()
            t0 = _time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                conn.request(
                    "POST", "/v1/analyze", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = json.loads(conn.getresponse().read().decode())
            finally:
                conn.close()
            elapsed = _time.perf_counter() - t0
            nonlocal errors
            if resp.get("status") != expect:
                errors += 1
            elif "verdict" in resp:
                fingerprints[seed] = resp["verdict"]["fingerprint"]
            return elapsed

        async def client(worklist: Sequence[tuple]) -> None:
            for i, seed in worklist:
                # http.client blocks; run each round trip off-loop so
                # the daemon (same loop) keeps scheduling underneath.
                latencies.append(await loop.run_in_executor(None, one_request, i, seed))

        sliced: List[List[tuple]] = [[] for _ in range(clients)]
        for i, seed in enumerate(seeds):
            sliced[i % clients].append((i, seed))
        start = _time.perf_counter()
        await asyncio.gather(*(client(chunk) for chunk in sliced if chunk))
        total_s = _time.perf_counter() - start

        match = True
        if verify_fingerprints and path_name == "cold" and not errors:
            import repro

            for seed, fp in fingerprints.items():
                direct = repro.run(workload, tool, seed=seed, max_steps=max_steps)
                if direct.fingerprint != fp:
                    match = False
                    break
        lat = sorted(latencies)
        return ServiceRow(
            path=path_name,
            requests=len(seeds),
            clients=clients,
            workers=workers,
            total_s=total_s,
            p50_ms=_pct(lat, 0.50) * 1000.0,
            p99_ms=_pct(lat, 0.99) * 1000.0,
            errors=errors,
            fingerprints_match=match,
        )

    async def main() -> None:
        with tempfile.TemporaryDirectory(prefix="repro-svc-bench-") as td:
            engine = Engine(
                td,
                workers=workers,
                queue_depth=max(64, requests * 2),
                tenant_rate=1e9,  # the bench measures the pool, not the bucket
                tenant_burst=1e9,
                default_deadline_s=300.0,
            )
            await engine.startup()
            server = await asyncio.start_server(
                lambda r, w: _handle_http(engine, r, w), "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            forced_before = os.environ.get(FORCE_PRESSURE_ENV)
            try:
                cold_seeds = list(range(1, requests + 1))
                rows.append(await drive(port, "cold", cold_seeds))
                rows.append(await drive(port, "cached", cold_seeds))
                os.environ[FORCE_PRESSURE_ENV] = "degraded"
                degraded_seeds = list(range(requests + 1, 2 * requests + 1))
                rows.append(await drive(port, "degraded", degraded_seeds))
            finally:
                if forced_before is None:
                    os.environ.pop(FORCE_PRESSURE_ENV, None)
                else:
                    os.environ[FORCE_PRESSURE_ENV] = forced_before
                server.close()
                await server.wait_closed()
                await engine.shutdown()

    asyncio.run(main())
    return rows


def service_summary(rows: Sequence[ServiceRow]) -> Dict[str, float]:
    """Per-path throughput/latency plus the cached-vs-cold speedups."""
    out: Dict[str, float] = {
        "requests": sum(r.requests for r in rows),
        "errors": sum(r.errors for r in rows),
        "mismatches": sum(1 for r in rows if not r.fingerprints_match),
    }
    by_path = {r.path: r for r in rows}
    for name, r in by_path.items():
        out[f"{name}_requests_per_s"] = r.requests_per_s
        out[f"{name}_p50_ms"] = r.p50_ms
        out[f"{name}_p99_ms"] = r.p99_ms
    cold, cached = by_path.get("cold"), by_path.get("cached")
    if cold and cached and cached.p99_ms > 0:
        out["cached_speedup_p50"] = cold.p50_ms / max(cached.p50_ms, 1e-9)
        out["cached_speedup_p99"] = cold.p99_ms / cached.p99_ms
    return out


def write_service_bench(
    path: Union[str, Path],
    groups: Mapping[str, Sequence[ServiceRow]],
    extra: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Write ``BENCH_service.json``: per-path load-test rows + summary."""
    def row(r: ServiceRow) -> Dict[str, object]:
        return {
            "path": r.path,
            "requests": r.requests,
            "clients": r.clients,
            "workers": r.workers,
            "total_s": round(r.total_s, 6),
            "requests_per_s": round(r.requests_per_s, 2),
            "p50_ms": round(r.p50_ms, 3),
            "p99_ms": round(r.p99_ms, 3),
            "errors": r.errors,
            "fingerprints_match": r.fingerprints_match,
        }

    return write_bench(
        path,
        "F9 — service load (requests/s and latency: cold, cached, degraded)",
        groups,
        service_summary,
        row,
        extra=extra,
    )


def load_service_baseline(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """Load a committed ``BENCH_service.json`` (``None`` if absent)."""
    return load_baseline(path)
