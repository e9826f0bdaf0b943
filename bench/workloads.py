"""The benchmark's workloads: set-up, timed window, checks, metrics.

Every workload runs a fixed cell list in *passes*; ``--seed`` only
shuffles cell order, so any seed does identical work and produces the
same verdicts.  A window runs whole passes until its seconds are up, so
every run measures the same mix of cells.  Verdict fingerprints are
compared with ``golden.json`` after the window closes.

Timings are made steady on a shared host: ``cells_per_s`` is the median
of the per-pass rates, and the latency percentiles are taken over each
cell's best latency across passes, which drops the time a cell spent
preempted by its neighbours.

The benchmark drives only the program's public API: ``repro.run``,
``run_sweep`` and ``record_trace``/``analyze_trace``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro
import repro.trace
from repro.analysis import clear_instrument_cache, instrument_cache_info
from repro.harness import (
    ResultCache,
    RunSpec,
    prewarm_static,
    resolve_workload,
    run_sweep,
    score_case,
    sweep_specs,
)
from repro.service.engine import report_fingerprint_hex
from repro.vm import clear_decode_cache, decode_cache_info
from repro.workloads import build_suite, parsec_workloads

from bench.layers import Tracer, span

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
GOLDEN_PATH = ROOT / "bench" / "golden.json"

#: the paper's four tool columns, then the two extra presets the replay
#: workload analyzes under
PAPER_TOOLS = ("helgrind-lib", "helgrind-lib-spin7", "helgrind-nolib-spin7", "drd")
PRESETS = PAPER_TOOLS + ("eraser", "universal7")
#: Table 1 correct cases per paper tool (EXPERIMENTS.md); 345 in total
T1_CORRECT = {"helgrind-lib": 75, "helgrind-lib-spin7": 104,
              "helgrind-nolib-spin7": 100, "drd": 66}
#: set-up runs this many times per run; setup_s is the median
SETUP_REPS = 3
#: sweep worker processes
WORKERS = 2

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "verdicts/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "analysis.instrument_s": "s",
    "analysis.instrument_calls": "count",
    "analysis.instrument_hit_frac": "fraction",
    "analysis.spin_loops": "count",
    "vm.decode_s": "s",
    "vm.decode_hit_frac": "fraction",
    "vm.interpret_s": "s",
    "vm.steps": "count",
    "vm.steps_per_s": "1/s",
    "detectors.consume_s": "s",
    "detectors.batches": "count",
    "detectors.events": "count",
    "detectors.events_per_batch": "count",
    "detectors.events_per_busy_s": "1/s",
    "detectors.per_event_calls": "count",
    "detectors.finalize_s": "s",
    "detectors.racy_contexts": "count",
    "detectors.adhoc_edges": "count",
    "trace.analyze_s": "s",
    "trace.filter_s": "s",
    "trace.record_s": "s",
    "harness.prewarm_s": "s",
    "harness.worker_busy_s": "s",
    "harness.dispatch_overhead_frac": "fraction",
    "harness.cache_put_s": "s",
    "harness.cache_puts": "count",
    "harness.journal_append_s": "s",
    "harness.journal_appends": "count",
    "harness.retried": "count",
    "isa.build_s": "s",
    "session.other_s": "s",
    "bench.trace_overhead_frac": "fraction",
    "bench.unattributed_frac": "fraction",
}


def cell_key(workload: str, preset: str, seed: int) -> str:
    """The golden-corpus key of one verdict."""
    return f"{workload}|{preset}|{seed}"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _adhoc_edges(detector) -> int:
    return detector.adhoc.edges if detector.adhoc is not None else 0


@dataclass
class Window:
    """What one timed window measured."""

    wall_s: float = 0.0
    #: verdicts/s of each whole pass
    rates: List[float] = field(default_factory=list)
    cells: int = 0
    #: verdict latency samples by cell; a cell recurs once per pass
    cell_ms: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: per-layer sums and values the workload measures outside spans
    layer: Counter = field(default_factory=Counter)

    def latencies(self) -> List[float]:
        """Each cell's best latency across passes."""
        return [min(v) for v in self.cell_ms.values()]


class Bench:
    """One workload.  Subclasses fill in set-up and one pass."""

    name = ""

    def __init__(self, seed: int, cells: Optional[int], run_dir: Path) -> None:
        self.seed = seed
        #: smoke size: keep only the first ``cells`` cells of the list
        self.cells = cells
        self.dir = run_dir
        self.rng = random.Random(seed)
        #: (golden key, fingerprint or None) of every verdict measured
        self.verdicts: List[Tuple[str, Optional[str]]] = []

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def before_pass(self) -> None:
        pass

    def one_pass(self, w: Window, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def window(self, seconds: float, tracer: Optional[Tracer]) -> Window:
        """Whole passes until ``seconds`` are up (at least one)."""
        w = Window()
        start = time.perf_counter()
        with span(tracer, "window"):
            while True:
                self.before_pass()
                gc.collect()  # every pass starts from a collected heap
                inst, dec = instrument_cache_info(), decode_cache_info()
                self.one_pass(w, tracer)
                for prefix, before, after in (
                    ("instrument", inst, instrument_cache_info()),
                    ("decode", dec, decode_cache_info()),
                ):
                    w.layer[f"{prefix}_hits"] += after["hits"] - before["hits"]
                    w.layer[f"{prefix}_misses"] += after["misses"] - before["misses"]
                if time.perf_counter() - start >= seconds:
                    break
        w.wall_s = time.perf_counter() - start
        return w

    def check(self) -> List[str]:
        """Problems beyond individual verdicts (empty when none)."""
        return []

    def info(self) -> str:
        """An extra line for the human-readable report."""
        return ""

    def end_to_end(self, w: Window) -> Dict[str, float]:
        latencies = w.latencies()
        return {
            "cells_per_s": statistics.median(w.rates),
            "verdict_ms_p50": percentile(latencies, 0.50),
            "verdict_ms_p95": percentile(latencies, 0.95),
        }

    def layer_metrics(self, w: Window) -> Dict[str, float]:
        """Per-layer values the workload measures outside spans."""
        L = w.layer
        return {
            "analysis.instrument_s": L["instrument_s"],
            "analysis.instrument_calls": L["instrument_hits"] + L["instrument_misses"],
            "analysis.instrument_hit_frac": _ratio(
                L["instrument_hits"], L["instrument_hits"] + L["instrument_misses"]
            ),
            "analysis.spin_loops": L["spin_loops"],
            "vm.decode_s": L["decode_s"],
            "vm.decode_hit_frac": _ratio(
                L["decode_hits"], L["decode_hits"] + L["decode_misses"]
            ),
            "vm.steps": L["steps"],
            "vm.steps_per_s": _ratio(L["steps"], L["run_s"]),
            "detectors.events": L["events"],
            "detectors.racy_contexts": L["racy_contexts"],
            "detectors.adhoc_edges": L["adhoc_edges"],
        }


class SuiteSweep(Bench):
    """The 120-case suite × the paper's 4 tools through ``run_sweep``.

    Every pass is a cold table reproduction: fresh result cache and
    journal, instrument and decode caches cleared.  Programs are tiny
    (a few ms per cell), so fork/dispatch, cache puts, journal fsyncs,
    spin classification and decode dominate.  A sweep cell's latency is
    its worker's busy time (run + instrument + decode).
    """

    name = "suite-sweep"

    def setup(self, tracer):
        # What a sweep pays before its first cell: build and fingerprint
        # every case (the input of its cache keys).
        suite = build_suite()
        for wl in suite:
            wl.fresh_program().fingerprint()
        self.workloads = {wl.name: wl for wl in suite}
        self.specs = sweep_specs(list(self.workloads), PAPER_TOOLS)[: self.cells]
        self.passes = 0
        self.t1: List[Dict[str, int]] = []

    def before_pass(self):
        clear_instrument_cache()
        clear_decode_cache()

    def one_pass(self, w, tracer):
        specs = list(self.specs)
        self.rng.shuffle(specs)
        pass_dir = self.dir / f"pass{self.passes}"
        self.passes += 1
        t0 = time.perf_counter()
        result = run_sweep(
            specs,
            workers=WORKERS,
            cache=ResultCache(pass_dir / "cache"),
            journal_dir=pass_dir / "journal",
        )
        dt = time.perf_counter() - t0
        shutil.rmtree(pass_dir, ignore_errors=True)
        w.rates.append(len(specs) / dt)
        w.cells += len(specs)
        L = w.layer
        L["pass_wall_s"] += dt
        for rec in result.records:
            busy = rec.duration_s + rec.instrument_s + rec.decode_s
            w.cell_ms[f"{rec.workload}|{rec.tool}"].append(busy * 1000.0)
            L["worker_busy_s"] += busy
            L["instrument_s"] += rec.instrument_s
            L["decode_s"] += rec.decode_s
            L["run_s"] += rec.duration_s
            L["steps"] += rec.steps
            L["events"] += rec.events
            L["spin_loops"] += rec.spin_loops
            L["adhoc_edges"] += rec.adhoc_edges
            L["racy_contexts"] += rec.racy_contexts
            L["retried"] += max(0, rec.attempts - 1)
        t1 = Counter()
        for spec, outcome in zip(result.specs, result.outcomes):
            wl = self.workloads[spec.workload]
            fp = report_fingerprint_hex(outcome.report) if outcome is not None else None
            self.verdicts.append((cell_key(wl.name, spec.config, wl.seed), fp))
            if outcome is not None:
                t1[spec.config] += score_case(wl, outcome.report, not outcome.ok).correct
        self.t1.append(dict(t1))

    def check(self):
        if self.cells is not None:
            return []  # Table 1 needs the whole suite
        return [
            f"pass {i}: Table 1 correct {t1} != {T1_CORRECT}"
            for i, t1 in enumerate(self.t1)
            if t1 != T1_CORRECT
        ]

    def info(self):
        totals = sorted({sum(t.values()) for t in self.t1})
        return f"t1_correct={'/'.join(map(str, totals))} cases per pass"

    def layer_metrics(self, w):
        m = super().layer_metrics(w)
        L = w.layer
        m["harness.worker_busy_s"] = L["worker_busy_s"]
        m["harness.dispatch_overhead_frac"] = 1.0 - _ratio(
            L["worker_busy_s"], L["pass_wall_s"] * WORKERS
        )
        m["harness.retried"] = L["retried"]
        return m


class ParsecLive(Bench):
    """13 PARSEC models × the paper's 4 tools through ``repro.run``.

    Long event streams: the VM interpreter and the detectors do almost
    all the work; decode and instrumentation caches are warm.
    """

    name = "parsec-live"

    def setup(self, tracer):
        clear_instrument_cache()
        clear_decode_cache()
        self.cells_list = [
            (wl.name, tool) for wl in parsec_workloads() for tool in PAPER_TOOLS
        ][: self.cells]
        prewarm_static([RunSpec(name, tool) for name, tool in self.cells_list])

    def one_pass(self, w, tracer):
        order = list(self.cells_list)
        self.rng.shuffle(order)
        L = w.layer
        t0 = time.perf_counter()
        for name, tool in order:
            c0 = time.perf_counter()
            with span(tracer, "session.run", cell=f"{name}|{tool}"):
                s = repro.run(name, tool)
            w.cell_ms[f"{name}|{tool}"].append((time.perf_counter() - c0) * 1000.0)
            self.verdicts.append((cell_key(name, tool, s.seed), s.fingerprint))
            L["instrument_s"] += s.instrument_s
            L["decode_s"] += s.decode_s
            L["run_s"] += s.run_s
            L["steps"] += s.result.steps
            L["events"] += s.detector.events_processed
            L["spin_loops"] += s.instrumentation.num_loops if s.instrumentation else 0
            L["adhoc_edges"] += _adhoc_edges(s.detector)
            L["racy_contexts"] += s.racy_contexts
        w.rates.append(len(order) / (time.perf_counter() - t0))
        w.cells += len(order)


class ParsecReplay(Bench):
    """13 PARSEC recordings × 6 presets through in-memory ``analyze_trace``.

    No VM and no codec: detector batch consumption plus trace filtering.
    Each pass analyzes fresh copies of the recordings, so every pass pays
    the flattening and filtering that one recording shares across presets.
    """

    name = "parsec-replay"

    def setup(self, tracer):
        self.cells_list = [
            (wl.name, preset) for wl in parsec_workloads() for preset in PRESETS
        ][: self.cells]
        self.traces = {}
        for name in dict.fromkeys(n for n, _ in self.cells_list):
            wl = resolve_workload(name)
            with span(tracer, "trace.record", cell=name):
                self.traces[name] = repro.trace.record_trace(
                    wl.fresh_program(), seed=wl.seed, max_steps=wl.max_steps
                )

    def one_pass(self, w, tracer):
        order = list(self.cells_list)
        self.rng.shuffle(order)
        L = w.layer
        t0 = time.perf_counter()
        copies = {name: dataclasses.replace(t) for name, t in self.traces.items()}
        for name, preset in order:
            trace = copies[name]
            c0 = time.perf_counter()
            with span(tracer, "trace.analyze", cell=f"{name}|{preset}"):
                a = repro.trace.analyze_trace(trace, preset)
            w.cell_ms[f"{name}|{preset}"].append((time.perf_counter() - c0) * 1000.0)
            self.verdicts.append(
                (cell_key(name, preset, trace.seed), report_fingerprint_hex(a.report))
            )
            L["events"] += a.events
            L["adhoc_edges"] += _adhoc_edges(a.detector)
            L["racy_contexts"] += a.report.racy_contexts
        w.rates.append(len(order) / (time.perf_counter() - t0))
        w.cells += len(order)


WORKLOADS = {b.name: b for b in (SuiteSweep, ParsecLive, ParsecReplay)}


@dataclass
class Result:
    attempted: int
    failed: int
    problems: List[str]
    #: name -> (value, unit); end-to-end or per-layer depending on mode
    metrics: Dict[str, Tuple[float, str]]
    #: extra lines for the human-readable report
    notes: List[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values read off the spans."""
    totals = tracer.totals()

    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    wall, other = tracer.roots()
    return {
        "detectors.consume_s": self_s("detectors.consume"),
        "detectors.batches": count("detectors.consume"),
        "detectors.finalize_s": self_s("detectors.finalize"),
        "detectors.per_event_calls": tracer.calls["__call__"],
        "vm.interpret_s": self_s("vm.interpret"),
        "trace.analyze_s": totals.get("trace.analyze", (0, 0.0, 0.0))[2],
        "trace.filter_s": self_s("trace.analyze"),
        "trace.record_s": self_s("trace.record"),
        "harness.prewarm_s": self_s("harness.prewarm"),
        "harness.cache_put_s": self_s("harness.cache_put"),
        "harness.cache_puts": count("harness.cache_put"),
        "harness.journal_append_s": self_s("harness.journal_append"),
        "harness.journal_appends": count("harness.journal_append"),
        "isa.build_s": self_s("isa.build"),
        "session.other_s": self_s("session.run"),
        "bench.unattributed_frac": _ratio(other, wall),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    cells: Optional[int] = None,
) -> Result:
    """Set up, measure and check one workload in this process.

    Untraced: one window of ``seconds``; the result carries the
    end-to-end metrics.  Traced: an untraced half window, then a traced
    half window; the result carries the per-layer metrics, read off the
    traced half, and the tracing overhead between the two halves.
    """
    golden = load_golden()
    run_dir = OUT / f"run-{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = WORKLOADS[name](seed, cells, run_dir)
    tracer = Tracer() if trace else None
    setup_s = []
    windows: List[Window] = []
    try:
        for rep in range(SETUP_REPS):
            # Only the last set-up is traced: it is the one the window uses.
            rep_tracer = tracer if rep == SETUP_REPS - 1 else None
            t0 = time.perf_counter()
            with span(rep_tracer, "setup"):
                bench.setup(rep_tracer)
            setup_s.append(time.perf_counter() - t0)
        if tracer is None:
            windows.append(bench.window(seconds, None))
        else:
            windows.append(bench.window(seconds / 2, None))
            with tracer.installed():
                windows.append(bench.window(seconds / 2, tracer))
        # Sweep workers are waited-for children, so they count here too.
        peak_rss = max(_max_rss_mb(resource.RUSAGE_SELF),
                       _max_rss_mb(resource.RUSAGE_CHILDREN))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for key, fp in bench.verdicts if fp is None or golden.get(key) != fp)
    problems = bench.check()
    w = windows[-1]
    notes = [
        bench.info(),
        f"{w.cells} verdicts in {w.wall_s:.2f}s; latency over {len(w.cell_ms)} "
        f"cells x {len(w.rates)} pass(es); pass rates "
        + ", ".join(f"{r:.1f}" for r in w.rates),
    ]
    if tracer is None:
        values = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss,
                  **bench.end_to_end(w)}
        units = END_TO_END
        notes.append("setup reps " + ", ".join(f"{s:.3f}s" for s in setup_s))
    else:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(bench.layer_metrics(w))
        values.update(span_metrics(tracer))
        # Both ratios are 0 where the detectors run in sweep workers: no
        # batches or busy time are seen in this process.
        events = w.layer["events"]
        busy = values["detectors.consume_s"] + values["detectors.finalize_s"]
        values["detectors.events_per_batch"] = _ratio(events, values["detectors.batches"])
        values["detectors.events_per_busy_s"] = _ratio(events, busy)
        values["bench.trace_overhead_frac"] = 1.0 - _ratio(
            statistics.median(w.rates), statistics.median(windows[0].rates)
        )
        units = PER_LAYER
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
        gap = tracer.check()
        if gap is not None:
            problems.append(f"span attribution: {gap}")
        wall, other = tracer.roots()
        notes.append(
            f"{len(tracer.spans)} spans over {wall:.3f}s of root wall, "
            f"{other:.3f}s of it unattributed (other)"
        )
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"undeclared metric(s): {sorted(unknown)}")
    return Result(
        attempted=len(bench.verdicts),
        failed=failed,
        problems=problems,
        metrics={k: (float(values[k]), units[k]) for k in units},
        notes=[n for n in notes if n],
    )


def write_golden() -> int:
    """Fingerprint every cell the workloads touch with live ``repro.run``:
    the suite under the paper's tools, PARSEC under all six presets, each
    at its pinned seed.  Replay verdicts must equal these live ones."""
    cells = [(wl, tool) for wl in build_suite() for tool in PAPER_TOOLS]
    cells += [(wl, preset) for wl in parsec_workloads() for preset in PRESETS]
    golden = {
        cell_key(wl.name, tool, wl.seed): repro.run(wl.name, tool).fingerprint
        for wl, tool in cells
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(golden)
