"""Performance figures: one record schema, one summary, one regression gate.

Every figure (F1/F2: the paper's slides 31-32 overhead claims; F3/F4/F6/
F7/F9: the reproduction's pipeline, interpreter, replay, streaming decode
and service) is a :class:`Figure` config row in
:data:`repro.harness.figures.FIGURES` over the code here:

* one measurement primitive per run kind — ``bare`` (interpreter, no
  detector), ``live`` (machine + detector), ``replay`` (detector over a
  recording), ``probe`` (a stored recording analyzed materialized and
  streamed, in fresh interpreters) and ``service`` (HTTP requests to a
  real daemon); repeated runs keep the minimum;
* one flat record: a dict of plain values per (workload, tool) cell, per
  workload with ``variants``, or per request path for the service;
* one summary: every derived number is a :class:`Ratio` of field sums;
* one ``BENCH_*.json`` layout (:func:`write_bench`/:func:`load_bench`)
  and one regression gate (:func:`gate`).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.detectors import ToolConfig
from repro.harness.registry import resolve_tool
from repro.harness.workload import Workload
from repro.session import run

Record = Dict[str, object]
Groups = Mapping[str, Sequence[Record]]
Check = Tuple[str, str, float]

# ---------------------------------------------------------------------------
# The summary: ratios of field sums

#: one term of a :class:`Ratio` expression — ``field`` (``#`` counts rows),
#: optionally ``@key=value`` (only rows whose ``key`` is ``value``) and
#: ``|key`` (one row per distinct ``key``); terms join with ``+``/``-``
_TERM = re.compile(r"([+-]?)([#\w]+)(?:@(\w+)=(\w+))?(?:\|(\w+))?")


def _total(rows: Sequence[Record], expr: str):
    total = 0
    for sign, name, key, want, distinct in _TERM.findall(expr):
        picked = [r for r in rows if not key or str(r[key]) == want]
        if distinct:
            picked = list({r[distinct]: r for r in picked}.values())
        s = len(picked) if name == "#" else sum(r[name] for r in picked)
        total = total - s if sign == "-" else total + s
    return total


@dataclass(frozen=True)
class Ratio:
    """``sum(num) / sum(den)`` over a record set; ``num`` alone without ``den``.

    Sums are taken *before* dividing, so timer noise on tiny rows averages
    out; one row's value is the same ratio over that row alone.  ``how``
    = ``min``/``max``/``mean`` folds the per-row ratios instead (``mean``
    is arithmetic).  The denominator is floored at ``floor`` and at
    ``floor_rel`` x its leading term.  A zero denominator gives NaN.
    """

    num: str
    den: str = ""
    how: str = "sum"
    floor: float = 0.0
    floor_rel: float = 0.0

    def of(self, rows: Sequence[Record]):
        if self.how == "sum":
            return self._sums(rows)
        values = [self._sums([r]) for r in rows]
        fold = {"min": min, "max": max}.get(self.how, lambda v: sum(v) / len(v))
        return fold(values) if values else math.nan

    def _sums(self, rows: Sequence[Record]):
        num = _total(rows, self.num)
        if not self.den:
            return num
        lead = _total(rows, self.den.split("-")[0])
        den = max(_total(rows, self.den), self.floor, self.floor_rel * lead)
        return num / den if den > 0 else math.nan


_OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Figure:
    """One figure: what it measures, how it summarizes, what it must meet."""

    key: str
    #: the bench file's ``figure`` header and the printed table title
    title: str
    #: run kinds each cell needs (see the module docstring)
    kinds: Tuple[str, ...]
    #: tool presets; ``{k}`` is the spin window
    tools: Tuple[str, ...]
    repeats: int
    #: written and printed row fields, in order
    columns: Tuple[str, ...]
    #: group summary: :attr:`ratios` names, else field sums
    summary: Tuple[str, ...]
    ratios: Mapping[str, Ratio] = field(default_factory=dict)
    #: (group, workload source): ``suite``, ``parsec`` or registry names
    groups: Tuple[Tuple[str, str], ...] = (("parsec", "parsec"),)
    #: primitive field -> record field
    rename: Mapping[str, str] = field(default_factory=dict)
    #: one row per workload, the i-th tool's fields prefixed ``<variants[i]>_``
    variants: Tuple[str, ...] = ()
    #: correctness checks, always applied
    oracle: Tuple[Check, ...] = ()
    #: acceptance bar, on full sweeps only (subsets are noise-dominated)
    #: unless ``bar_on_subsets``
    bar: Tuple[Check, ...] = ()
    bar_on_subsets: bool = False
    #: record field the benchmark pins to the golden verdict corpus
    golden: str = ""
    #: committed ``BENCH_*.json`` baseline ("" = none)
    bench: str = ""
    #: fields that identify a row across runs
    key_fields: Tuple[str, ...] = ("workload", "tool")
    #: (group, metric, bound): bound < 1 — higher is better, current must
    #: stay >= bound x committed; bound > 1 — lower is better, <= bound x
    gate: Optional[Tuple[str, str, float]] = None


# ---------------------------------------------------------------------------
# Measurement primitives, one per run kind


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bare(wl: Workload, repeats: int) -> Record:
    """Bare runs (no listener): the minimum wall-clock; steps, final state
    and decode cost of the first run, on a cold decode cache so
    ``decode_s`` is the real one-time translation."""
    from repro.vm import Machine, RandomScheduler
    from repro.vm.decode import clear_decode_cache

    clear_decode_cache()
    walls: List[float] = []
    for _ in range(max(1, repeats)):
        machine = Machine(
            wl.fresh_program(), scheduler=RandomScheduler(wl.seed), max_steps=wl.max_steps
        )
        start = time.perf_counter()
        result = machine.run()
        walls.append(time.perf_counter() - start)
        if len(walls) == 1:
            outputs, memory = repr(result.outputs), repr(sorted(result.final_memory.items()))
            first = {
                "steps": machine.step_count,
                "decode_s": machine.decode_s,
                "state": (result.status, machine.step_count, _sha(outputs), _sha(memory)),
            }
    return {"bare_s": min(walls), **first}


def _live(wl: Workload, cfg: ToolConfig, repeats: int) -> Record:
    """Machine + detector runs: the least wall-clock including the
    instrumentation phase."""
    runs = (run(wl, cfg) for _ in range(max(1, repeats)))
    best = min(runs, key=lambda r: r.run_s + r.instrument_s)
    return {
        # F3/F6's "delivered events" numerator: every event the machine
        # handed the detector, filtered or not.
        "events": best.detector.events_processed,
        "run_s": best.run_s,
        "instr_s": best.instrument_s,
        "words": best.detector_words,
        "imap_words": best.imap_words,
        "racy_contexts": best.report.racy_contexts,
        "fingerprint": _sha(best.report.fingerprint()),
    }


def _record(wl: Workload, configs: Sequence[ToolConfig]):
    """Record ``wl`` once, instrumented for every config (the trace
    store's ``max(8, spin window)`` convention): (trace, key, seconds)."""
    from repro.trace import record_trace, trace_key

    program = wl.fresh_program()
    shape = {
        "seed": wl.seed,
        "max_steps": wl.max_steps,
        "max_blocks": max([8, *(c.spin_max_blocks for c in configs)]),
        "inline_depth": max(c.inline_depth for c in configs),
    }
    start = time.perf_counter()
    trace = record_trace(program, **shape)
    return trace, trace_key(program.fingerprint(), **shape), time.perf_counter() - start


def _replay(trace, cfg: ToolConfig, repeats: int) -> Record:
    """Detector-only analyses of a recording (delivery plus finalize)."""
    from repro.trace import analyze_trace

    runs = (analyze_trace(trace, cfg) for _ in range(max(1, repeats)))
    best = min(runs, key=lambda a: a.run_s)
    return {"replay_s": best.run_s, "replay_fingerprint": _sha(best.report.fingerprint())}


def _streaming_probe(mode: str, trace_dir: str, key: str, tool_name: str) -> Dict:
    """Probe-child body: the peak traced allocation of exactly one store
    read (``get``, or ``open_stream`` for ``stream``) plus its analysis."""
    import tracemalloc

    from repro.harness.resources import peak_rss_bytes
    from repro.trace import TraceStore, analyze_trace

    store = TraceStore(trace_dir)
    tracemalloc.start()
    t0 = time.perf_counter()
    source = store.open_stream(key) if mode == "stream" else store.get(key)
    if source is None:
        raise RuntimeError(f"trace {key[:16]}… missing from probe store")
    analysis = analyze_trace(source, resolve_tool(tool_name))
    duration = time.perf_counter() - t0
    _, peak_alloc = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "peak_alloc": peak_alloc,
        "total_peak": peak_rss_bytes(),
        "s": duration,
        "result": [analysis.events, analysis.report.fingerprint()],
    }


_PROBE_SNIPPET = (
    "import json, sys\n"
    "from repro.harness.perf import _streaming_probe\n"
    "print(json.dumps(_streaming_probe(*sys.argv[1:5])))\n"
)


def _probe(trace, key: str, tool_name: str, repeats: int) -> Record:
    """Analyze a recording materialized and streamed, each probe in a
    fresh ``python -c`` interpreter (a forked child would inherit the
    parent's RSS high-water); per mode the least peak is kept."""
    import os
    import subprocess
    import sys
    import tempfile

    from repro.trace import TraceStore

    env = dict(os.environ)
    root = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH", "")) if p)
    out: Record = {}
    with tempfile.TemporaryDirectory(prefix="repro-f7-") as tmp:
        TraceStore(tmp).put(key, trace)
        for mode in ("inmem", "stream"):
            probes = []
            for _ in range(max(1, repeats)):
                proc = subprocess.run(
                    [sys.executable, "-c", _PROBE_SNIPPET, mode, tmp, key, tool_name],
                    capture_output=True, text=True, env=env, timeout=600,
                )
                if proc.returncode != 0:
                    raise RuntimeError(
                        f"F7 {mode} probe failed (exit {proc.returncode}): "
                        f"{proc.stderr.strip()[-500:]}"
                    )
                probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            best = min(probes, key=lambda p: p["peak_alloc"])
            out.update({f"{mode}_{k}": v for k, v in best.items() if k != "s"})
            out[f"{mode}_s"] = min(p["s"] for p in probes)
    out["events"] = out["inmem_result"][0]
    out["fingerprints_match"] = out.pop("inmem_result") == out.pop("stream_result")
    return out


#: requests per path, concurrent clients, and each request's step budget
#: (a small racy cell: a cold request runs in tens of milliseconds)
SERVICE_REQUESTS, SERVICE_CLIENTS, SERVICE_MAX_STEPS = 24, 8, 60_000


def _service(workload: str, tool: str, requests: int, workers: int) -> List[Record]:
    """Boot the engine + HTTP transport on an ephemeral port and time
    ``requests`` round trips per path from concurrent clients over two
    tenants: **cold** (seed-varied, each executed), **cached** (the same
    again, served from the journaled verdict index) and **degraded**
    (fresh seeds under forced resource pressure: streaming replays).
    Each cold verdict is checked against a direct :func:`repro.run`."""
    import asyncio
    import os
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    import repro
    from repro.service.app import HttpServer
    from repro.service.client import post
    from repro.service.engine import FORCE_PRESSURE_ENV, Engine

    clients = min(SERVICE_CLIENTS, requests)

    async def drive(port: int, path: str, seeds: Sequence[int]) -> Record:
        loop = asyncio.get_running_loop()
        done: List[Tuple[int, float, dict]] = []

        def request(i: int, seed: int) -> None:
            body = {
                "v": 1, "id": f"{path}-{i}", "tenant": "bench-a" if i % 2 == 0 else "bench-b",
                "kind": "workload", "workload": workload, "tool": tool, "seed": seed,
                "max_steps": SERVICE_MAX_STEPS,
            }
            t0 = time.perf_counter()
            resp = post("127.0.0.1", port, body, timeout=120)
            done.append((seed, time.perf_counter() - t0, resp))

        async def client(work: Sequence[Tuple[int, int]]) -> None:
            for i, seed in work:
                # http.client blocks; run each round trip off-loop so the
                # daemon (same loop) keeps scheduling underneath
                await loop.run_in_executor(threads, request, i, seed)

        work = list(enumerate(seeds))
        # one thread per client: the default executor may have fewer
        with ThreadPoolExecutor(max_workers=clients) as threads:
            start = time.perf_counter()
            await asyncio.gather(*(client(work[c::clients]) for c in range(clients)))
            total_s = time.perf_counter() - start
        expect = "degraded" if path == "degraded" else "ok"
        errors = sum(1 for _, _, resp in done if resp.get("status") != expect)
        match = path != "cold" or errors > 0 or all(
            repro.run(workload, tool, seed=seed, max_steps=SERVICE_MAX_STEPS).fingerprint
            == resp["verdict"]["fingerprint"]
            for seed, _, resp in done
            if "verdict" in resp
        )
        lat = sorted(t for _, t, _ in done)  # nearest-rank percentiles
        ms = {f"p{q}_ms": lat[round(q / 100 * (len(lat) - 1))] * 1000.0 for q in (50, 99)}
        return {
            "path": path, "requests": len(seeds), "clients": clients, "workers": workers,
            "total_s": total_s, **ms, "errors": errors, "fingerprints_match": match,
        }

    async def main() -> List[Record]:
        with tempfile.TemporaryDirectory(prefix="repro-svc-bench-") as td:
            engine = Engine(
                td, workers=workers, queue_depth=max(64, requests * 2),
                # the bench measures the pool, not the tenant bucket
                tenant_rate=1e9, tenant_burst=1e9, default_deadline_s=300.0,
            )
            await engine.startup()
            http = await HttpServer.start(engine, "127.0.0.1", 0)
            port = http.port
            forced_before = os.environ.get(FORCE_PRESSURE_ENV)
            try:
                seeds = list(range(1, requests + 1))
                rows = [await drive(port, "cold", seeds), await drive(port, "cached", seeds)]
                os.environ[FORCE_PRESSURE_ENV] = "degraded"
                rows.append(await drive(port, "degraded", [s + requests for s in seeds]))
                return rows
            finally:
                if forced_before is None:
                    os.environ.pop(FORCE_PRESSURE_ENV, None)
                else:
                    os.environ[FORCE_PRESSURE_ENV] = forced_before
                http.close()
                await engine.shutdown()
                await http.wait_closed()

    return asyncio.run(main())


# ---------------------------------------------------------------------------
# Assembly: config row -> records


def cells(
    fig: Figure,
    workloads: Sequence[Workload],
    names: Sequence[str],
    repeats: Optional[int] = None,
) -> List[Record]:
    """Run ``fig``'s kinds over (workload, tool preset name) cells: one
    record per cell, or per workload with ``variants``."""
    configs = [resolve_tool(name) for name in names]
    repeats = fig.repeats if repeats is None else repeats

    def renamed(rec: Record) -> Record:
        return {fig.rename.get(k, k): x for k, x in rec.items()}

    records: List[Record] = []
    for wl in workloads:
        shared: Record = {"workload": wl.name}
        if "bare" in fig.kinds:
            shared.update(_bare(wl, repeats))
        if "replay" in fig.kinds or "probe" in fig.kinds:
            trace, key, shared["record_s"] = _record(wl, configs)
        per_tool: List[Record] = []
        for cfg, name in zip(configs, names):
            rec: Record = {"tool": cfg.name, "spin": cfg.spin}
            if "live" in fig.kinds:
                rec.update(_live(wl, cfg, repeats))
            if "replay" in fig.kinds:
                rec.update(_replay(trace, cfg, repeats))
                rec["fingerprints_match"] = rec.pop("replay_fingerprint") == rec["fingerprint"]
            if "probe" in fig.kinds:
                # the probe children resolve the preset in their own interpreter
                rec.update(_probe(trace, key, name, repeats))
            per_tool.append(renamed(rec))
        if fig.variants:
            per_tool = [
                {f"{v}_{k}": x for v, r in zip(fig.variants, per_tool) for k, x in r.items()}
            ]
        records.extend(_derive(fig, {**renamed(shared), **row}) for row in per_tool or [{}])
    return records


def _derive(fig: Figure, rec: Record) -> Record:
    """``rec`` plus its derived columns: each a ratio over the row alone."""
    return {**rec, **{c: fig.ratios[c].of([rec]) for c in fig.columns if c in fig.ratios}}


def measure(
    fig: Figure,
    limit: int = 0,
    tools: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
    k: int = 7,
    workers: int = 2,
) -> Dict[str, List[Record]]:
    """Every group of ``fig`` measured: group name -> records.

    ``limit`` caps each group's workloads (the service's requests per
    path); ``tools`` replaces the figure's presets, whose ``{k}`` is the
    spin window; ``workers`` sizes the service's worker pool.
    """
    from repro.harness.registry import resolve_workload
    from repro.workloads import build_suite, parsec_workloads

    names = list(tools) if tools else [t.format(k=k) for t in fig.tools]
    groups: Dict[str, List[Record]] = {}
    for group, source in fig.groups:
        if fig.kinds == ("service",):
            requests = min(limit, SERVICE_REQUESTS) if limit else SERVICE_REQUESTS
            rows = _service(source, names[0], requests, workers)
            groups[group] = [_derive(fig, r) for r in rows]
            continue
        wls = {"suite": build_suite, "parsec": parsec_workloads}.get(
            source, lambda: [resolve_workload(n) for n in source.split(",")]
        )()
        groups[group] = cells(fig, wls[: limit or None], names, repeats)
    return groups


# ---------------------------------------------------------------------------
# One summary, one bench file, one gate


def value(fig: Figure, rows: Sequence[Record], name: str):
    """``name`` over ``rows``: a :attr:`Figure.ratios` entry, else a field sum."""
    return fig.ratios[name].of(rows) if name in fig.ratios else _total(rows, name)


def summarize(fig: Figure, rows: Sequence[Record]) -> Dict[str, object]:
    return {name: value(fig, rows, name) for name in fig.summary}


def check(fig: Figure, groups: Groups, full: bool = True) -> List[str]:
    """Failed oracle and bar checks, as messages (empty: the figure passes)."""
    checks = fig.oracle + (fig.bar if full or fig.bar_on_subsets else ())
    return [
        f"{fig.key} {group}: {metric} = {got} fails {op} {bound}"
        for group, rows in groups.items()
        for metric, op, bound in checks
        if not _OPS[op](got := value(fig, rows, metric), bound)
    ]


def _round(name: str, v):
    """Floats as written and printed: rates to 0.1, seconds to 1 us, else 3 places."""
    if not isinstance(v, float):
        return v
    return round(v, 1 if name.endswith("_per_s") else 6 if name.endswith("_s") else 3)


def write_bench(path: Union[str, Path], fig: Figure, groups: Groups) -> Dict[str, object]:
    """Write one ``BENCH_*.json``: ``schema``/``figure`` headers, each
    group's summary and flat per-row dicts of the figure's columns, tagged
    with their group."""
    payload = {
        "schema": 1,
        "figure": fig.title,
        "groups": {
            g: {k: _round(k, v) for k, v in summarize(fig, rows).items()}
            for g, rows in groups.items()
        },
        "rows": [
            {"group": g, **{c: _round(c, r[c]) for c in fig.columns}}
            for g, rows in groups.items()
            for r in rows
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def load_bench(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """A committed ``BENCH_*.json`` (``None`` if absent or unreadable —
    the gate treats both as "no baseline yet")."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return None


class GateResult(NamedTuple):
    current: float
    committed: float
    ok: bool


def gate(fig: Figure, groups: Groups, committed: Optional[Mapping]) -> Optional[GateResult]:
    """The regression gate against a committed bench file.

    The committed metric is recomputed over exactly the rows measured
    (matched on :attr:`Figure.key_fields`), so a subset run compares the
    same mix as the committed full sweep.  ``None`` — no gate — when the
    figure has none or the committed file lacks a measured row.
    """
    if fig.gate is None or not committed:
        return None
    group, metric, bound = fig.gate
    rows = groups.get(group, ())
    wanted = {tuple(r[k] for k in fig.key_fields) for r in rows}
    base = [
        r
        for r in committed.get("rows", ())
        if r.get("group") == group and tuple(r.get(k) for k in fig.key_fields) in wanted
    ]
    if not rows or len(base) < len(wanted):
        return None
    current, before = value(fig, rows, metric), value(fig, base, metric)
    if not before > 0:
        return None
    ok = current >= bound * before if bound < 1 else current <= bound * before
    return GateResult(current, before, ok)


def render(fig: Figure, groups: Groups) -> str:
    """Each group's rows as a table, then its summary line."""
    from repro.harness.tables import format_table

    out = []
    for group, rows in groups.items():
        table = [[str(_round(c, r[c])) for c in fig.columns] for r in rows]
        out.append(format_table(list(fig.columns), table, title=f"{fig.title} [{group}]"))
        s = summarize(fig, rows)
        line = ", ".join(f"{k.replace('_', ' ')} {_round(k, v)}" for k, v in s.items())
        out.append(f"{fig.key} {group}: {line}")
    return "\n".join(out)
