"""Per-layer tracing for the benchmark, installed from outside the program.

A :class:`Tracer` records *spans* — name, start, end, parent and cell id —
in memory and writes them out once the run ends.  Spans come from two
places:

* the benchmark's own calls into a layer (``span(tracer, "trace.analyze")``
  around ``repro.trace.analyze_trace``), and
* timing wrappers that :meth:`Tracer.installed` puts on the program's
  internal layer entry points (:func:`patch_points`) for the duration of
  a ``with`` block, restoring every original attribute on exit.

Nothing in ``src/`` knows about the tracer: an untraced run never calls
:meth:`Tracer.installed`, so it executes the unmodified program.

A span's *self time* is its duration minus the time its child spans
cover.  Children always run on their parent's thread, so self times of
all spans add up to the duration of the root spans; :meth:`Tracer.check`
verifies that, which catches a wrapper that double-counts or leaks a
frame.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def patch_points() -> List[Tuple[object, str, Optional[str]]]:
    """``(owner, attribute, span name)`` of every wrapped entry point.

    Each attribute is patched where its caller resolves it: methods on
    their class, module functions on the module that calls them.  A
    ``None`` span name counts calls without timing them — the detector's
    per-event path can run a million times a second.
    """
    import repro.harness.parallel
    import repro.session
    from repro.detectors import RaceDetector
    from repro.harness import ResultCache, SweepJournal, Workload
    from repro.vm import Machine

    return [
        (RaceDetector, "consume_batch", "detectors.consume"),
        (RaceDetector, "finalize", "detectors.finalize"),
        (RaceDetector, "__call__", None),
        (Machine, "run", "vm.interpret"),
        (Workload, "fresh_program", "isa.build"),
        (repro.session, "instrument_program_cached", "analysis.instrument"),
        (repro.harness.parallel, "prewarm_static", "harness.prewarm"),
        (ResultCache, "put", "harness.cache_put"),
        (SweepJournal, "append", "harness.journal_append"),
    ]


def span(tracer: Optional["Tracer"], name: str, cell: Optional[str] = None):
    """A span on ``tracer``, or a no-op context when tracing is off."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name, cell)


class Tracer:
    """In-memory span recorder with install/restore of layer wrappers."""

    def __init__(self) -> None:
        #: finished spans: (id, name, start_ns, end_ns, parent id, cell, self_ns)
        self.spans: List[tuple] = []
        #: calls through the count-only wrappers, by attribute name
        self.calls: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, cell: Optional[str]) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent[4]
        # frame: id, name, start, covered-by-children ns, cell, parent id
        frame = [next(self._ids), name, time.perf_counter_ns(), 0, cell,
                 parent[0] if parent is not None else None]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        self.spans.append(
            (frame[0], frame[1], frame[2], end, frame[5], frame[4], duration - frame[3])
        )

    @contextlib.contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        frame = self._open(name, cell)
        try:
            yield
        finally:
            self._close(frame)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _counted(self, fn, attr: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every :func:`patch_points` attribute for the block."""
        saved = []
        try:
            for owner, attr, name in patch_points():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                wrapper = (
                    self._counted(original, attr)
                    if name is None
                    else self._timed(original, name)
                )
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Span name → (count, self seconds, duration seconds)."""
        acc: Dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for _sid, name, start, end, _parent, _cell, self_ns in self.spans:
            row = acc[name]
            row[0] += 1
            row[1] += self_ns
            row[2] += end - start
        return {k: (n, s / 1e9, d / 1e9) for k, (n, s, d) in acc.items()}

    def roots(self) -> Tuple[float, float]:
        """(Σ root duration, Σ root self time) in seconds — the wall the
        spans cover and the part of it no layer span claimed (``other``)."""
        wall = other = 0
        for _sid, _name, start, end, parent, _cell, self_ns in self.spans:
            if parent is None:
                wall += end - start
                other += self_ns
        return wall / 1e9, other / 1e9

    def check(self, tolerance: float = 0.05) -> Optional[str]:
        """``None`` when attributed self times plus ``other`` equal the
        roots' wall time within ``tolerance``; else the discrepancy."""
        wall, _other = self.roots()
        attributed = sum(s[6] for s in self.spans) / 1e9
        if wall <= 0:
            return "no spans recorded"
        gap = abs(attributed - wall) / wall
        if gap > tolerance:
            return (
                f"self times sum to {attributed:.4f}s but root spans cover "
                f"{wall:.4f}s ({gap:.1%} apart, limit {tolerance:.0%})"
            )
        return None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, cell, self_ns in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "cell": cell, "self_ns": self_ns,
                }) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls)}) + "\n")
