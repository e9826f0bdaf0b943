"""The race-detector façade and the paper's tool configurations.

:class:`RaceDetector` is a VM event listener wiring together

* **interception** — in ``lib`` mode, annotated library calls become
  synchronization operations and library-internal traffic (memory events
  and spin-loop markers alike) is hidden, as Helgrind+ does for
  intercepted pthread functions; in ``nolib`` mode all annotations are
  ignored and raw traffic flows through (the universal detector);
* the **ad-hoc engine** — the runtime phase of spin-loop detection (only
  when the configuration enables the spin feature);
* a **race algorithm** — the Helgrind+ hybrid or the pure-hb baseline.

:class:`ToolConfig` presets mirror the paper's tool columns::

    ToolConfig.helgrind_lib()            # Helgrind+  lib
    ToolConfig.helgrind_lib_spin(7)      # Helgrind+  lib+spin(7)
    ToolConfig.helgrind_nolib_spin(7)    # Helgrind+  nolib+spin(7)
    ToolConfig.drd()                     # DRD
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.isa.program import SyncKind
from repro.vm import events as ev
from repro.detectors.adhoc import AdhocSyncEngine
from repro.detectors.condvar_monitor import CondvarMonitor
from repro.detectors.base import VectorClockAlgorithm
from repro.detectors.happensbefore import PureHappensBeforeAlgorithm
from repro.detectors.hybrid import HybridAlgorithm
from repro.detectors.lockset import EraserAlgorithm
from repro.detectors.reports import Report


@dataclass(frozen=True)
class ToolConfig:
    """A detector configuration (one column of the paper's tables)."""

    name: str
    #: honour library annotations and hide library internals
    intercept_lib: bool = True
    #: race algorithm: "hybrid" (Helgrind+), "hb" (DRD), or
    #: "lockset" (pure Eraser — background baseline, slides 8-10)
    algorithm: str = "hybrid"
    #: enable the spin-loop feature (instrumentation + runtime phase)
    spin: bool = False
    #: spin(k): max effective basic blocks of a qualifying loop
    spin_max_blocks: int = 7
    #: inlining depth for condition helper calls
    inline_depth: int = 1
    #: coarse lost-signal-tolerant condvar heuristic (plain lib mode only)
    coarse_cv: bool = False
    #: long-running-application state machine (less sensitive)
    long_run: bool = False
    #: racy-context granularity: "symbol" (Helgrind-style, one context
    #: per variable and location pair) or "address" (DRD-style, one per
    #: element) — drives the paper's huge DRD counts on array programs
    context_granularity: str = "symbol"
    #: ablation: match counterpart writes on *any* read of a classified
    #: sync variable (paper: dependencies are per *variable*), not only on
    #: the marked loads themselves.  Off loses the CAS-grab re-read path.
    adhoc_variable_level: bool = True
    #: ablation: suppress data-race checks on classified sync variables
    #: (the paper's synchronization-race elimination)
    adhoc_suppress: bool = True
    #: the paper's future work: statically identify lock-acquire CAS
    #: sites and feed them to lockset analysis instead of hb edges
    #: (meaningful in nolib mode; see repro.analysis.lockinfer)
    infer_locks: bool = False

    # -- the paper's presets ------------------------------------------------

    @classmethod
    def helgrind_lib(cls, long_run: bool = False) -> "ToolConfig":
        return cls(
            name="Helgrind+ lib",
            intercept_lib=True,
            algorithm="hybrid",
            spin=False,
            coarse_cv=True,
            long_run=long_run,
        )

    @classmethod
    def helgrind_lib_spin(cls, k: int = 7, long_run: bool = False) -> "ToolConfig":
        return cls(
            name=f"Helgrind+ lib+spin({k})",
            intercept_lib=True,
            algorithm="hybrid",
            spin=True,
            spin_max_blocks=k,
            long_run=long_run,
        )

    @classmethod
    def helgrind_nolib_spin(cls, k: int = 7, long_run: bool = False) -> "ToolConfig":
        return cls(
            name=f"Helgrind+ nolib+spin({k})",
            intercept_lib=False,
            algorithm="hybrid",
            spin=True,
            spin_max_blocks=k,
            long_run=long_run,
        )

    @classmethod
    def drd(cls) -> "ToolConfig":
        return cls(
            name="DRD",
            intercept_lib=True,
            algorithm="hb",
            spin=False,
            context_granularity="address",
        )

    @classmethod
    def eraser(cls) -> "ToolConfig":
        """Pure lockset analysis — the background baseline whose
        signal/wait false positive (slide 10) motivates hybrids."""
        return cls(
            name="Eraser (lockset)",
            intercept_lib=True,
            algorithm="lockset",
            spin=False,
        )

    @classmethod
    def universal_hybrid(cls, k: int = 7) -> "ToolConfig":
        """nolib+spin plus inferred-lock lockset analysis — the paper's
        future-work configuration (slide 33)."""
        return cls(
            name=f"Helgrind+ nolib+spin({k})+lockinfer",
            intercept_lib=False,
            algorithm="hybrid",
            spin=True,
            spin_max_blocks=k,
            infer_locks=True,
        )

    @classmethod
    def paper_tools(cls, k: int = 7) -> "tuple[ToolConfig, ...]":
        """The four tool columns of the paper's evaluation tables."""
        return (
            cls.helgrind_lib(),
            cls.helgrind_lib_spin(k),
            cls.helgrind_nolib_spin(k),
            cls.drd(),
        )

    def with_name(self, name: str) -> "ToolConfig":
        return replace(self, name=name)

    # -- named preset registry ---------------------------------------------

    @classmethod
    def preset(cls, name: str, **overrides) -> "ToolConfig":
        """Resolve a preset by name: ``ToolConfig.preset("helgrind-nolib-spin7")``.

        Names are case-insensitive; ``_``/space are accepted for ``-``.
        A trailing integer is parsed as the spin(k) bound and forwarded
        as the factory's ``k`` argument ("drd" takes none, so "drd7" is
        rejected by the factory).  Extra keyword arguments are forwarded
        to the preset factory (e.g. ``long_run=True``).
        """
        key = name.strip().lower().replace("_", "-").replace(" ", "-")
        factory = _PRESETS.get(key)
        if factory is None:
            m = re.fullmatch(r"(.*?)-?(\d+)", key)
            if m and m.group(1) in _PRESETS:
                factory = _PRESETS[m.group(1)]
                overrides.setdefault("k", int(m.group(2)))
        if factory is None:
            known = ", ".join(cls.presets())
            raise KeyError(f"unknown tool preset {name!r}; known presets: {known}")
        return factory(**overrides)

    @classmethod
    def presets(cls) -> Tuple[str, ...]:
        """The registered preset names, sorted."""
        return tuple(sorted(_PRESETS))


#: name -> factory; names resolve via :meth:`ToolConfig.preset`, which
#: also accepts a trailing spin(k) digit suffix (``helgrind-nolib-spin7``).
_PRESETS: Dict[str, Callable[..., ToolConfig]] = {
    "helgrind-lib": ToolConfig.helgrind_lib,
    "helgrind-lib-spin": ToolConfig.helgrind_lib_spin,
    "helgrind-nolib-spin": ToolConfig.helgrind_nolib_spin,
    "drd": ToolConfig.drd,
    "eraser": ToolConfig.eraser,
    "lockset": ToolConfig.eraser,
    "universal": ToolConfig.universal_hybrid,
    "universal-hybrid": ToolConfig.universal_hybrid,
}


def register_preset(name: str, factory: Callable[..., ToolConfig]) -> None:
    """Register an extra named preset (for downstream experiment scripts)."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    _PRESETS[key] = factory


class RaceDetector:
    """Event listener implementing one tool configuration."""

    def __init__(
        self,
        config: ToolConfig,
        symbolize: Optional[Callable[[int], str]] = None,
        lock_sites: frozenset = frozenset(),
    ) -> None:
        """``lock_sites``: code locations of statically inferred
        lock-acquire CAS instructions (only used when
        ``config.infer_locks``); typically
        :func:`repro.analysis.lock_site_locations` of the program."""
        self.config = config
        self.lock_sites = lock_sites if config.infer_locks else frozenset()
        self.report = Report(tool=config.name, granularity=config.context_granularity)
        algo_cls = {
            "hybrid": HybridAlgorithm,
            "hb": PureHappensBeforeAlgorithm,
            "lockset": EraserAlgorithm,
        }[config.algorithm]
        self.adhoc: Optional[AdhocSyncEngine] = None
        suppressor = None
        if config.spin and config.adhoc_suppress:
            # The suppressor closes over the engine created right after.
            suppressor = self._is_sync_addr
        self.algorithm: VectorClockAlgorithm = algo_cls(
            report=self.report,
            suppressor=suppressor,
            symbolize=symbolize,
            coarse_cv=config.coarse_cv,
            long_run=config.long_run,
        )
        self._symbolize_explicit = symbolize is not None
        if config.spin:
            self.adhoc = AdhocSyncEngine(self.algorithm)
        # Helgrind+'s condvar bug-pattern detectors (lib mode: needs the
        # CV annotations to see waits and signals).
        self.cv_monitor: Optional[CondvarMonitor] = (
            CondvarMonitor() if config.intercept_lib else None
        )
        self.events_processed = 0
        self._finalized = False

    def _is_sync_addr(self, addr: int) -> bool:
        return self.adhoc is not None and self.adhoc.is_sync_addr(addr)

    # -- VM attachment -----------------------------------------------------

    @property
    def skip_in_library_traffic(self) -> bool:
        """In lib mode, library-internal memory/marker traffic is dropped
        unconditionally — the VM may skip buffering it altogether."""
        return self.config.intercept_lib

    def on_attach(self, machine) -> None:
        """Called by :class:`~repro.vm.machine.Machine` at construction.

        Wires address symbolization to the machine's symbol table unless
        a symbolizer was passed explicitly — this replaces the manual
        ``detector.algorithm.symbolize = machine.memory.symbols.resolve``
        step of the pre-session API.
        """
        if not self._symbolize_explicit:
            self.algorithm.symbolize = machine.memory.symbols.resolve

    # -- the listener ----------------------------------------------------

    def __call__(self, e: ev.Event) -> None:
        self.events_processed += 1
        cfg = self.config
        if isinstance(e, ev.MemRead):
            if cfg.intercept_lib and e.in_library:
                return
            if self.adhoc is not None and cfg.adhoc_variable_level:
                self.adhoc.sync_read(e.tid, e.addr, e.value)
            self.algorithm.read(e.tid, e.addr, e.loc, e.atomic)
        elif isinstance(e, ev.MemWrite):
            if cfg.intercept_lib and e.in_library:
                return
            if self.lock_sites:
                self._inferred_lock_write(e)
            self.algorithm.write(e.tid, e.addr, e.value, e.loc, e.atomic)
        elif isinstance(e, ev.MarkedCondRead):
            if self.adhoc is None or (cfg.intercept_lib and e.in_library):
                return
            self.adhoc.cond_read(e)
        elif isinstance(e, ev.MarkedLoopEnter):
            if self.adhoc is None or (cfg.intercept_lib and e.in_library):
                return
            self.adhoc.loop_enter(e)
        elif isinstance(e, ev.MarkedLoopExit):
            if self.adhoc is None or (cfg.intercept_lib and e.in_library):
                return
            self.adhoc.loop_exit(e)
        elif isinstance(e, ev.LibEnter):
            if cfg.intercept_lib and not e.in_library:
                self._lib_enter(e)
        elif isinstance(e, ev.LibExit):
            if cfg.intercept_lib and not e.in_library:
                self._lib_exit(e)
        elif isinstance(e, ev.ThreadSpawnEvent):
            self.algorithm.spawn(e.tid, e.child)
        elif isinstance(e, ev.ThreadJoinEvent):
            self.algorithm.join(e.tid, e.joined)
        # ThreadStart/Exit/Print are not detector-relevant.

    # -- batched delivery --------------------------------------------------

    def consume_batch(
        self,
        reads: Sequence[tuple],
        writes: Sequence[tuple],
        ctrl: Sequence[tuple] = (),
    ) -> None:
        """Consume one VM event batch.

        ``reads``/``writes`` are flat tuples
        ``(seq, tid, addr, value, loc, atomic, in_library)``; ``ctrl`` is
        ``(seq, event)`` with full :class:`~repro.vm.events.Event`
        objects for the rare control/sync events.  ``seq`` is the VM's
        global event counter, so a three-way merge on it replays the
        exact per-event order of :meth:`__call__` — the ad-hoc
        counterpart-write matcher and the condvar monitor observe the
        same interleaving either way.
        """
        nr, nw, nc = len(reads), len(writes), len(ctrl)
        self.events_processed += nr + nw
        cfg = self.config
        skip_lib = cfg.intercept_lib
        algo = self.algorithm
        aread, awrite = algo.read, algo.write
        sync_read = (
            self.adhoc.sync_read
            if self.adhoc is not None and cfg.adhoc_variable_level
            else None
        )
        lock_sites = self.lock_sites
        i = j = k = 0
        inf = float("inf")
        while i < nr or j < nw or k < nc:
            rs = reads[i][0] if i < nr else inf
            ws = writes[j][0] if j < nw else inf
            cs = ctrl[k][0] if k < nc else inf
            if rs < ws and rs < cs:
                r = reads[i]
                i += 1
                if skip_lib and r[6]:
                    continue
                if sync_read is not None:
                    sync_read(r[1], r[2], r[3])
                aread(r[1], r[2], r[4], r[5])
            elif ws < cs:
                w = writes[j]
                j += 1
                if skip_lib and w[6]:
                    continue
                if lock_sites:
                    self._inferred_lock_write_fields(w[1], w[2], w[3], w[4], w[5])
                awrite(w[1], w[2], w[3], w[4], w[5])
            else:
                e = ctrl[k][1]
                k += 1
                self(e)

    # -- inferred-lock handling (future work, slide 33) ------------------

    def _inferred_lock_write(self, e: ev.MemWrite) -> None:
        self._inferred_lock_write_fields(e.tid, e.addr, e.value, e.loc, e.atomic)

    def _inferred_lock_write_fields(
        self, tid: int, addr: int, value: int, loc, atomic: bool
    ) -> None:
        """Successful CAS at an inferred acquire site = lock acquire;
        the holder's store of 0 to the lock word = release."""
        if atomic and loc in self.lock_sites:
            self.algorithm.acquire_lock(tid, addr)
            if self.adhoc is not None:
                self.adhoc.inferred_locks.add(addr)
                self.adhoc.sync_addrs.add(addr)
        elif value == 0 and self.algorithm.holds(tid, addr):
            self.algorithm.release_lock(tid, addr)

    # -- annotation semantics ---------------------------------------------

    def _lib_enter(self, e: ev.LibEnter) -> None:
        algo = self.algorithm
        kind = e.kind
        if kind is SyncKind.LOCK_RELEASE:
            algo.release_lock(e.tid, e.obj_addr)
        elif kind in (SyncKind.CV_SIGNAL, SyncKind.CV_BROADCAST):
            algo.signal(e.tid, e.obj_addr)
            if self.cv_monitor is not None:
                self.cv_monitor.signal(e.obj_addr)
        elif kind is SyncKind.CV_WAIT:
            if self.cv_monitor is not None:
                self.cv_monitor.wait_enter(e.tid, e.obj_addr, e.loc)
            # pthread semantics: the wait releases the mutex on entry.
            if e.obj2_addr is not None:
                algo.release_lock(e.tid, e.obj2_addr)
        elif kind is SyncKind.BARRIER_WAIT:
            algo.barrier_enter(e.tid, e.obj_addr)
        elif kind is SyncKind.SEM_POST:
            algo.sem_post(e.tid, e.obj_addr)
        # LOCK_ACQUIRE, SEM_WAIT, SYNC_INIT act on exit.

    def _lib_exit(self, e: ev.LibExit) -> None:
        algo = self.algorithm
        kind = e.kind
        if kind is SyncKind.LOCK_ACQUIRE:
            algo.acquire_lock(e.tid, e.obj_addr)
        elif kind is SyncKind.CV_WAIT:
            if self.cv_monitor is not None:
                self.cv_monitor.wait_exit(e.tid, e.obj_addr, e.loc)
            algo.wait_return(e.tid, e.obj_addr)
            if e.obj2_addr is not None:
                algo.acquire_lock(e.tid, e.obj2_addr)
        elif kind is SyncKind.BARRIER_WAIT:
            algo.barrier_leave(e.tid, e.obj_addr)
        elif kind is SyncKind.SEM_WAIT:
            algo.sem_wait_return(e.tid, e.obj_addr)

    # -- end-of-run diagnostics ------------------------------------------

    def finalize(self, partial: bool = False) -> Report:
        """Seal the detector after the event stream ended.

        ``partial=True`` marks a truncated/faulted stream (livelock,
        injected fault, clamped step budget): the report stays sound for
        the observed prefix but is flagged non-exhaustive.  This method
        never raises — graceful degradation is the contract the chaos
        suite pins — so a component that fails to finalize turns into a
        note on the report instead of an exception.  Idempotent: a
        second call returns the sealed report unchanged.
        """
        if self._finalized:
            return self.report
        self._finalized = True
        self.report.partial = partial

        def finalize_cv() -> None:
            if self.cv_monitor is None:
                return
            # Condvar protocol diagnostics ride along as report notes so
            # they survive pickling of the outcome (the detector itself
            # does not).
            for w in self.cv_monitor.finalize():
                self.report.notes.append(str(w))

        for name, fn in (
            ("algorithm", lambda: self.algorithm.finalize(partial=partial)),
            (
                "adhoc",
                lambda: self.adhoc.finalize(partial=partial)
                if self.adhoc is not None
                else None,
            ),
            ("cv_monitor", finalize_cv),
        ):
            try:
                fn()
            except Exception as exc:  # pragma: no cover - defensive
                self.report.notes.append(f"{name} finalize failed: {exc!r}")
        return self.report

    def sync_warnings(self):
        """Condvar protocol diagnostics (lost signals, spurious wake-ups);
        call after the run has finished."""
        if self.cv_monitor is None:
            return []
        return self.cv_monitor.finalize()

    # -- accounting -------------------------------------------------------

    def memory_words(self) -> int:
        """Detector-state footprint (shadow + clocks + adhoc + report)."""
        words = self.algorithm.memory_words() + self.report.memory_words()
        if self.adhoc is not None:
            words += self.adhoc.memory_words()
        if self.cv_monitor is not None:
            words += self.cv_monitor.memory_words()
        return words
