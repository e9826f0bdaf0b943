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
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.isa.program import SyncKind
from repro.vm import events as ev
from repro.vm.events import (
    COND_READ,
    JOIN,
    LIB_ENTER,
    LIB_EXIT,
    LOOP_ENTER,
    LOOP_EXIT,
    READ,
    SPAWN,
    WRITE,
)
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
    """Event listener implementing one tool configuration.

    Every event source feeds the same kernel, :meth:`consume_batch`:
    the VM's flush during a live run, a recording's columns during
    replay, decoded chunks while streaming.  ``__call__`` adapts a
    single Event to it.
    """

    def __init__(
        self,
        config: ToolConfig,
        symbolize: Optional[Callable[[int], str]] = None,
        lock_sites: frozenset = frozenset(),
        loop_sizes: Optional[Mapping[int, int]] = None,
    ) -> None:
        """``lock_sites``: code locations of statically inferred
        lock-acquire CAS instructions (only used when
        ``config.infer_locks``); typically
        :func:`repro.analysis.lock_site_locations` of the program.
        ``loop_sizes``: effective block count per marked loop id of a
        recording instrumented wider than this config's spin window;
        marker rows of loops wider than the window are ignored."""
        self.config = config
        self.lock_sites = lock_sites if config.infer_locks else frozenset()
        self.report = Report(tool=config.name, granularity=config.context_granularity)
        algo_cls = {
            "hybrid": HybridAlgorithm,
            "hb": PureHappensBeforeAlgorithm,
            "lockset": EraserAlgorithm,
        }[config.algorithm]
        self.algorithm: VectorClockAlgorithm = algo_cls(
            report=self.report,
            symbolize=symbolize,
            coarse_cv=config.coarse_cv,
            long_run=config.long_run,
        )
        self._symbolize_explicit = symbolize is not None
        self.adhoc: Optional[AdhocSyncEngine] = None
        if config.spin:
            self.adhoc = AdhocSyncEngine(self.algorithm)
            if config.adhoc_suppress:
                self.algorithm.suppressor = self.adhoc.sync_addrs.__contains__
        k = config.spin_max_blocks
        self.wide_loops: FrozenSet[int] = frozenset(
            i for i, size in (loop_sizes or {}).items() if size > k
        )
        # Helgrind+'s condvar bug-pattern detectors (lib mode: needs the
        # CV annotations to see waits and signals).
        self.cv_monitor: Optional[CondvarMonitor] = (
            CondvarMonitor() if config.intercept_lib else None
        )
        #: rows delivered to the kernel (a live run's event count)
        self.events_processed = 0
        #: rows that passed the configuration filter (a replay's count)
        self.events_accepted = 0
        self._finalized = False

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

    # -- the kernel --------------------------------------------------------

    def __call__(self, e: ev.Event) -> None:
        """Consume one Event (direct VM stepping, tests)."""
        self.consume_batch((ev.event_row(e),))

    def consume_batch(self, rows: Iterable[tuple]) -> None:
        """Consume rows ``(kind, tid, addr, value, loc, atomic,
        in_library, aux)`` in stream order (see
        :func:`repro.vm.events.event_row`).

        The configuration filter is applied inline: library-internal
        memory and marker rows in lib mode, marker rows without an
        ad-hoc engine or of loops wider than the spin window, library
        annotations outside lib mode or nested in another library call,
        and bookkeeping rows are dropped.  Every row counts towards
        :attr:`events_processed`; the rows that pass the filter also
        count towards :attr:`events_accepted`.
        """
        cfg = self.config
        skip_lib = cfg.intercept_lib
        algo = self.algorithm
        aread, awrite = algo.read, algo.write
        adhoc = self.adhoc
        match = sync_addrs = None
        if adhoc is not None:
            if cfg.adhoc_variable_level:
                match, sync_addrs = adhoc.match, adhoc.sync_addrs
            cond_read, loop_enter, loop_exit = (
                adhoc.cond_read, adhoc.loop_enter, adhoc.loop_exit
            )
        wide = self.wide_loops
        lock_sites = self.lock_sites
        n = dropped = 0
        for n, (kind, tid, addr, value, loc, atomic, in_lib, aux) in enumerate(rows, 1):
            if kind == READ:
                if in_lib and skip_lib:
                    dropped += 1
                elif sync_addrs is not None and addr in sync_addrs:
                    match(tid, addr, value)
                    aread(tid, addr, loc, atomic)
                else:
                    aread(tid, addr, loc, atomic)
            elif kind == WRITE:
                if in_lib and skip_lib:
                    dropped += 1
                    continue
                if lock_sites:
                    self._inferred_lock_write(tid, addr, value, loc, atomic)
                awrite(tid, addr, value, loc, atomic)
            elif kind <= LOOP_EXIT:
                if adhoc is None or (in_lib and skip_lib) or aux in wide:
                    dropped += 1
                elif kind == COND_READ:
                    cond_read(tid, aux, addr, value)
                elif kind == LOOP_ENTER:
                    loop_enter(tid, aux)
                else:
                    loop_exit(tid, aux)
            elif kind <= LIB_EXIT:
                # Annotations are honoured only in lib mode, and only
                # when not nested inside another library call.
                if not skip_lib or in_lib:
                    dropped += 1
                elif kind == LIB_ENTER:
                    self._lib_enter(aux)
                else:
                    self._lib_exit(aux)
            elif kind == SPAWN:
                algo.spawn(tid, aux.child)
            elif kind == JOIN:
                algo.join(tid, aux.joined)
            else:
                dropped += 1
        self.events_processed += n
        self.events_accepted += n - dropped

    # -- inferred-lock handling (future work, slide 33) ------------------

    def _inferred_lock_write(
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
