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

import gc
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.isa.program import CodeLocation, SyncKind
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
from repro.detectors.base import ReadRecord, VectorClockAlgorithm, WriteRecord
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


#: row-kernel signature: rows in stream order -> (delivered, accepted)
Kernel = Callable[[Iterable[tuple]], Tuple[int, int]]

_NO_ADDRS: FrozenSet[int] = frozenset()


def _lib_enter(
    algo: VectorClockAlgorithm, cv_monitor: Optional[CondvarMonitor], e: ev.LibEnter
) -> None:
    """Annotation semantics on entry to an intercepted library call."""
    kind = e.kind
    if kind is SyncKind.LOCK_RELEASE:
        algo.release_lock(e.tid, e.obj_addr)
    elif kind in (SyncKind.CV_SIGNAL, SyncKind.CV_BROADCAST):
        algo.signal(e.tid, e.obj_addr)
        if cv_monitor is not None:
            cv_monitor.signal(e.obj_addr)
    elif kind is SyncKind.CV_WAIT:
        if cv_monitor is not None:
            cv_monitor.wait_enter(e.tid, e.obj_addr, e.loc)
        # pthread semantics: the wait releases the mutex on entry.
        if e.obj2_addr is not None:
            algo.release_lock(e.tid, e.obj2_addr)
    elif kind is SyncKind.BARRIER_WAIT:
        algo.barrier_enter(e.tid, e.obj_addr)
    elif kind is SyncKind.SEM_POST:
        algo.sem_post(e.tid, e.obj_addr)
    # LOCK_ACQUIRE, SEM_WAIT, SYNC_INIT act on exit.


def _lib_exit(
    algo: VectorClockAlgorithm, cv_monitor: Optional[CondvarMonitor], e: ev.LibExit
) -> None:
    """Annotation semantics on return from an intercepted library call."""
    kind = e.kind
    if kind is SyncKind.LOCK_ACQUIRE:
        algo.acquire_lock(e.tid, e.obj_addr)
    elif kind is SyncKind.CV_WAIT:
        if cv_monitor is not None:
            cv_monitor.wait_exit(e.tid, e.obj_addr, e.loc)
        algo.wait_return(e.tid, e.obj_addr)
        if e.obj2_addr is not None:
            algo.acquire_lock(e.tid, e.obj2_addr)
    elif kind is SyncKind.BARRIER_WAIT:
        algo.barrier_leave(e.tid, e.obj_addr)
    elif kind is SyncKind.SEM_WAIT:
        algo.sem_wait_return(e.tid, e.obj_addr)


def build_kernel(
    algo: VectorClockAlgorithm,
    adhoc: Optional[AdhocSyncEngine] = None,
    *,
    skip_lib: bool = False,
    match_sync_reads: bool = True,
    wide: FrozenSet[int] = _NO_ADDRS,
    lock_sites: FrozenSet[CodeLocation] = frozenset(),
    cv_monitor: Optional[CondvarMonitor] = None,
) -> Kernel:
    """Build the row loop for one detector, its branches resolved once.

    The one implementation of the race check and of the ad-hoc engine's
    runtime phase; :meth:`RaceDetector.consume_batch`,
    ``VectorClockAlgorithm.read``/``write`` and the engine's marker
    methods all feed rows ``(kind, tid, addr, value, loc, atomic,
    in_library, aux)`` (see :func:`repro.vm.events.event_row`) to a
    kernel built here.  Resolved at build time:

    * ``skip_lib`` (lib mode): library-internal memory and marker rows
      are dropped and library annotations act on ``algo`` and
      ``cv_monitor``; without it annotations are dropped (nolib: raw
      traffic flows);
    * ``adhoc`` (the spin feature): marker rows run the engine, and
      with ``match_sync_reads`` (``adhoc_variable_level``) every read of
      a classified flag is matched with its counterpart write;
    * ``algo.suppressor`` (``adhoc_suppress``): accesses to these
      addresses skip the race check; with an engine it must be the
      engine's ``sync_addrs``, so one lookup answers both questions;
    * ``algo.long_run``, and ``algo.locks_as_hb``: a concurrent pair
      holding a common lock is excused exactly when locks are no
      happens-before edges (the hybrid), never under pure hb (DRD);
    * Eraser's lockset refinement replaces the vector-clock check;
    * ``lock_sites`` (``infer_locks``): a successful CAS at an inferred
      acquire site is a lock acquire, the holder's store of 0 to the
      lock word a release (future work, slide 33).

    A read returns without any call on its three common exits: a
    classified flag under suppression (only its counterpart match
    runs), a same-epoch re-read (see :mod:`repro.detectors.base`), and a
    racy pair already in ``cell.reported``.  Counters are accumulated
    in locals and added to ``algo``/``adhoc`` once per batch.  The
    kernel holds no reference to a detector, so a finished detector is
    freed at once rather than by the cycle collector.
    """
    threads, shadow, held_frozen = algo.threads, algo.shadow, algo._held_frozen
    new_thread, new_cell, locks = algo.thread, algo._cell, algo._locks
    spawn, join = algo.spawn, algo.join
    acquire_lock, release_lock, holds = algo.acquire_lock, algo.release_lock, algo.holds
    long_run = algo.long_run
    lockset_excuse = not algo.locks_as_hb
    eraser = algo.lockset_access if isinstance(algo, EraserAlgorithm) else None
    suppress = algo.suppressor is not None
    suppressed = algo.suppressor if suppress else _NO_ADDRS
    matching = adhoc is not None and match_sync_reads
    if adhoc is not None:
        sync_addrs, inferred_locks, active = (
            adhoc.sync_addrs, adhoc.inferred_locks, adhoc._active
        )
    #: reads of these addresses are matched, suppressed, or both
    flags = sync_addrs if matching else suppressed

    def consume(rows: Iterable[tuple]) -> Tuple[int, int]:
        n = dropped = checked = edges = cond_reads = entered = exited = 0
        for n, (kind, tid, addr, value, loc, atomic, in_lib, aux) in enumerate(rows, 1):
            if kind == READ:
                if in_lib and skip_lib:
                    dropped += 1
                    continue
                if addr in flags:
                    if matching and addr not in inferred_locks:
                        # Counterpart write: the flag's last store, by
                        # another thread, of the value this read saw.
                        cell = shadow.get(addr)
                        w = cell.write if cell is not None else None
                        if w is not None and w.value == value and w.tid != tid:
                            (threads.get(tid) or new_thread(tid)).join(w.vc)
                            edges += 1
                    if suppress:
                        continue
                checked += 1
                if eraser is not None:
                    eraser(tid, addr, loc, False, atomic)
                    continue
                t = threads.get(tid) or new_thread(tid)
                cell = shadow.get(addr) or new_cell(addr)
                ls = held_frozen.get(tid)
                if ls is None:
                    ls = locks(tid)
                version = t.version
                r = cell.reads.get(tid)
                if (
                    r is not None
                    and r.version == version
                    and r.lockset is ls
                    and r.atomic == atomic
                    and (r.loc is loc or r.loc == loc)
                ):
                    continue  # same epoch: the check would repeat verbatim
                w = cell.write
                if (
                    w is not None
                    and w.tid != tid
                    and not (atomic and w.atomic)
                    and t.vc.get(w.tid, 0) < w.clock
                    and not (lockset_excuse and w.lockset and ls and not w.lockset.isdisjoint(ls))
                    and (w.loc, loc, "write-read") not in cell.reported
                ):
                    algo._report(
                        addr, cell, w.tid, w.loc, True, w.atomic,
                        tid, loc, False, atomic, "write-read",
                    )
                    # The pair is now in cell.reported — a same-epoch
                    # re-read would only re-submit it — unless the
                    # long_run state machine tolerated it and the next
                    # offense still counts.
                    if long_run and cell.offenses < 2:
                        version = -1
                if r is None:
                    cell.reads[tid] = ReadRecord(t.vc[tid], loc, atomic, ls, version)
                else:
                    r.clock = t.vc[tid]
                    r.loc = loc
                    r.atomic = atomic
                    r.lockset = ls
                    r.version = version
            elif kind == WRITE:
                if in_lib and skip_lib:
                    dropped += 1
                    continue
                if lock_sites:
                    if atomic and loc in lock_sites:
                        acquire_lock(tid, addr)
                        if adhoc is not None:
                            inferred_locks.add(addr)
                            sync_addrs.add(addr)
                    elif value == 0 and holds(tid, addr):
                        release_lock(tid, addr)
                t = threads.get(tid) or new_thread(tid)
                cell = shadow.get(addr) or new_cell(addr)
                ls = held_frozen.get(tid)
                if ls is None:
                    ls = locks(tid)
                w = cell.write
                if addr in suppressed:
                    pass
                elif eraser is not None:
                    checked += 1
                    eraser(tid, addr, loc, True, atomic)
                else:
                    checked += 1
                    vc = t.vc
                    if (
                        w is not None
                        and w.tid != tid
                        and not (atomic and w.atomic)
                        and vc.get(w.tid, 0) < w.clock
                        and not (lockset_excuse and w.lockset and ls and not w.lockset.isdisjoint(ls))
                        and (w.loc, loc, "write-write") not in cell.reported
                    ):
                        algo._report(
                            addr, cell, w.tid, w.loc, True, w.atomic,
                            tid, loc, True, atomic, "write-write",
                        )
                    for rtid, r in cell.reads.items():
                        if (
                            rtid != tid
                            and not (atomic and r.atomic)
                            and vc.get(rtid, 0) < r.clock
                            and not (lockset_excuse and r.lockset and ls and not r.lockset.isdisjoint(ls))
                            and (r.loc, loc, "read-write") not in cell.reported
                        ):
                            algo._report(
                                addr, cell, rtid, r.loc, False, r.atomic,
                                tid, loc, True, atomic, "read-write",
                            )
                # The write history is kept for every algorithm and on
                # suppressed flags too: counterpart matching reads it.
                if w is not None and w.tid == tid:
                    # Exclusive epoch: the owning thread stores again —
                    # advance the record in place, no allocation.
                    w.update(t.vc[tid], value, loc, atomic, ls, t.frame())
                else:
                    cell.write = WriteRecord(tid, t.vc[tid], value, loc, atomic, ls, t.frame())
                if cell.reads:
                    cell.reads.clear()
                # Advance the writer's epoch after every write so that an
                # ad-hoc happens-before edge taken from this write's
                # snapshot does NOT cover the writer's *subsequent*
                # accesses.  (A spin loop exit orders only what precedes
                # the counterpart write — a store made after the flag
                # was raised must still be reported as racy.)
                t.tick()
            elif kind <= LOOP_EXIT:
                if adhoc is None or (in_lib and skip_lib) or aux in wide:
                    dropped += 1
                elif kind == COND_READ:
                    stack = active.get(tid)
                    # A marked load executed outside its loop (e.g. the
                    # condition helper called from elsewhere) is an
                    # ordinary access.
                    if stack and aux in stack:
                        cond_reads += 1
                        sync_addrs.add(addr)
                        if addr not in inferred_locks:
                            cell = shadow.get(addr)
                            w = cell.write if cell is not None else None
                            if w is not None and w.value == value and w.tid != tid:
                                (threads.get(tid) or new_thread(tid)).join(w.vc)
                                edges += 1
                elif kind == LOOP_ENTER:
                    stack = active.get(tid)
                    if stack is None:
                        stack = active[tid] = []
                    # The header re-executes every iteration; push only
                    # on first entry.
                    if not stack or stack[-1] != aux:
                        stack.append(aux)
                        entered += 1
                else:
                    stack = active.get(tid)
                    if stack and stack[-1] == aux:
                        stack.pop()
                        exited += 1
            elif kind <= LIB_EXIT:
                # Annotations are honoured only in lib mode, and only
                # when not nested inside another library call.
                if not skip_lib or in_lib:
                    dropped += 1
                elif kind == LIB_ENTER:
                    _lib_enter(algo, cv_monitor, aux)
                else:
                    _lib_exit(algo, cv_monitor, aux)
            elif kind == SPAWN:
                spawn(tid, aux.child)
            elif kind == JOIN:
                join(tid, aux.joined)
            else:
                dropped += 1
        algo.accesses_checked += checked
        if adhoc is not None:
            algo.adhoc_edges += edges
            adhoc.edges += edges
            adhoc.cond_reads += cond_reads
            adhoc.loops_entered += entered
            adhoc.loop_exits += exited
        return n, n - dropped

    return consume


class RaceDetector:
    """Event listener implementing one tool configuration.

    Every event source feeds the same kernel, :meth:`consume_batch`:
    the VM's flush during a live run, a recording's columns during
    replay, decoded chunks while streaming.  The row loop behind it is
    built once, at construction, for this configuration
    (:func:`build_kernel`).
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
                self.algorithm.suppressor = self.adhoc.sync_addrs
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
        self._kernel = build_kernel(
            self.algorithm,
            self.adhoc,
            skip_lib=config.intercept_lib,
            match_sync_reads=config.adhoc_variable_level,
            wide=self.wide_loops,
            lock_sites=self.lock_sites,
            cv_monitor=self.cv_monitor,
        )

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
        """Consume one Event as a one-row batch.

        No event source calls this: the VM, replays and streams all
        feed :meth:`consume_batch`.  It stays only because the
        benchmark's layer tracer (``bench/layers.py``) counts calls to it
        as ``detectors.per_event_calls``, which must read 0.
        """
        self.consume_batch((ev.event_row(e),))

    def consume_batch(self, rows: Iterable[tuple]) -> None:
        """Consume rows ``(kind, tid, addr, value, loc, atomic,
        in_library, aux)`` in stream order (see
        :func:`repro.vm.events.event_row`) through the kernel built for
        this configuration (:func:`build_kernel`).

        The configuration filter is applied inline: library-internal
        memory and marker rows in lib mode, marker rows without an
        ad-hoc engine or of loops wider than the spin window, library
        annotations outside lib mode or nested in another library call,
        and bookkeeping rows are dropped.  Every row counts towards
        :attr:`events_processed`; the rows that pass the filter also
        count towards :attr:`events_accepted`.

        The cycle collector is paused for the batch.  The kernel keeps
        hundreds of thousands of shadow cells and records alive per
        replay and builds no reference cycles, so the generational
        collections its allocations would trigger only re-traverse live
        state — about a fifth of a PARSEC replay's time.  Cyclic garbage
        made meanwhile by other threads waits for the next collection.
        """
        paused = gc.isenabled()
        gc.disable()
        try:
            n, accepted = self._kernel(rows)
        finally:
            if paused:
                gc.enable()
        self.events_processed += n
        self.events_accepted += accepted

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
