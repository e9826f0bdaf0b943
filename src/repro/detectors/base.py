"""Shared machinery for vector-clock race detection algorithms.

:class:`VectorClockAlgorithm` owns:

* one :class:`~repro.detectors.vectorclock.ThreadClock` per thread;
* vector clocks per sync object (locks, condvars, semaphores) and
  episode state per barrier;
* per-thread held-lock sets (for lockset-based filtering);
* shadow memory: one cell per accessed address holding the last write
  record (tid, clock, value, location, lockset, clock snapshot) and the
  per-thread read records since that write — the "shadow cell in which
  the race detector stores additional information" of the paper's
  dynamic-detection background slide.

Subclasses set a single policy flag, ``locks_as_hb``, which chooses
the classic split: the pure happens-before detector (DRD) treats lock
release→acquire as an hb edge; the hybrid does not — locks are handled
by locksets instead, so a happens-before-concurrent pair is excused when
both accesses held a common lock.  That makes the hybrid *more
sensitive* — it still reports races that a lucky lock interleaving
ordered — at the cost of false positives on lock-free handoff patterns.
This is exactly the sensitivity trade-off visible in the paper's
test-suite table (Helgrind+ misses 8 races where DRD misses 20, while
reporting more false alarms without spin detection).  Everything else
(clock plumbing, recording, deduplication, long-run state machine) is
shared.

The access checks themselves live in one place, the row kernel that
:func:`repro.detectors.detector.build_kernel` builds per detector;
:meth:`VectorClockAlgorithm.read` and :meth:`~VectorClockAlgorithm.write`
are one-row calls into a kernel built for the bare algorithm.

Epoch fast path
---------------

FastTrack-style optimization of the two hot operations.  Its verdicts
are checked against a naive full-vector-clock reference detector in the
tests (``tests/reference_detector.py``):

* **Writes are epochs.**  A :class:`WriteRecord` stores just
  ``(tid, clock)`` plus a reference to the writer's join-stable *frame*
  (see :meth:`~repro.detectors.vectorclock.ThreadClock.frame`); the full
  write-time vector clock — needed only when the ad-hoc engine matches a
  counterpart write — is materialized lazily.  Repeated stores by the
  owning thread (the *exclusive* state) mutate the record in place:
  O(1), no snapshot copy, no allocation.
* **Reads in the same epoch are free.**  Each thread's
  :class:`ReadRecord` on a cell remembers the clock version it was
  checked at.  A re-read by the same thread with the same clock
  version, lockset, location and atomicity would provably repeat the
  previous outcome — the last write cannot have changed, because every
  write clears the cell's read records — and is skipped entirely.  This
  is the read-same-epoch case that dominates spinning loops; keeping
  the cache per thread means threads spinning on one flag do not evict
  each other.  A re-read whose pair was already reported is skipped
  too, since ``_report`` would find the pair in ``cell.reported``; only
  while the ``long_run`` state machine still counts offenses towards
  its second one is the record left uncached.  A record is invalidated
  by any write to the cell (which clears the records) and by any clock
  change of its reader (a new version).

The built kernel
----------------

:func:`~repro.detectors.detector.build_kernel` resolves every
``ToolConfig`` branch once, when the detector is constructed: lib/nolib
filtering (``skip_lib``), the ad-hoc engine (``spin``), counterpart
matching on any read of a classified flag (``adhoc_variable_level``),
suppression (:attr:`VectorClockAlgorithm.suppressor`, set from
``adhoc_suppress``), ``long_run``, the lockset excuse (``not
locks_as_hb``) versus none, Eraser's refinement, and the inferred lock
sites.  Its row loop inlines the read check, the write check and the
engine's marker handling; a read leaves it without any call on three
common exits:

* **classified sync address** — a suppressed flag read does only its
  counterpart match (inline, too) and returns;
* **same-epoch re-read** — the cache above, tested before anything is
  recorded;
* **already-reported pair** — one ``cell.reported`` membership test;
  :meth:`VectorClockAlgorithm._report` sees only new pairs (and, under
  ``long_run``, the offenses it still counts).
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Container, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.isa.program import CodeLocation
from repro.detectors.reports import AccessInfo, RaceWarning, Report
from repro.detectors.vectorclock import VC, ThreadClock
from repro.vm.events import READ, WRITE

#: addresses whose accesses skip the race check
Suppressor = Container[int]

_EMPTY: FrozenSet = frozenset()


class WriteRecord:
    """Last write to an address, stored as an epoch.

    The write-time vector clock is available as :attr:`vc`, materialized
    lazily from the writer's join-stable ``frame``: the frame's
    other-thread components are current by construction and its own
    component is overridden with the epoch ``clock``.
    """

    __slots__ = ("tid", "clock", "value", "loc", "atomic", "lockset", "_frame", "_vc")

    def __init__(
        self,
        tid: int,
        clock: int,
        value: int,
        loc: CodeLocation,
        atomic: bool,
        lockset: FrozenSet[int],
        frame: VC,
    ) -> None:
        self.tid = tid
        self.clock = clock
        self.value = value
        self.loc = loc
        self.atomic = atomic
        self.lockset = lockset
        self._frame = frame
        self._vc: Optional[VC] = None

    @property
    def vc(self) -> VC:
        """The writer's vector clock at the write (lazily materialized)."""
        vc = self._vc
        if vc is None:
            vc = dict(self._frame)
            vc[self.tid] = self.clock
            self._vc = vc
        return vc

    def update(
        self,
        clock: int,
        value: int,
        loc: CodeLocation,
        atomic: bool,
        lockset: FrozenSet[int],
        frame: VC,
    ) -> None:
        """In-place epoch advance for repeated same-thread stores."""
        self.clock = clock
        self.value = value
        self.loc = loc
        self.atomic = atomic
        self.lockset = lockset
        self._frame = frame
        self._vc = None


class ReadRecord:
    """A read since the last write, per reader thread.

    ``version`` is the reader's clock version when the read was checked
    (the read-same-epoch cache key), or ``-1`` while the check must be
    repeated.
    """

    __slots__ = ("clock", "loc", "atomic", "lockset", "version")

    def __init__(
        self,
        clock: int,
        loc: CodeLocation,
        atomic: bool,
        lockset: FrozenSet[int],
        version: int = -1,
    ) -> None:
        self.clock = clock
        self.loc = loc
        self.atomic = atomic
        self.lockset = lockset
        self.version = version


class _ShadowCell:
    """Per-address detector state."""

    __slots__ = ("write", "reads", "offenses", "reported")

    def __init__(self) -> None:
        self.write: Optional[WriteRecord] = None
        self.reads: Dict[int, ReadRecord] = {}
        self.offenses = 0
        #: reported ``(prev_loc, cur_loc, kind)`` pairs; a set from the
        #: first report on (most cells never get one)
        self.reported: AbstractSet[Tuple[CodeLocation, CodeLocation, str]] = _EMPTY


class _BarrierEpisode:
    __slots__ = ("accum", "enters", "leaves")

    def __init__(self) -> None:
        self.accum: VC = {}
        self.enters = 0
        self.leaves = 0


class VectorClockAlgorithm:
    """Base class for the pure-hb and hybrid algorithms."""

    #: whether lock release→acquire creates a happens-before edge
    locks_as_hb: bool = True
    name = "vc-base"

    def __init__(
        self,
        report: Report,
        suppressor: Optional[Suppressor] = None,
        symbolize: Optional[Callable[[int], str]] = None,
        coarse_cv: bool = False,
        long_run: bool = False,
    ) -> None:
        self.report = report
        self._kernel = None
        self.suppressor = suppressor
        self.symbolize = symbolize or hex
        self.coarse_cv = coarse_cv
        self.long_run = long_run
        self.threads: Dict[int, ThreadClock] = {}
        self.shadow: Dict[int, _ShadowCell] = {}
        self._lock_vc: Dict[int, VC] = {}
        self._cv_vc: Dict[int, VC] = {}
        self._sem_vc: Dict[int, VC] = {}
        self._barriers: Dict[int, _BarrierEpisode] = {}
        self._held: Dict[int, Set[int]] = {}
        self._held_frozen: Dict[int, FrozenSet[int]] = {}
        self._cv_pool: VC = {}  # coarse condvar heuristic accumulator
        self.accesses_checked = 0
        self.adhoc_edges = 0

    # -- small helpers ---------------------------------------------------

    def thread(self, tid: int) -> ThreadClock:
        tc = self.threads.get(tid)
        if tc is None:
            tc = ThreadClock(tid)
            self.threads[tid] = tc
        return tc

    def _locks(self, tid: int) -> FrozenSet[int]:
        frozen = self._held_frozen.get(tid)
        if frozen is None:
            frozen = frozenset(self._held.get(tid, ()))
            self._held_frozen[tid] = frozen
        return frozen

    def _cell(self, addr: int) -> _ShadowCell:
        cell = self.shadow.get(addr)
        if cell is None:
            cell = _ShadowCell()
            self.shadow[addr] = cell
        return cell

    # -- reporting ---------------------------------------------------------

    def _report(
        self,
        addr: int,
        cell: _ShadowCell,
        prev_tid: int,
        prev_loc: CodeLocation,
        prev_is_write: bool,
        prev_atomic: bool,
        cur_tid: int,
        cur_loc: CodeLocation,
        cur_is_write: bool,
        cur_atomic: bool,
        kind: str,
    ) -> None:
        """Report one offending pair; raw fields (not ``AccessInfo``) so
        nothing is allocated before the duplicate check.  The kernel
        tests ``cell.reported`` itself, so only new pairs get here."""
        if self.long_run:
            # Long-run state machine: tolerate the first offending pair on
            # an address (it may be initialization); report from the
            # second offense on.  "Might miss a race on first iteration,
            # but not on second" (Helgrind+ slide).
            cell.offenses += 1
            if cell.offenses < 2:
                return
        key = (prev_loc, cur_loc, kind)
        reported = cell.reported
        if key in reported:
            return
        if not reported:
            reported = cell.reported = set()
        reported.add(key)
        symbol = self.symbolize(addr)
        if self.report.admit(symbol, prev_loc, cur_loc):
            self.report.warnings.append(
                RaceWarning(
                    addr=addr,
                    symbol=symbol,
                    prev=AccessInfo(prev_tid, prev_loc, prev_is_write, prev_atomic),
                    cur=AccessInfo(cur_tid, cur_loc, cur_is_write, cur_atomic),
                    kind=kind,
                )
            )

    # -- thread lifecycle ----------------------------------------------------

    def spawn(self, parent: int, child: int) -> None:
        p = self.thread(parent)
        c = self.thread(child)
        c.join(p.vc)
        p.tick()

    def join(self, waiter: int, exited: int) -> None:
        self.thread(waiter).join(self.thread(exited).vc)

    # -- sync operations ----------------------------------------------------

    def acquire_lock(self, tid: int, obj: int) -> None:
        self._held.setdefault(tid, set()).add(obj)
        self._held_frozen.pop(tid, None)
        if self.locks_as_hb:
            vc = self._lock_vc.get(obj)
            if vc is not None:
                self.thread(tid).join(vc)

    def holds(self, tid: int, obj: int) -> bool:
        """Whether ``tid`` currently holds lock ``obj`` (lockset view)."""
        held = self._held.get(tid)
        return held is not None and obj in held

    def release_lock(self, tid: int, obj: int) -> None:
        held = self._held.get(tid)
        if held is not None:
            held.discard(obj)
            self._held_frozen.pop(tid, None)
        if self.locks_as_hb:
            t = self.thread(tid)
            self._lock_vc[obj] = t.snapshot()
            t.tick()

    def signal(self, tid: int, obj: int) -> None:
        t = self.thread(tid)
        vc = self._cv_vc.setdefault(obj, {})
        for k, v in t.vc.items():
            if vc.get(k, 0) < v:
                vc[k] = v
        if self.coarse_cv:
            for k, v in t.vc.items():
                if self._cv_pool.get(k, 0) < v:
                    self._cv_pool[k] = v
        t.tick()

    def wait_return(self, tid: int, obj: int) -> None:
        t = self.thread(tid)
        vc = self._cv_vc.get(obj)
        if vc is not None:
            t.join(vc)
        if self.coarse_cv and self._cv_pool:
            # Coarse condvar heuristic: join with *every* signal seen so
            # far, on any condvar.  Tolerant of lost-signal patterns, but
            # over-approximates — it can hide a real race behind an
            # unrelated condvar's signal.  Enabled in the plain ``lib``
            # configuration; the spin configurations replace it with the
            # precise dependency edges of the ad-hoc engine (this is the
            # false negative that spin detection removes, slide 24).
            t.join(self._cv_pool)

    def barrier_enter(self, tid: int, obj: int) -> None:
        ep = self._barriers.setdefault(obj, _BarrierEpisode())
        if ep.leaves > 0 and ep.leaves >= ep.enters:
            ep.accum = {}
            ep.enters = 0
            ep.leaves = 0
        t = self.thread(tid)
        for k, v in t.vc.items():
            if ep.accum.get(k, 0) < v:
                ep.accum[k] = v
        ep.enters += 1
        t.tick()

    def barrier_leave(self, tid: int, obj: int) -> None:
        ep = self._barriers.get(obj)
        if ep is not None:
            self.thread(tid).join(ep.accum)
            ep.leaves += 1

    def sem_post(self, tid: int, obj: int) -> None:
        t = self.thread(tid)
        vc = self._sem_vc.setdefault(obj, {})
        for k, v in t.vc.items():
            if vc.get(k, 0) < v:
                vc[k] = v
        t.tick()

    def sem_wait_return(self, tid: int, obj: int) -> None:
        vc = self._sem_vc.get(obj)
        if vc is not None:
            self.thread(tid).join(vc)

    # -- the ad-hoc engine's entry points ----------------------------------

    def adhoc_acquire(self, tid: int, vc: Mapping[int, int]) -> None:
        """Join with the counterpart write's clock (paper's runtime phase)."""
        self.thread(tid).join(vc)
        self.adhoc_edges += 1

    def last_write(self, addr: int) -> Optional[WriteRecord]:
        cell = self.shadow.get(addr)
        return cell.write if cell is not None else None

    # -- memory accesses -------------------------------------------------------

    @property
    def suppressor(self) -> Optional[Suppressor]:
        """Addresses whose accesses skip the race check (the ad-hoc
        engine's classified flags), or ``None``."""
        return self._suppressor

    @suppressor.setter
    def suppressor(self, addrs: Optional[Suppressor]) -> None:
        self._suppressor = addrs
        self._kernel = None  # built kernels resolve it once

    def _row(self, row: tuple) -> None:
        kernel = self._kernel
        if kernel is None:
            from repro.detectors.detector import build_kernel

            kernel = self._kernel = build_kernel(self)
        kernel((row,))

    def read(self, tid: int, addr: int, loc: CodeLocation, atomic: bool) -> None:
        """Check one read: a one-row call into the detector kernel
        (:func:`repro.detectors.detector.build_kernel`)."""
        self._row((READ, tid, addr, 0, loc, atomic, False, None))

    def write(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool
    ) -> None:
        """Check and record one write: a one-row call into the kernel."""
        self._row((WRITE, tid, addr, value, loc, atomic, False, None))

    # -- end of stream ----------------------------------------------------

    def finalize(self, partial: bool = False) -> None:
        """The event stream ended; ``partial`` means it was truncated.

        Vector-clock state is valid at every prefix of the stream — every
        warning already reported stands — so nothing needs repair.
        Subclasses override to drop in-flight state that a truncated
        stream can leave dangling; they must never raise.
        """

    # -- accounting -------------------------------------------------------

    def memory_words(self) -> int:
        """Approximate detector-state size, for the memory-overhead figure."""
        words = 0
        for tc in self.threads.values():
            words += tc.memory_words()
        for cell in self.shadow.values():
            words += 2  # dict slot + cell header
            if cell.write is not None:
                words += 7 + len(cell.write.lockset)
            words += sum(5 + len(r.lockset) for r in cell.reads.values())
            words += 3 * len(cell.reported)
        for vc in self._lock_vc.values():
            words += 2 * len(vc)
        for vc in self._cv_vc.values():
            words += 2 * len(vc)
        for vc in self._sem_vc.values():
            words += 2 * len(vc)
        for ep in self._barriers.values():
            words += 2 * len(ep.accum) + 2
        for held in self._held.values():
            words += len(held) + 1
        return words
