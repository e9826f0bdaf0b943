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

Subclasses define a single policy hook, :meth:`_excused`, deciding
whether a happens-before-concurrent access pair should *not* be reported
(e.g. because the two accesses share a lock — the hybrid's lockset
filter).  Everything else (clock plumbing, recording, deduplication,
long-run state machine) is shared.

The ``locks_as_hb`` flag chooses the classic split: the pure
happens-before detector (DRD) treats lock release→acquire as an hb edge;
the hybrid does not (locks are handled by locksets instead), which makes
it *more sensitive* — it still reports races that a lucky lock
interleaving ordered — at the cost of false positives on lock-free
handoff patterns.  This is exactly the sensitivity trade-off visible in
the paper's test-suite table (Helgrind+ misses 8 races where DRD misses
20, while reporting more false alarms without spin detection).

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
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.isa.program import CodeLocation
from repro.detectors.reports import AccessInfo, RaceWarning, Report
from repro.detectors.vectorclock import VC, ThreadClock

Suppressor = Callable[[int], bool]

_EMPTY: FrozenSet[int] = frozenset()


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
        self.reported: Set[Tuple[str, str, str]] = set()


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

    # -- policy hook -------------------------------------------------------

    def _excused(self, prev_lockset: FrozenSet[int], cur_lockset: FrozenSet[int]) -> bool:
        """Whether a concurrent pair should be excused (not reported)."""
        raise NotImplementedError

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
        the per-cell duplicate check runs before any allocation — racy
        loops resubmit the same pair thousands of times."""
        if self.long_run:
            # Long-run state machine: tolerate the first offending pair on
            # an address (it may be initialization); report from the
            # second offense on.  "Might miss a race on first iteration,
            # but not on second" (Helgrind+ slide).
            cell.offenses += 1
            if cell.offenses < 2:
                return
        key = (prev_loc, cur_loc, kind)
        if key in cell.reported:
            return
        cell.reported.add(key)
        self.report.add(
            RaceWarning(
                addr=addr,
                symbol=self.symbolize(addr),
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

    def read(self, tid: int, addr: int, loc: CodeLocation, atomic: bool) -> None:
        if self.suppressor is not None and self.suppressor(addr):
            return
        self.accesses_checked += 1
        # The hot path: the three lookups inlined, helpers on a miss.
        t = self.threads.get(tid) or self.thread(tid)
        cell = self.shadow.get(addr) or self._cell(addr)
        cur_ls = self._held_frozen.get(tid)
        if cur_ls is None:
            cur_ls = self._locks(tid)
        version = t.version
        r = cell.reads.get(tid)
        if (
            r is not None
            and r.version == version
            and r.lockset is cur_ls
            and r.atomic == atomic
            and (r.loc is loc or r.loc == loc)
        ):
            # Read-same-epoch: same reader clock, lockset and access
            # shape as this thread's previous check since the last
            # write — the outcome and the record would repeat verbatim.
            # A racy re-read lands here too once its pair is reported.
            return
        w = cell.write
        if (
            w is not None
            and w.tid != tid
            and not (atomic and w.atomic)
            and not t.saw(w.tid, w.clock)
            and not self._excused(w.lockset, cur_ls)
        ):
            self._report(
                addr, cell, w.tid, w.loc, True, w.atomic,
                tid, loc, False, atomic, "write-read",
            )
            # The pair is now in cell.reported — a same-epoch re-read
            # would only re-submit it — unless the long_run state
            # machine tolerated it and the next offense still counts.
            if self.long_run and cell.offenses < 2:
                version = -1
        if r is None:
            cell.reads[tid] = ReadRecord(t.clock, loc, atomic, cur_ls, version)
        else:
            r.clock = t.clock
            r.loc = loc
            r.atomic = atomic
            r.lockset = cur_ls
            r.version = version

    def write(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool
    ) -> None:
        t = self.thread(tid)
        cell = self._cell(addr)
        cur_ls = self._locks(tid)
        suppressed = self.suppressor is not None and self.suppressor(addr)
        if not suppressed:
            self.accesses_checked += 1
            w = cell.write
            if (
                w is not None
                and w.tid != tid
                and not (atomic and w.atomic)
                and not t.saw(w.tid, w.clock)
                and not self._excused(w.lockset, cur_ls)
            ):
                self._report(
                    addr, cell, w.tid, w.loc, True, w.atomic,
                    tid, loc, True, atomic, "write-write",
                )
            for rtid, r in cell.reads.items():
                if (
                    rtid != tid
                    and not (atomic and r.atomic)
                    and not t.saw(rtid, r.clock)
                    and not self._excused(r.lockset, cur_ls)
                ):
                    self._report(
                        addr, cell, rtid, r.loc, False, r.atomic,
                        tid, loc, True, atomic, "read-write",
                    )
        w = cell.write
        if w is not None and w.tid == tid:
            # Exclusive epoch: the owning thread stores again — advance
            # the record in place, no allocation, no clock copy.
            w.update(t.clock, value, loc, atomic, cur_ls, t.frame())
        else:
            cell.write = WriteRecord(tid, t.clock, value, loc, atomic, cur_ls, t.frame())
        if cell.reads:
            cell.reads.clear()
        # Advance the writer's epoch after every write so that an ad-hoc
        # happens-before edge taken from this write's snapshot does NOT
        # cover the writer's *subsequent* accesses.  (A spin loop exit
        # orders only what precedes the counterpart write — a store made
        # after the flag was raised must still be reported as racy.)
        t.tick()

    def observe_write(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool
    ) -> None:
        """Record a write's state effects without running race checks.

        The sharded replay's foreign-write hook: a shard that does not
        own ``addr`` still needs the write's clock tick (every write
        advances the writer's epoch), its shadow record (sync-variable
        writes source ad-hoc happens-before edges via
        :meth:`last_write`), and the read-record invalidation — but the race
        *checks* (and ``accesses_checked``) belong to the owning shard
        alone.  The body mirrors :meth:`write`'s record-maintenance tail
        exactly so per-cell state stays bit-compatible with an unsharded
        run.
        """
        t = self.thread(tid)
        cell = self._cell(addr)
        cur_ls = self._locks(tid)
        w = cell.write
        if w is not None and w.tid == tid:
            w.update(t.clock, value, loc, atomic, cur_ls, t.frame())
        else:
            cell.write = WriteRecord(tid, t.clock, value, loc, atomic, cur_ls, t.frame())
        if cell.reads:
            cell.reads.clear()
        t.tick()

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
