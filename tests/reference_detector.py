"""A deliberately naive reference race detector for differential tests.

It shares no code with :mod:`repro.detectors` or :mod:`repro.analysis`:
it reads a recorded trace one event at a time and applies the three
rules of PAPER.md §1 in their textbook form, so that a disagreement with
the production detector points at a real bug rather than at a second
copy of the same algorithm.

* **Happens-before** with full vector clocks (Lamport/Mattern, as
  formalised by Kulkarni, Mathur & Pavlogiannis).  Every access stores a
  copy of its thread's whole clock; an earlier access ``a`` is ordered
  before the current access of thread ``t`` iff ``VC(a) <= C_t``
  pointwise.  No epochs, no caches, no batching.  The shadow state per
  address is the last write and, per thread, the last read since that
  write (the FastTrack shadow model, with vectors in place of epochs).
  A thread's own component advances after every release-like operation
  (fork, lock release, signal, barrier arrival, semaphore post) and after
  every write, so an edge taken from a write covers only what preceded
  it.  ``drd`` treats lock release/acquire as an edge; the hybrid instead
  excuses a concurrent pair whose two accesses held a common lock.
* **Eraser lockset**: each variable's candidate set starts as the locks
  held at its first access and is intersected at every access; once it is
  empty, a write is involved and two threads have touched it, an access
  races with the previous access by another thread.
* **The paper's runtime rule**: a condition read inside a marked loop
  classifies its address as a synchronization variable, whose race
  checks are skipped from then on, and remembers the write that produced
  the value it read.  When the loop exits, the thread joins the clock of
  that counterpart write if another thread made it.  Loops wider than the
  configuration's spin(k) window (``trace.loop_sizes``) are ignored.

A racy *context* is ``(symbol, {loc, loc})`` at variable granularity, or
at element granularity (``symbol+offset``) for DRD; at most 1000 are kept.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Set, Tuple

import repro.vm.events as ev

CONTEXT_CAP = 1000

Clock = Dict[int, int]
Context = Tuple[str, FrozenSet[str]]


def leq(a: Mapping[int, int], b: Mapping[int, int]) -> bool:
    """``a <= b`` pointwise: the access stamped ``a`` happens before ``b``."""
    return all(c <= b.get(t, 0) for t, c in a.items())


def join_into(dst: Clock, src: Mapping[int, int]) -> None:
    for t, c in src.items():
        if dst.get(t, 0) < c:
            dst[t] = c


class Access(NamedTuple):
    tid: int
    clock: Clock
    loc: object
    is_write: bool
    atomic: bool
    locks: FrozenSet[int]
    value: int


class _EraserVar:
    def __init__(self) -> None:
        self.candidates: Optional[FrozenSet[int]] = None  # None: all locks
        self.threads: Set[int] = set()
        self.written = False
        self.last: Optional[Access] = None


class ReferenceDetector:
    """One tool configuration over one recorded event stream.

    ``config`` is read for ``intercept_lib``, ``algorithm`` ("hb",
    "hybrid" or "lockset"), ``spin``, ``spin_max_blocks``,
    ``adhoc_suppress``, ``coarse_cv`` and ``context_granularity``.
    """

    def __init__(self, config, loop_sizes: Mapping[int, int], symbols) -> None:
        self.lib = config.intercept_lib
        self.algorithm = config.algorithm
        self.coarse_cv = config.coarse_cv
        self.by_address = config.context_granularity == "address"
        self.suppress = config.spin and config.adhoc_suppress
        self.spin_loops = (
            {lid for lid, size in loop_sizes.items() if size <= config.spin_max_blocks}
            if config.spin
            else set()
        )
        self.segments = list(symbols)
        self.clocks: Dict[int, Clock] = {}
        self.held: Dict[int, Set[int]] = {}
        self.lock_clock: Dict[int, Clock] = {}
        self.cv_clock: Dict[int, Clock] = {}
        self.cv_all: Clock = {}
        self.sem_clock: Dict[int, Clock] = {}
        #: barrier -> [arrivals' joined clock, arrivals, departures]
        self.barriers: Dict[int, list] = {}
        self.last_write: Dict[int, Access] = {}
        self.reads: Dict[int, Dict[int, Access]] = {}
        self.eraser: Dict[int, _EraserVar] = {}
        self.sync_vars: Set[int] = set()
        #: tid -> marked loop id -> cond address -> counterpart write
        self.loops: Dict[int, Dict[int, Dict[int, Optional[Access]]]] = {}
        self.contexts: Set[Context] = set()

    # -- plumbing ------------------------------------------------------------

    def clock(self, tid: int) -> Clock:
        return self.clocks.setdefault(tid, {tid: 1})

    def tick(self, tid: int) -> None:
        self.clock(tid)[tid] += 1

    def symbol(self, addr: int) -> str:
        for name, base, size in self.segments:
            if base <= addr < base + size:
                off = addr - base
                return name if off == 0 and size == 1 else f"{name}+{off}"
        return hex(addr)

    def report(self, addr: int, prev: Access, cur_loc) -> None:
        if len(self.contexts) >= CONTEXT_CAP:
            return
        name = self.symbol(addr)
        if not self.by_address:
            name = name.split("+", 1)[0]
        self.contexts.add((name, frozenset((str(prev.loc), str(cur_loc)))))

    # -- the event stream ------------------------------------------------------

    def run(self, events) -> Set[Context]:
        for e in events:
            self.on_event(e)
        return self.contexts

    def on_event(self, e: ev.Event) -> None:
        kind = type(e)
        if kind is ev.MemRead or kind is ev.MemWrite:
            if not (self.lib and e.in_library):
                self.access(e, kind is ev.MemWrite)
        elif kind in (ev.MarkedLoopEnter, ev.MarkedCondRead, ev.MarkedLoopExit):
            if e.loop_id in self.spin_loops and not (self.lib and e.in_library):
                self.marked(e)
        elif kind is ev.LibEnter or kind is ev.LibExit:
            if self.lib and not e.in_library:
                self.library(e, kind is ev.LibEnter)
        elif kind is ev.ThreadSpawnEvent:
            join_into(self.clock(e.child), self.clock(e.tid))
            self.tick(e.tid)
        elif kind is ev.ThreadJoinEvent:
            join_into(self.clock(e.tid), self.clock(e.joined))

    # -- rule 1 and 2: memory accesses ------------------------------------------

    def access(self, e, is_write: bool) -> None:
        tid, addr = e.tid, e.addr
        me = Access(
            tid,
            dict(self.clock(tid)),
            e.loc,
            is_write,
            e.atomic,
            frozenset(self.held.get(tid, ())),
            e.value,
        )
        if self.algorithm == "lockset":
            self.eraser_access(addr, me)
        elif not (self.suppress and addr in self.sync_vars):
            self.hb_access(addr, me)
        if is_write:
            self.last_write[addr] = me
            self.reads.pop(addr, None)
            self.tick(tid)

    def races(self, prev: Access, cur: Access) -> bool:
        if prev.tid == cur.tid or (prev.atomic and cur.atomic):
            return False
        if leq(prev.clock, cur.clock):
            return False
        # The hybrid's lockset filter: a common lock protects the pair.
        return not (self.algorithm == "hybrid" and prev.locks & cur.locks)

    def hb_access(self, addr: int, me: Access) -> None:
        w = self.last_write.get(addr)
        if w is not None and self.races(w, me):
            self.report(addr, w, me.loc)
        if me.is_write:
            for r in self.reads.get(addr, {}).values():
                if self.races(r, me):
                    self.report(addr, r, me.loc)
        else:
            self.reads.setdefault(addr, {})[me.tid] = me

    def eraser_access(self, addr: int, me: Access) -> None:
        var = self.eraser.setdefault(addr, _EraserVar())
        var.candidates = (
            me.locks if var.candidates is None else var.candidates & me.locks
        )
        var.threads.add(me.tid)
        var.written = var.written or me.is_write
        last = var.last
        if (
            not var.candidates
            and len(var.threads) >= 2
            and var.written
            and last is not None
            and last.tid != me.tid
            and (me.is_write or last.is_write)
            and not (me.atomic and last.atomic)
        ):
            self.report(addr, last, me.loc)
        var.last = me

    # -- rule 3: the spinning read loop's counterpart write ---------------------

    def marked(self, e) -> None:
        active = self.loops.setdefault(e.tid, {})
        if type(e) is ev.MarkedLoopEnter:
            active.setdefault(e.loop_id, {})
        elif type(e) is ev.MarkedCondRead:
            conds = active.get(e.loop_id)
            if conds is None:
                return  # the condition load ran outside its loop
            self.sync_vars.add(e.addr)
            w = self.last_write.get(e.addr)
            conds[e.addr] = w if w is not None and w.value == e.value else None
        else:
            for w in active.pop(e.loop_id, {}).values():
                if w is not None and w.tid != e.tid:
                    join_into(self.clock(e.tid), w.clock)

    # -- library synchronization (lib mode only) -----------------------------

    def release(self, tid: int, lock: int) -> None:
        self.held.get(tid, set()).discard(lock)
        if self.algorithm == "hb":
            self.lock_clock[lock] = dict(self.clock(tid))
        self.tick(tid)

    def acquire(self, tid: int, lock: int) -> None:
        self.held.setdefault(tid, set()).add(lock)
        if self.algorithm == "hb" and lock in self.lock_clock:
            join_into(self.clock(tid), self.lock_clock[lock])

    def library(self, e, entering: bool) -> None:
        tid, obj, kind = e.tid, e.obj_addr, e.kind.value
        c = self.clock(tid)
        if entering:
            if kind == "lock_release":
                self.release(tid, obj)
            elif kind in ("cv_signal", "cv_broadcast"):
                join_into(self.cv_clock.setdefault(obj, {}), c)
                if self.coarse_cv:
                    join_into(self.cv_all, c)
                self.tick(tid)
            elif kind == "cv_wait" and e.obj2_addr is not None:
                self.release(tid, e.obj2_addr)
            elif kind == "barrier_wait":
                episode = self.barriers.get(obj)
                if episode is None or 0 < episode[1] <= episode[2]:
                    episode = self.barriers[obj] = [{}, 0, 0]
                join_into(episode[0], c)
                episode[1] += 1
                self.tick(tid)
            elif kind == "sem_post":
                join_into(self.sem_clock.setdefault(obj, {}), c)
                self.tick(tid)
        elif kind == "lock_acquire":
            self.acquire(tid, obj)
        elif kind == "cv_wait":
            join_into(c, self.cv_clock.get(obj, {}))
            if self.coarse_cv:
                join_into(c, self.cv_all)
            if e.obj2_addr is not None:
                self.acquire(tid, e.obj2_addr)
        elif kind == "barrier_wait" and obj in self.barriers:
            join_into(c, self.barriers[obj][0])
            self.barriers[obj][2] += 1
        elif kind == "sem_wait":
            join_into(c, self.sem_clock.get(obj, {}))


def reference_contexts(trace, config) -> Set[Context]:
    """The racy-context set the reference detector finds on ``trace``."""
    detector = ReferenceDetector(config, trace.loop_sizes, trace.symbols)
    return detector.run(trace.events)
