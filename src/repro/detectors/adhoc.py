"""The runtime phase of ad-hoc synchronization detection (paper §runtime).

Consumes the marker rows (``Marked*`` events) produced by the instrumented VM and does
two things:

1. **Synchronization-race suppression.**  Every address observed by a
   marked condition read is classified as a synchronization flag; data
   race checks on such addresses are suppressed (the paper's
   "synchronization races (e.g. FLAG)").

2. **Counterpart-write matching and happens-before creation.**  When a
   marked condition read observes a value, the engine consults the
   algorithm's shadow memory for the last write to that address.  If the
   value matches and the writer is another thread, the read *data-depends*
   on that write, and the engine joins the reader's vector clock with the
   writer's clock snapshot taken at the write.  Because the spin loop's
   exit decision is computed from these reads, everything after the loop
   is thereby ordered after everything before the counterpart write —
   the paper's induced happens-before edge (slide 17/20).  This also
   kills the *apparent races* on data protected by the flag.

Edges are applied at read time rather than at loop exit: the detected
loop body "does nothing", so ordering the remaining spin iterations as
well is harmless, and reads whose value keeps the loop spinning create
only sound (observed-write ⟶ reader) edges.

A per-thread stack of active marked loops gates condition reads: a load
site inside a shared condition helper is only treated as a spin read
while the calling thread is actually inside the marked loop.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.detectors.base import VectorClockAlgorithm


class AdhocSyncEngine:
    """Runtime companion of the instrumentation phase."""

    def __init__(self, algorithm: VectorClockAlgorithm) -> None:
        self.algorithm = algorithm
        #: addresses classified as synchronization flags
        self.sync_addrs: Set[int] = set()
        #: addresses classified as *inferred locks* (future-work lock
        #: inference): they are still suppressed as sync variables, but
        #: their ordering is handled by lockset analysis, not hb edges
        self.inferred_locks: Set[int] = set()
        self._active: Dict[int, List[int]] = {}  # tid -> stack of loop ids
        # statistics
        self.loops_entered = 0
        self.loop_exits = 0
        self.edges = 0
        self.cond_reads = 0

    # -- event handlers -----------------------------------------------------

    def loop_enter(self, tid: int, loop_id: int) -> None:
        stack = self._active.setdefault(tid, [])
        # The header re-executes every iteration; push only on first entry.
        if not stack or stack[-1] != loop_id:
            stack.append(loop_id)
            self.loops_entered += 1

    def loop_exit(self, tid: int, loop_id: int) -> None:
        stack = self._active.get(tid)
        if stack and stack[-1] == loop_id:
            stack.pop()
            self.loop_exits += 1

    def cond_read(self, tid: int, loop_id: int, addr: int, value: int) -> None:
        stack = self._active.get(tid)
        if not stack or loop_id not in stack:
            # A marked load executed outside its loop (e.g. the condition
            # helper called from elsewhere) is an ordinary access.
            return
        self.cond_reads += 1
        self.sync_addrs.add(addr)
        self.match(tid, addr, value)

    def match(self, tid: int, addr: int, value: int) -> None:
        """Pair a read of sync variable ``addr`` with its counterpart write.

        The paper's runtime phase tracks write/read dependencies on *the
        variables* of the spinning loop condition, not just the marked
        instructions — so the detector kernel calls this for any read of
        a classified address: a CAS that re-reads the lock word before
        grabbing it, or a guard re-check outside the loop, also pairs
        with its counterpart write.
        """
        if addr in self.inferred_locks:
            return  # lock words order via locksets, not hb edges
        rec = self.algorithm.last_write(addr)
        if rec is not None and rec.value == value and rec.tid != tid:
            self.algorithm.adhoc_acquire(tid, rec.vc)
            self.edges += 1

    # -- end of stream ----------------------------------------------------

    def finalize(self, partial: bool = False) -> None:
        """Drop in-flight loop state.

        A stream cut mid-marked-loop leaves entries on the per-thread
        active stacks; they only gate future cond reads, so clearing them
        is all a truncated run needs.  Classified ``sync_addrs`` stay —
        the classification itself was sound at every prefix.
        """
        self._active.clear()

    # -- accounting -------------------------------------------------------

    def memory_words(self) -> int:
        return (
            len(self.sync_addrs)
            + sum(len(s) + 1 for s in self._active.values())
            + 4  # counters
        )
