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

The runtime phase tracks write/read dependencies on *the variables* of
the spinning loop condition, not just the marked instructions: with
``adhoc_variable_level`` any read of a classified address — a CAS that
re-reads the lock word before grabbing it, or a guard re-check outside
the loop — also pairs with its counterpart write.  Lock words of the
future-work lock inference order via locksets instead and never pair.

The handlers run inline in the detector's row kernel
(:func:`repro.detectors.detector.build_kernel`); this class holds the
engine's state, and its methods are one-row calls into that kernel.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.detectors.base import VectorClockAlgorithm
from repro.vm.events import COND_READ, LOOP_ENTER, LOOP_EXIT


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
        self._kernel = None
        # statistics
        self.loops_entered = 0
        self.loop_exits = 0
        self.edges = 0
        self.cond_reads = 0

    # -- one-row entry points --------------------------------------------

    def _row(self, row: tuple) -> None:
        kernel = self._kernel
        if kernel is None:
            from repro.detectors.detector import build_kernel

            kernel = self._kernel = build_kernel(self.algorithm, self)
        kernel((row,))

    def loop_enter(self, tid: int, loop_id: int) -> None:
        """The header re-executes every iteration; the loop is pushed on
        the thread's active stack only on first entry."""
        self._row((LOOP_ENTER, tid, 0, 0, None, False, False, loop_id))

    def loop_exit(self, tid: int, loop_id: int) -> None:
        self._row((LOOP_EXIT, tid, 0, 0, None, False, False, loop_id))

    def cond_read(self, tid: int, loop_id: int, addr: int, value: int) -> None:
        """A marked condition read: classify ``addr`` as a sync flag and
        pair the read with its counterpart write — unless the thread is
        outside ``loop_id`` (a condition helper called from elsewhere is
        an ordinary access)."""
        self._row((COND_READ, tid, addr, value, None, False, False, loop_id))

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
