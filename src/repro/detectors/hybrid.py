"""The Helgrind+ hybrid algorithm: lockset + happens-before.

Locks are handled by *locksets* (Eraser-style): a concurrent access pair
is excused when the two accesses held a common lock.  Lock operations do
**not** create happens-before edges; hb is reserved for the
synchronizations locksets cannot express — fork/join, condition
variables, barriers, semaphores, and (when the spin feature is on) the
ad-hoc edges of the runtime phase.

Compared to the pure-hb baseline this is deliberately *more sensitive*:
a racy pair that the schedule happened to order through unrelated lock
activity is still reported (fewer missed races), while a lock-free
handoff that is genuinely ordered only by lock hb produces a false alarm
(more false positives without spin detection) — both visible in the
paper's tables.

``long_run=True`` selects the long-running-application state machine
(tolerate the first offending pair per address); ``coarse_cv=True``
enables the lost-signal-tolerant condvar heuristic that the spin feature
supersedes.
"""

from __future__ import annotations

from repro.detectors.base import VectorClockAlgorithm


class HybridAlgorithm(VectorClockAlgorithm):
    """Helgrind+ stand-in: lockset filter, hb for non-lock sync.

    With ``locks_as_hb`` off the kernel excuses a concurrent pair whose
    two accesses held a common lock — the lockset filter.
    """

    locks_as_hb = False
    name = "hybrid"
