"""Thread schedulers.

The scheduler decides, at every machine step, which runnable thread
executes the next instruction.  All schedulers are deterministic given
their seed, so every experiment is reproducible; *different* seeds yield
different interleavings, which is how racy programs manifest (or fail to
manifest) their races under a dynamic detector.

Fairness matters: the threading library busy-waits in spin loops, so a
scheduler that starves the writer thread would spin forever.  ``Yield``
instructions (emitted in spin-loop bodies as backoff) ask the scheduler to
deprioritize the spinning thread for a few steps.

Yield penalties run on a *pick clock*.  Every scheduler counts its picks;
``on_yield(tid)`` stamps ``tid`` with the last pick it sits out
(``picks + window``) and raises ``horizon``, the largest stamp.  Pick
``n`` skips every thread whose stamp is still ``>= n`` — unless that
would leave nobody, in which case all of ``runnable`` stays eligible.
Stamps expire by the clock alone, so a thread that yields and then
blocks on a lock has served its backoff when it wakes, exactly as if
its penalty had been ticked down on every pick.  Once ``n > horizon``
no stamp is live and a pick uses ``runnable`` as is: outside a penalty
window a pick costs O(1) beyond the draw itself.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence

#: The smallest accepted value of each scheduler parameter.  A negative
#: ``penalty`` has no meaning, and a burst is drawn from
#: ``randrange(1, burst)``, which is empty below 2.
PARAM_MINIMUMS: Dict[str, int] = {"penalty": 0, "burst": 2}


def check_param(name: str, value: int) -> int:
    """Return ``value``, or raise ``ValueError`` naming ``name`` if it is
    below the parameter's minimum."""
    minimum = PARAM_MINIMUMS[name]
    if value < minimum:
        raise ValueError(
            f"scheduler parameter {name}={value} is out of range; "
            f"{name} must be >= {minimum}"
        )
    return value


class Scheduler:
    """Interface: pick the next thread to run.

    Holds the one yield-penalty representation every scheduler shares:
    ``_picks`` (the pick clock, advanced by ``pick``), ``_until`` (tid →
    the last pick it sits out) and ``_horizon`` (the largest stamp).
    """

    def __init__(self, window: int) -> None:
        #: Picks a yielding thread sits out.
        self._window = window
        self._picks = 0
        self._until: Dict[int, int] = {}
        self._horizon = 0

    def pick(self, runnable: Sequence[int]) -> int:
        raise NotImplementedError

    def on_yield(self, tid: int) -> None:
        """Called when ``tid`` executes a ``Yield`` (spin backoff hint):
        ``tid`` sits out the next ``window`` picks while others can run."""
        until = self._picks + self._window
        self._until[tid] = until
        if until > self._horizon:
            self._horizon = until

    def on_spawn(self, tid: int) -> None:
        """Called when a new thread ``tid`` becomes schedulable."""

    def penalties(self) -> Dict[int, int]:
        """Outstanding yield penalties, read-only: ``{tid: picks left}``
        for every thread the coming picks will still skip."""
        now = self._picks
        return {tid: until - now for tid, until in self._until.items() if until > now}


class RoundRobinScheduler(Scheduler):
    """Strict rotation among runnable threads; fully deterministic.

    Honours ``on_yield`` backoff the same way the other schedulers do: a
    thread that yields is skipped for the next ``penalty`` picks while
    other threads are runnable, then rejoins the rotation where it would
    naturally fall.  With no yields the schedule is the classic
    0, 1, 2, 0, 1, 2, ... rotation.
    """

    def __init__(self, penalty: int = 8) -> None:
        super().__init__(check_param("penalty", penalty))
        self._last: int = -1

    def pick(self, runnable: Sequence[int]) -> int:
        n = self._picks = self._picks + 1
        pool = runnable
        if n <= self._horizon:
            until = self._until
            pool = [t for t in runnable if until.get(t, 0) < n] or runnable
        last = self._last
        later = [t for t in pool if t > last]
        chosen = min(later) if later else min(pool)
        self._last = chosen
        return chosen


class RandomScheduler(Scheduler):
    """Uniform random preemption with yield-penalty fairness.

    A thread that yields is skipped for the next ``penalty`` picks when
    other threads are runnable, modelling the pause/backoff of a real
    spin loop and guaranteeing writer progress.

    The draw is ``random.Random.randrange(len(pool))`` inlined: the same
    ``getrandbits(k)`` rejection loop as CPython's ``Random._randbelow``
    with ``k = len(pool).bit_length()``, so the picks and the RNG stream
    equal ``randrange``'s without its two Python frames per pick.  A
    one-thread pool returns without drawing.
    """

    def __init__(self, seed: int = 0, penalty: int = 8) -> None:
        super().__init__(check_param("penalty", penalty))
        self._rng = random.Random(seed)
        self._getrandbits = self._rng.getrandbits

    def pick(self, runnable: Sequence[int]) -> int:
        n = self._picks = self._picks + 1
        if n <= self._horizon:
            until = self._until
            runnable = [t for t in runnable if until.get(t, 0) < n] or runnable
        size = len(runnable)
        if size == 1:
            return runnable[0]
        getrandbits = self._getrandbits
        k = size.bit_length()
        r = getrandbits(k)
        while r >= size:
            r = getrandbits(k)
        return runnable[r]


class AdversarialScheduler(Scheduler):
    """Race-hunting scheduler: runs one thread in long bursts, then
    switches — maximizing the chance that conflicting accesses from two
    threads land in the same unsynchronized window.

    A yield ends the yielder's burst and penalizes it for a fixed
    ``PENALTY`` of 8 picks, counted down *before* the pick that filters
    on it: the window is one pick shorter than Random's and
    RoundRobin's, and a yielder sits out the next 7 picks.  Every
    recorded adversarial schedule depends on that window.

    Used by the ground-truth oracle in the harness to confirm that racy
    test programs really can produce divergent outcomes.
    """

    PENALTY = 8

    def __init__(self, seed: int = 0, burst: int = 24) -> None:
        super().__init__(self.PENALTY - 1)
        self._rng = random.Random(seed)
        self._burst = check_param("burst", burst)
        self._remaining = 0
        self._current: int = -1

    def pick(self, runnable: Sequence[int]) -> int:
        n = self._picks = self._picks + 1
        current = self._current
        until = self._until
        if self._remaining > 0 and current in runnable and until.get(current, 0) < n:
            self._remaining -= 1
            return current
        pool = runnable
        if n <= self._horizon:
            pool = [t for t in runnable if until.get(t, 0) < n] or runnable
        rng = self._rng
        self._current = pool[rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
        self._remaining = rng.randrange(1, self._burst)
        return self._current

    def on_yield(self, tid: int) -> None:
        super().on_yield(tid)
        if tid == self._current:
            self._remaining = 0
