"""Scheduler determinism and fairness properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm.scheduler import (
    AdversarialScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)


class TestRoundRobin:
    def test_rotates(self):
        s = RoundRobinScheduler()
        picks = [s.pick([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_handles_changing_runnable_set(self):
        s = RoundRobinScheduler()
        assert s.pick([0, 1]) == 0
        assert s.pick([1]) == 1
        assert s.pick([0, 2]) == 2
        assert s.pick([0, 2]) == 0

    def test_yield_penalty_skips_spinner(self):
        s = RoundRobinScheduler(penalty=4)
        s.on_yield(0)
        picks = [s.pick([0, 1]) for _ in range(4)]
        assert all(p == 1 for p in picks)
        # penalty elapsed: thread 0 rejoins the rotation
        assert 0 in [s.pick([0, 1]) for _ in range(2)]

    def test_yielding_only_thread_still_runs(self):
        s = RoundRobinScheduler()
        s.on_yield(0)
        assert s.pick([0]) == 0

    def test_yield_handling_is_deterministic(self):
        seqs = []
        for _ in range(2):
            s = RoundRobinScheduler(penalty=3)
            picks = []
            for i in range(12):
                chosen = s.pick([0, 1, 2])
                picks.append(chosen)
                if i == 2:
                    s.on_yield(chosen)
            seqs.append(picks)
        assert seqs[0] == seqs[1]

    def test_penalty_decays_while_thread_is_blocked(self):
        s = RoundRobinScheduler(penalty=4)
        s.on_yield(0)
        for _ in range(4):
            assert s.pick([1]) == 1
        assert s.penalties().get(0, 0) == 0


class TestRandom:
    def test_deterministic_per_seed(self):
        a = [RandomScheduler(5).pick([0, 1, 2]) for _ in range(1)]
        s1, s2 = RandomScheduler(5), RandomScheduler(5)
        assert [s1.pick([0, 1, 2]) for _ in range(50)] == [
            s2.pick([0, 1, 2]) for _ in range(50)
        ]

    def test_single_thread_fast_path(self):
        s = RandomScheduler(0)
        assert all(s.pick([3]) == 3 for _ in range(10))

    def test_yield_penalty_skips_spinner(self):
        s = RandomScheduler(0, penalty=8)
        s.on_yield(0)
        picks = [s.pick([0, 1]) for _ in range(8)]
        assert all(p == 1 for p in picks)

    def test_yielding_only_thread_still_runs(self):
        s = RandomScheduler(0)
        s.on_yield(0)
        assert s.pick([0]) == 0

    def test_penalty_decays_while_thread_is_blocked(self):
        """Regression: a thread that yields and then blocks must not wake
        up still carrying its full penalty — penalties decay on every
        pick, not just for currently-runnable tids."""
        s = RandomScheduler(0, penalty=4)
        s.on_yield(0)
        for _ in range(4):
            assert s.pick([1]) == 1  # thread 0 is blocked meanwhile
        assert s.penalties().get(0, 0) == 0
        # Woken thread competes immediately: it shows up among the next
        # few picks instead of being starved for another full window.
        picks = [s.pick([0, 1]) for _ in range(10)]
        assert 0 in picks

    def test_woken_thread_not_starved_after_waking(self):
        """End-to-end fairness: yielded-then-blocked thread 0 wakes after
        its penalty window has elapsed and is eligible on the very first
        pick (the eligible pool must contain it)."""
        for seed in range(20):
            s = RandomScheduler(seed, penalty=8)
            s.on_yield(0)
            for _ in range(8):
                s.pick([1])
            # Penalty fully decayed: with both runnable, thread 0 must be
            # *eligible* — i.e. picked at least once across seeds quickly.
            first_picks = [s.pick([0, 1]) for _ in range(4)]
            if 0 in first_picks:
                break
        else:
            raise AssertionError("woken thread was never picked promptly")


class TestAdversarial:
    def test_deterministic_per_seed(self):
        s1, s2 = AdversarialScheduler(7), AdversarialScheduler(7)
        assert [s1.pick([0, 1, 2]) for _ in range(60)] == [
            s2.pick([0, 1, 2]) for _ in range(60)
        ]

    def test_runs_bursts(self):
        s = AdversarialScheduler(1, burst=10)
        picks = [s.pick([0, 1]) for _ in range(40)]
        # bursts imply consecutive repeats somewhere
        assert any(picks[i] == picks[i + 1] for i in range(len(picks) - 1))

    def test_yield_ends_burst(self):
        s = AdversarialScheduler(1, burst=50)
        first = s.pick([0, 1])
        s.on_yield(first)
        nxt = s.pick([0, 1])
        assert nxt != first

    def test_penalty_decays_while_thread_is_blocked(self):
        """Same regression as RandomScheduler: blocked threads' penalties
        must decay with every pick."""
        s = AdversarialScheduler(3)
        s.on_yield(0)  # fixed penalty of 8
        for _ in range(8):
            assert s.pick([1]) == 1
        assert s.penalties().get(0, 0) == 0


@given(
    seed=st.integers(0, 1000),
    nthreads=st.integers(1, 8),
    steps=st.integers(20, 200),
)
@settings(max_examples=60, deadline=None)
def test_random_scheduler_fairness(seed, nthreads, steps):
    """Property: every runnable thread is eventually picked — no thread
    starves over a long window (required for spin loops to make progress)."""
    s = RandomScheduler(seed)
    runnable = list(range(nthreads))
    picks = [s.pick(runnable) for _ in range(steps * nthreads)]
    assert set(picks) == set(runnable)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_random_scheduler_picks_only_runnable(seed):
    s = RandomScheduler(seed)
    for runnable in ([0], [4, 9], [1, 2, 3], [7]):
        for _ in range(5):
            assert s.pick(runnable) in runnable


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_adversarial_picks_only_runnable(seed):
    s = AdversarialScheduler(seed)
    for runnable in ([0, 1], [2], [0, 3, 5]):
        for _ in range(10):
            assert s.pick(runnable) in runnable


# ---------------------------------------------------------------------------
# Pick-sequence equivalence with the decaying-penalty schedulers
# ---------------------------------------------------------------------------
#
# Verbatim copies of the schedulers as they stood before yield penalties
# became expiry stamps.  Every golden fingerprint depends on the exact
# pick sequence, so the production schedulers must reproduce these picks
# — and consume the seeded RNG identically — for any runnable sequence,
# any yields and any parameters.


def _ref_decay_penalties(penalties):
    for tid, p in list(penalties.items()):
        if p <= 1:
            del penalties[tid]
        else:
            penalties[tid] = p - 1


class _RefRoundRobin:
    def __init__(self, penalty=8):
        self._last = -1
        self._penalty_steps = penalty
        self._penalties = {}

    def pick(self, runnable):
        penalties = self._penalties
        if penalties:
            eligible = [t for t in runnable if penalties.get(t, 0) == 0]
            pool = eligible if eligible else list(runnable)
            _ref_decay_penalties(penalties)
        else:
            pool = runnable
        last = self._last
        later = [t for t in pool if t > last]
        chosen = min(later) if later else min(pool)
        self._last = chosen
        return chosen

    def on_yield(self, tid):
        self._penalties[tid] = self._penalty_steps


class _RefRandom:
    def __init__(self, seed=0, penalty=8):
        self._rng = random.Random(seed)
        self._penalty_steps = penalty
        self._penalties = {}

    def pick(self, runnable):
        penalties = self._penalties
        if not penalties:
            return (
                runnable[self._rng.randrange(len(runnable))]
                if len(runnable) > 1
                else runnable[0]
            )
        eligible = [t for t in runnable if penalties.get(t, 0) == 0]
        pool = eligible if eligible else list(runnable)
        _ref_decay_penalties(penalties)
        return pool[self._rng.randrange(len(pool))] if len(pool) > 1 else pool[0]

    def on_yield(self, tid):
        self._penalties[tid] = self._penalty_steps


class _RefAdversarial:
    def __init__(self, seed=0, burst=24):
        self._rng = random.Random(seed)
        self._burst = burst
        self._remaining = 0
        self._current = -1
        self._penalties = {}

    def pick(self, runnable):
        penalties = self._penalties
        if not penalties:
            if self._remaining > 0 and self._current in runnable:
                self._remaining -= 1
                return self._current
            pool = runnable
        else:
            _ref_decay_penalties(penalties)
            if (
                self._remaining > 0
                and self._current in runnable
                and penalties.get(self._current, 0) == 0
            ):
                self._remaining -= 1
                return self._current
            eligible = [t for t in runnable if penalties.get(t, 0) == 0]
            pool = eligible if eligible else list(runnable)
        self._current = pool[self._rng.randrange(len(pool))] if len(pool) > 1 else pool[0]
        self._remaining = self._rng.randrange(1, self._burst)
        return self._current

    def on_yield(self, tid):
        self._penalties[tid] = 8
        if tid == self._current:
            self._remaining = 0


def _scheduler_pair(kind, seed, penalty, burst):
    if kind == "round-robin":
        return RoundRobinScheduler(penalty=penalty), _RefRoundRobin(penalty=penalty)
    if kind == "random":
        return RandomScheduler(seed, penalty=penalty), _RefRandom(seed, penalty=penalty)
    return AdversarialScheduler(seed, burst=burst), _RefAdversarial(seed, burst=burst)


#: One scheduling step: the runnable set as a bitmask over tids 0-15 (half
#: the time over tids 0-3, so every runnable thread is often penalized at
#: once), then an action after the pick — 0-3 the yielder (an index into
#: the runnable set) yields, 0-1 of those also block it for ``hold``
#: picks, 4-9 nothing.
_steps = st.lists(
    st.tuples(
        st.one_of(st.integers(1, 2**4 - 1), st.integers(1, 2**16 - 1)),
        st.integers(0, 9),
        st.integers(0, 15),
        st.integers(1, 20),
    ),
    min_size=1,
    max_size=300,
)


@given(
    kind=st.sampled_from(["round-robin", "random", "adversarial"]),
    seed=st.integers(0, 2**32 - 1),
    penalty=st.integers(0, 12),
    burst=st.integers(2, 40),
    steps=_steps,
)
@settings(max_examples=300, deadline=None)
def test_picks_match_decaying_penalty_reference(kind, seed, penalty, burst, steps):
    """Same picks, same RNG consumption, as the pre-stamp schedulers —
    over changing runnable sets of 1-16 tids, yields at random picks, and
    yielders that stay blocked (absent from ``runnable``) for a while."""
    sched, ref = _scheduler_pair(kind, seed, penalty, burst)
    blocked = {}  # tid -> picks it stays out of the runnable set
    for i, (mask, action, who, hold) in enumerate(steps):
        runnable = [t for t in range(16) if mask >> t & 1 and t not in blocked]
        if not runnable:
            runnable = [min(blocked)]
        chosen = sched.pick(runnable)
        assert chosen == ref.pick(runnable), f"pick {i}"
        for t in list(blocked):
            blocked[t] -= 1
            if blocked[t] <= 0:
                del blocked[t]
        if action < 4:
            # Usually the thread that just ran yields (a spin-loop
            # backoff); sometimes another one does.  It may block right
            # after, e.g. on a lock, and miss picks while penalized.
            yielder = chosen if who >= len(runnable) else runnable[who]
            sched.on_yield(yielder)
            ref.on_yield(yielder)
            if action < 2:
                blocked[yielder] = hold
    # The RNG streams are still in lockstep after the last pick.
    if kind != "round-robin":
        assert sched._rng.getstate() == ref._rng.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_random_draws_equal_randrange(seed):
    """``RandomScheduler``'s bounded draw is the interpreter's
    ``random.Random.randrange(n)`` — the golden corpus pins random
    schedules, so this guards the draw on every supported CPython.  A
    one-thread pool returns without drawing."""
    s = RandomScheduler(seed)
    ref = random.Random(seed)
    for n in range(1, 65):
        runnable = list(range(100, 100 + n))
        for _ in range(8):
            expected = 100 + (ref.randrange(n) if n > 1 else 0)
            assert s.pick(runnable) == expected, n


class TestPenaltiesView:
    def test_counts_down_per_pick(self):
        s = RandomScheduler(0, penalty=4)
        s.on_yield(0)
        assert s.penalties() == {0: 4}
        s.pick([1])
        assert s.penalties() == {0: 3}
        s.on_yield(1)
        assert s.penalties() == {0: 3, 1: 4}

    def test_zero_penalty_leaves_nothing_outstanding(self):
        s = RoundRobinScheduler(penalty=0)
        s.on_yield(0)
        assert s.penalties() == {}
        assert s.pick([0, 1]) == 0

    def test_adversarial_window_is_one_pick_shorter(self):
        s = AdversarialScheduler(3)
        s.on_yield(0)
        assert s.penalties() == {0: AdversarialScheduler.PENALTY - 1}

    def test_view_is_a_copy(self):
        s = RandomScheduler(0)
        s.on_yield(0)
        s.penalties().clear()
        assert s.penalties() == {0: 8}


class TestParameterRanges:
    """Out-of-range parameters fail where they are given, naming the
    parameter — never at the first pick, and never by silently running a
    different policy."""

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: RandomScheduler(0, penalty=-3), "penalty"),
            (lambda: RoundRobinScheduler(penalty=-1), "penalty"),
            (lambda: AdversarialScheduler(0, burst=1), "burst"),
            (lambda: AdversarialScheduler(0, burst=0), "burst"),
        ],
    )
    def test_constructors_reject(self, make, name):
        with pytest.raises(ValueError, match=name):
            make()

    def test_boundary_values_are_accepted(self):
        RandomScheduler(0, penalty=0)
        RoundRobinScheduler(penalty=0)
        s = AdversarialScheduler(0, burst=2)
        assert [s.pick([0, 1]) for _ in range(10)]

    @pytest.mark.parametrize(
        "spec, name",
        [
            ("adversarial:burst=1", "burst"),
            ("random:penalty=-3", "penalty"),
            ("round-robin:penalty=-1", "penalty"),
        ],
    )
    def test_canonical_scheduler_rejects(self, spec, name):
        from repro.harness.registry import build_scheduler, canonical_scheduler

        with pytest.raises(ValueError, match=name):
            canonical_scheduler(spec)
        with pytest.raises(ValueError, match=name):
            build_scheduler(spec, 1)

    def test_canonical_scheduler_keeps_boundary_values(self):
        from repro.harness.registry import canonical_scheduler

        assert canonical_scheduler("adversarial:burst=2") == "adversarial:burst=2"
        assert canonical_scheduler("random:penalty=0") == "random:penalty=0"

    def test_run_rejects_before_executing(self):
        import repro

        with pytest.raises(ValueError, match="burst"):
            repro.run("streamcluster", "drd", scheduler="adversarial:burst=1")
