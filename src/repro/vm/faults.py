"""Deterministic fault injection for abnormal-execution testing.

The paper's premise is that synchronization can *fail to be recognized*,
and the executions that stress a detector hardest are the abnormal ones:
a lost counterpart write leaves a marked spin loop livelocked, a
signal-before-wait deadlocks a condvar protocol, a crashed thread
abandons a held lock.  This module turns those executions into a
first-class, reproducible test surface:

* a :class:`FaultPlan` is an immutable, picklable description of *what*
  goes wrong and *when* — fully determined by its fields (and, when
  sampled, by its seed), so the same plan replayed against the same
  program and scheduler seed yields a byte-identical event stream;
* a :class:`FaultInjector` executes the plan against a running
  :class:`~repro.vm.machine.Machine` through three narrow hooks
  (``on_step``, ``intercept_store``, ``filter_runnable``), emitting a
  :class:`~repro.vm.events.FaultEvent` into the event stream for every
  action so downstream layers can attribute abnormality to its cause;
* :class:`LivelockReport` and :class:`ThreadDiag` are the structured
  diagnostics the machine attaches to a
  :class:`~repro.vm.machine.RunResult` instead of collapsing every
  abnormal ending into bare booleans.

Fault classes (``Fault.kind``):

``kill-thread``
    Terminate a thread at a step (optionally only once it holds an
    annotated lock — the crashed-holder scenario).  Killed threads never
    exit, so joiners block forever and held locks are abandoned.
``drop-store``
    Silently discard the *n*-th store to a global symbol — the lost
    counterpart write that livelocks a spin loop.
``delay-store``
    Buffer the *n*-th store to a symbol and apply it (memory plus the
    ``MemWrite`` event) a fixed number of steps later — delayed
    visibility.
``spurious-wakeup``
    Bump a condition variable's generation word from *no thread* at a
    step, releasing any waiter without a matching signal.
``starvation``
    Hide a thread from the scheduler for a window of steps while other
    threads are runnable.
``clamp-steps``
    Clamp the machine's step budget — a truncated run that exercises
    every ``finalize(partial=True)`` path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.program import CodeLocation
from repro.vm import events as ev

#: every fault class a plan may contain, in canonical order
FAULT_CLASSES = (
    "kill-thread",
    "drop-store",
    "delay-store",
    "spurious-wakeup",
    "starvation",
    "clamp-steps",
)


# ---------------------------------------------------------------------------
# Fault classes


@dataclass(frozen=True)
class Fault:
    """Base class; concrete faults define ``kind`` and their parameters."""

    kind = "fault"


@dataclass(frozen=True)
class KillThread(Fault):
    """Terminate ``tid`` at the first step >= ``at_step``.

    With ``when_holding`` the kill additionally waits until the victim
    holds at least one annotated lock, so "crashed while inside a
    critical section" is expressible without hard-coding a step that
    depends on the schedule.
    """

    tid: int
    at_step: int = 0
    when_holding: bool = False

    kind = "kill-thread"


@dataclass(frozen=True)
class DropStore(Fault):
    """Discard the ``index``-th store to ``symbol``(+``offset``)."""

    symbol: str
    index: int = 0
    offset: int = 0

    kind = "drop-store"


@dataclass(frozen=True)
class DelayStore(Fault):
    """Apply the ``index``-th store to ``symbol`` ``delay`` steps late."""

    symbol: str
    index: int = 0
    offset: int = 0
    delay: int = 200

    kind = "delay-store"


@dataclass(frozen=True)
class SpuriousWakeup(Fault):
    """Increment condvar ``symbol``'s generation word at ``at_step``."""

    symbol: str
    at_step: int = 0
    offset: int = 0

    kind = "spurious-wakeup"


@dataclass(frozen=True)
class StarveThread(Fault):
    """Hide ``tid`` from the scheduler during [start, start+duration)."""

    tid: int
    start_step: int = 0
    duration: int = 500

    kind = "starvation"


@dataclass(frozen=True)
class ClampSteps(Fault):
    """Clamp the machine's step budget to ``max_steps``."""

    max_steps: int

    kind = "clamp-steps"


# ---------------------------------------------------------------------------
# The plan


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of faults; hashable and picklable.

    ``seed`` is carried for provenance (plans sampled from the same seed
    are equal) and participates in cache keys through ``repr``.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    name: str = ""

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def classes(self) -> Tuple[str, ...]:
        """The distinct fault classes in the plan, canonically ordered."""
        present = {f.kind for f in self.faults}
        return tuple(k for k in FAULT_CLASSES if k in present)

    @classmethod
    def sample(
        cls,
        fault_class: str,
        seed: int,
        *,
        tids: Sequence[int] = (1,),
        symbols: Sequence[str] = ("FLAG",),
        horizon: int = 2_000,
    ) -> "FaultPlan":
        """Deterministically sample one fault of ``fault_class``.

        The same (fault_class, seed, tids, symbols, horizon) always
        produces the same plan, which is what makes sampled chaos sweeps
        replayable.
        """
        rng = random.Random((fault_class, seed, tuple(tids), tuple(symbols), horizon).__repr__())
        tid = tids[rng.randrange(len(tids))]
        symbol = symbols[rng.randrange(len(symbols))]
        step = rng.randrange(horizon)
        fault: Fault
        if fault_class == "kill-thread":
            fault = KillThread(tid=tid, at_step=step)
        elif fault_class == "drop-store":
            fault = DropStore(symbol=symbol)
        elif fault_class == "delay-store":
            fault = DelayStore(symbol=symbol, delay=1 + step)
        elif fault_class == "spurious-wakeup":
            fault = SpuriousWakeup(symbol=symbol, at_step=step)
        elif fault_class == "starvation":
            fault = StarveThread(tid=tid, start_step=0, duration=1 + step)
        elif fault_class == "clamp-steps":
            fault = ClampSteps(max_steps=1 + step)
        else:
            raise ValueError(f"unknown fault class {fault_class!r}")
        return cls(faults=(fault,), seed=seed, name=f"{fault_class}#{seed}")


# ---------------------------------------------------------------------------
# Structured diagnostics


@dataclass(frozen=True)
class LivelockReport:
    """A marked spin loop spun past the watchdog bound.

    Names *which* loop is stuck and the condition address it keeps
    re-reading — the graceful-degradation replacement for a bare
    step-limit timeout.
    """

    tid: int
    loop_id: int
    loop_name: str  #: "function:header" of the stuck loop
    cond_addr: int
    cond_symbol: str
    last_value: int
    spins: int
    step: int
    loc: Optional[CodeLocation] = None

    def __str__(self) -> str:
        return (
            f"livelock: T{self.tid} stuck in marked loop {self.loop_name} "
            f"(loop {self.loop_id}) spinning on {self.cond_symbol} "
            f"(addr {hex(self.cond_addr)}, last value {self.last_value}) "
            f"for {self.spins} reads by step {self.step}"
        )


@dataclass(frozen=True)
class ThreadDiag:
    """Per-thread post-mortem: what a thread was doing when the run ended."""

    tid: int
    status: str  #: "runnable" | "blocked_join" | "exited" | "killed"
    function: str = ""
    #: tid this thread was blocked joining on (blocked_join only)
    blocked_on_tid: Optional[int] = None
    #: sync object of the innermost annotated library frame, if any
    blocked_on_addr: Optional[int] = None
    blocked_on_kind: Optional[str] = None
    blocked_on_symbol: str = ""
    #: tid currently holding ``blocked_on_addr`` (lock waits only)
    owner_tid: Optional[int] = None
    #: annotated locks held when the run ended (abandoned if killed)
    held_locks: Tuple[int, ...] = ()
    held_symbols: Tuple[str, ...] = ()

    def describe(self) -> str:
        parts = [f"T{self.tid} {self.status}"]
        if self.function:
            parts.append(f"in {self.function}")
        if self.blocked_on_tid is not None:
            parts.append(f"joining T{self.blocked_on_tid}")
        if self.blocked_on_addr is not None:
            where = self.blocked_on_symbol or hex(self.blocked_on_addr)
            parts.append(f"on {self.blocked_on_kind} {where}")
            if self.owner_tid is not None:
                parts.append(f"held by T{self.owner_tid}")
        if self.held_locks:
            held = ", ".join(self.held_symbols) or ", ".join(
                hex(a) for a in self.held_locks
            )
            verb = "abandoning" if self.status == "killed" else "holding"
            parts.append(f"{verb} lock(s) {held}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# The injector


class _PendingStore:
    __slots__ = ("apply_at", "seq", "tid", "addr", "value", "loc", "in_library")

    def __init__(self, apply_at, seq, tid, addr, value, loc, in_library):
        self.apply_at = apply_at
        self.seq = seq
        self.tid = tid
        self.addr = addr
        self.value = value
        self.loc = loc
        self.in_library = in_library


class FaultInjector:
    """Executes a :class:`FaultPlan` against a machine, deterministically.

    The machine calls three hooks:

    * :meth:`on_step` at the top of every scheduling iteration — fires
      due kills, spurious wakeups, and delayed-store applications;
    * :meth:`intercept_store` for every plain ``Store`` — may drop or
      delay it (atomics are never intercepted: a lost atomic is not the
      lost-counterpart-write pattern the plan models);
    * :meth:`filter_runnable` before each scheduler pick — applies
      starvation windows (never starving the *only* runnable thread,
      which would merely stall the clock).

    Every action emits a :class:`~repro.vm.events.FaultEvent` so the
    stream records exactly what was injected and when.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected = 0
        self._kills: List[KillThread] = [
            f for f in plan.faults if isinstance(f, KillThread)
        ]
        self._wakeups: List[SpuriousWakeup] = [
            f for f in plan.faults if isinstance(f, SpuriousWakeup)
        ]
        self._starves: List[StarveThread] = [
            f for f in plan.faults if isinstance(f, StarveThread)
        ]
        self._starve_announced: Dict[int, bool] = {}
        self._clamp: Optional[int] = None
        for f in plan.faults:
            if isinstance(f, ClampSteps):
                clamp = f.max_steps
                self._clamp = clamp if self._clamp is None else min(self._clamp, clamp)
        self._clamp_announced = False
        #: (addr, kind-of-intercept) bookkeeping, resolved at attach time
        self._store_faults: Dict[int, List] = {}
        self._store_seen: Dict[int, int] = {}
        self._pending: List[_PendingStore] = []
        self._pending_seq = 0
        self._wakeup_addrs: Dict[int, int] = {}  # index into _wakeups -> addr

    # -- wiring ----------------------------------------------------------

    def attach(self, machine) -> None:
        """Resolve symbol-addressed faults against the machine's memory.

        Raises ``ValueError`` for unknown symbols: a plan that cannot
        bind is a configuration error and must fail fast, not silently
        inject nothing.
        """
        for f in self.plan.faults:
            if isinstance(f, (DropStore, DelayStore)):
                addr = self._resolve(machine, f.symbol) + f.offset
                self._store_faults.setdefault(addr, []).append(f)
            elif isinstance(f, SpuriousWakeup):
                addr = self._resolve(machine, f.symbol) + f.offset
                self._wakeup_addrs[id(f)] = addr

    @staticmethod
    def _resolve(machine, symbol: str) -> int:
        try:
            return machine.memory.global_base(symbol)
        except Exception as exc:
            raise ValueError(
                f"fault plan references unknown global {symbol!r}: {exc}"
            ) from exc

    def clamp_max_steps(self, max_steps: int) -> int:
        if self._clamp is None:
            return max_steps
        return min(max_steps, self._clamp)

    # -- hooks -----------------------------------------------------------

    def on_step(self, machine) -> None:
        """Fire every fault due at the machine's current step."""
        step = machine.step_count
        if self._clamp is not None and not self._clamp_announced:
            self._clamp_announced = True
            self.injected += 1
            machine._emit(
                ev.StepBudgetClampedEvent(step, -1, max_steps=machine.max_steps)
            )
        if self._pending:
            due = [p for p in self._pending if p.apply_at <= step]
            if due:
                due.sort(key=lambda p: (p.apply_at, p.seq))
                self._pending = [p for p in self._pending if p.apply_at > step]
                for p in due:
                    machine.memory.store(p.addr, p.value)
                    machine._emit(
                        ev.MemWrite(
                            step, p.tid, p.addr, p.value, p.loc, False, p.in_library
                        )
                    )
        if self._kills:
            still_pending: List[KillThread] = []
            for f in self._kills:
                if step < f.at_step:
                    still_pending.append(f)
                    continue
                thread = machine.threads.get(f.tid)
                if thread is None:
                    # Not spawned yet: keep waiting (tids are assigned in
                    # spawn order, so the victim may appear later).
                    if f.tid < machine._next_tid:
                        continue  # never existed and never will — drop
                    still_pending.append(f)
                    continue
                if thread.status.value in ("exited", "killed"):
                    continue  # nothing left to kill
                if f.when_holding and not thread.held_locks:
                    still_pending.append(f)
                    continue
                machine.kill_thread(f.tid)
                self.injected += 1
            self._kills = still_pending
        if self._wakeups:
            remaining: List[SpuriousWakeup] = []
            for f in self._wakeups:
                if step < f.at_step:
                    remaining.append(f)
                    continue
                addr = self._wakeup_addrs[id(f)]
                value = machine.memory.load(addr) + 1
                machine.memory.store(addr, value)
                machine._emit(ev.SpuriousWakeEvent(step, -1, addr=addr, value=value))
                self.injected += 1
            self._wakeups = remaining

    def intercept_store(
        self, machine, tid: int, addr: int, value: int, loc, in_library: bool
    ) -> Optional[str]:
        """Intercept a plain store; returns "drop"/"delay" or ``None``."""
        faults = self._store_faults.get(addr)
        if not faults:
            return None
        seen = self._store_seen.get(addr, 0)
        self._store_seen[addr] = seen + 1
        step = machine.step_count
        for f in faults:
            if f.index != seen:
                continue
            if isinstance(f, DropStore):
                machine._emit(
                    ev.StoreDroppedEvent(step, tid, addr=addr, value=value, loc=loc)
                )
                self.injected += 1
                return "drop"
            if isinstance(f, DelayStore):
                self._pending_seq += 1
                self._pending.append(
                    _PendingStore(
                        step + f.delay, self._pending_seq, tid, addr, value, loc,
                        in_library,
                    )
                )
                machine._emit(
                    ev.StoreDelayedEvent(
                        step, tid, addr=addr, value=value, delay=f.delay, loc=loc
                    )
                )
                self.injected += 1
                return "delay"
        return None

    def filter_runnable(self, machine, runnable: List[int]) -> List[int]:
        """Apply starvation windows; never leaves the pool empty."""
        if not self._starves:
            return runnable
        step = machine.step_count
        starved = set()
        for f in self._starves:
            if f.start_step <= step < f.start_step + f.duration:
                starved.add(f.tid)
                if not self._starve_announced.get(f.tid):
                    self._starve_announced[f.tid] = True
                    machine._emit(
                        ev.StarvationEvent(step, f.tid, duration=f.duration)
                    )
                    self.injected += 1
        if not starved:
            return runnable
        kept = [t for t in runnable if t not in starved]
        return kept if kept else runnable
