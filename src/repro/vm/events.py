"""Event taxonomy emitted by the VM and consumed by detectors.

Each event carries the global step number at which it occurred (total
order — the VM is sequentially consistent), the thread id, and a static
:class:`~repro.isa.program.CodeLocation` where applicable.

Memory events carry ``in_library``: whether the access happened inside a
function flagged ``is_library``.  The lib-mode interceptor uses this to
hide library-internal traffic from the race algorithm, the way Helgrind+
hides the internals of intercepted pthread calls; nolib mode ignores it.

``Marked*`` events are produced only when the machine is given an
instrumentation map (the output of the paper's *instrumentation phase*);
they drive the *runtime phase* in :mod:`repro.detectors.adhoc`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.program import CodeLocation, SyncKind


@dataclass(frozen=True)
class Event:
    """Base class: something observable happened at ``step`` on ``tid``."""

    step: int
    tid: int


@dataclass(frozen=True)
class MemRead(Event):
    """A load of ``value`` from ``addr``."""

    addr: int
    value: int
    loc: CodeLocation
    atomic: bool = False
    in_library: bool = False


@dataclass(frozen=True)
class MemWrite(Event):
    """A store of ``value`` to ``addr``."""

    addr: int
    value: int
    loc: CodeLocation
    atomic: bool = False
    in_library: bool = False


@dataclass(frozen=True)
class ThreadStartEvent(Event):
    """First instruction of thread ``tid`` is about to run."""


@dataclass(frozen=True)
class ThreadExitEvent(Event):
    """Thread ``tid`` has finished."""


@dataclass(frozen=True)
class ThreadSpawnEvent(Event):
    """``tid`` created ``child`` (induces a happens-before edge)."""

    child: int
    loc: CodeLocation


@dataclass(frozen=True)
class ThreadJoinEvent(Event):
    """``tid`` observed the exit of ``joined`` (induces an hb edge)."""

    joined: int
    loc: CodeLocation


@dataclass(frozen=True)
class LibEnter(Event):
    """``tid`` entered an *annotated* library function.

    ``obj_addr`` is the runtime value of the annotated object parameter —
    the identity of the lock / condvar / barrier / semaphore.
    """

    func: str
    kind: SyncKind
    obj_addr: int
    loc: CodeLocation
    #: True when this annotated call is nested inside another library
    #: function (e.g. the mutex ops inside ``cv_wait``); the interceptor
    #: only honours outermost annotated calls.
    in_library: bool = False
    #: second sync object (the mutex of a ``cv_wait``), when annotated
    obj2_addr: Optional[int] = None


@dataclass(frozen=True)
class LibExit(Event):
    """``tid`` returned from an annotated library function."""

    func: str
    kind: SyncKind
    obj_addr: int
    loc: CodeLocation
    in_library: bool = False
    obj2_addr: Optional[int] = None


@dataclass(frozen=True)
class MarkedLoopEnter(Event):
    """Control entered an instrumented (suspected spinning read) loop."""

    loop_id: int
    loc: CodeLocation
    in_library: bool = False


@dataclass(frozen=True)
class MarkedLoopExit(Event):
    """Control left an instrumented loop via one of its exit edges.

    The runtime phase reacts to this by locating the counterpart write
    for the condition value(s) last read inside the loop.
    """

    loop_id: int
    loc: CodeLocation
    in_library: bool = False


@dataclass(frozen=True)
class MarkedCondRead(Event):
    """A load inside an instrumented loop that feeds the loop condition.

    Emitted *before* the corresponding ``MemRead`` so the runtime phase
    can classify the address as a synchronization flag before the race
    algorithm examines the access.
    """

    loop_id: int
    addr: int
    value: int
    loc: CodeLocation
    in_library: bool = False


@dataclass(frozen=True)
class PrintEvent(Event):
    """Debug output from a ``Print`` instruction."""

    value: int
    loc: CodeLocation


@dataclass(frozen=True)
class FaultEvent(Event):
    """Base class for injected faults (:mod:`repro.vm.faults`).

    Fault events record *what the injector did and when*, so an abnormal
    run's event stream carries its own explanation.  Detectors ignore
    them; the harness counts them to distinguish a run that went wrong
    on its own from one that was pushed.  ``tid`` is ``-1`` for faults
    not attributable to any thread (e.g. a spurious wakeup).
    """


@dataclass(frozen=True)
class ThreadKilledEvent(FaultEvent):
    """Thread ``tid`` was terminated by a kill-thread fault.

    Unlike :class:`ThreadExitEvent` this does *not* wake joiners and
    does not release held locks — that is the point.
    """


@dataclass(frozen=True)
class StoreDroppedEvent(FaultEvent):
    """A plain store by ``tid`` was silently discarded (lost write)."""

    addr: int
    value: int
    loc: CodeLocation


@dataclass(frozen=True)
class StoreDelayedEvent(FaultEvent):
    """A plain store was buffered; its ``MemWrite`` lands ``delay`` steps later."""

    addr: int
    value: int
    delay: int
    loc: CodeLocation


@dataclass(frozen=True)
class SpuriousWakeEvent(FaultEvent):
    """A condvar generation word at ``addr`` was bumped by no thread."""

    addr: int
    value: int


@dataclass(frozen=True)
class StarvationEvent(FaultEvent):
    """Thread ``tid`` enters a scheduler-starvation window of ``duration`` steps."""

    duration: int


@dataclass(frozen=True)
class StepBudgetClampedEvent(FaultEvent):
    """The machine's step budget was clamped to ``max_steps`` by a fault plan."""

    max_steps: int


# ---------------------------------------------------------------------------
# Rows: the detector kernel's event form
# ---------------------------------------------------------------------------
#
# A row is the flat tuple ``(kind, tid, addr, value, loc, atomic,
# in_library, aux)``.  Memory accesses and marker events — almost all of a
# stream — never become Event objects on the batched path: the VM appends
# their rows directly, and a recording stores them column-wise.  ``aux``
# holds the loop id of a marker row and the Event object itself for the
# rare kinds (library annotations, spawn/join, bookkeeping), whose other
# fields are zero.

READ = 0
WRITE = 1
COND_READ = 2
LOOP_ENTER = 3
LOOP_EXIT = 4
LIB_ENTER = 5
LIB_EXIT = 6
SPAWN = 7
JOIN = 8
#: thread start/exit, prints and injected faults: no detector effect
NOTE = 9

_RARE_KIND = {
    LibEnter: LIB_ENTER,
    LibExit: LIB_EXIT,
    ThreadSpawnEvent: SPAWN,
    ThreadJoinEvent: JOIN,
}


def event_row(e: Event) -> tuple:
    """The row of one event (inverse of :func:`row_event`)."""
    te = type(e)
    if te is MemRead:
        return (READ, e.tid, e.addr, e.value, e.loc, e.atomic, e.in_library, None)
    if te is MemWrite:
        return (WRITE, e.tid, e.addr, e.value, e.loc, e.atomic, e.in_library, None)
    if te is MarkedCondRead:
        return (COND_READ, e.tid, e.addr, e.value, e.loc, False, e.in_library, e.loop_id)
    if te is MarkedLoopEnter:
        return (LOOP_ENTER, e.tid, 0, 0, e.loc, False, e.in_library, e.loop_id)
    if te is MarkedLoopExit:
        return (LOOP_EXIT, e.tid, 0, 0, e.loc, False, e.in_library, e.loop_id)
    kind = _RARE_KIND.get(te, NOTE)
    in_library = e.in_library if kind <= LIB_EXIT else False
    return (kind, e.tid, 0, 0, None, False, in_library, e)


def row_event(step, kind, tid, addr, value, loc, atomic, in_library, aux) -> Event:
    """The Event a row at ``step`` stands for (inverse of :func:`event_row`)."""
    if kind == READ:
        return MemRead(step, tid, addr, value, loc, atomic, in_library)
    if kind == WRITE:
        return MemWrite(step, tid, addr, value, loc, atomic, in_library)
    if kind == COND_READ:
        return MarkedCondRead(step, tid, aux, addr, value, loc, in_library)
    if kind == LOOP_ENTER:
        return MarkedLoopEnter(step, tid, aux, loc, in_library)
    if kind == LOOP_EXIT:
        return MarkedLoopExit(step, tid, aux, loc, in_library)
    return aux
