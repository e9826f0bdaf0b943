"""The interpreter: executes programs one instruction per step.

The machine owns memory, the thread table, and the event stream.  Each
call to :meth:`Machine.step` asks the scheduler for a runnable thread and
executes exactly one instruction of it, emitting events to the listener.
This per-instruction interleaving is the precision level at which real
races manifest (e.g. a non-atomic ``counter++`` is three instructions and
can be preempted between them).

If an *instrumentation map* (produced by the paper's instrumentation
phase, :mod:`repro.analysis.instrument`) is supplied, the machine also
emits ``MarkedLoopEnter`` / ``MarkedCondRead`` / ``MarkedLoopExit``
events at the marked program points — the hooks the runtime phase of the
ad-hoc synchronization detector consumes.

Instructions execute as pre-decoded threaded code (:mod:`repro.vm.decode`):
each frame carries its block's handler array, so a step is one closure
call with every operand and marker already bound.

Batched delivery
----------------

A listener that implements ``consume_batch(reads, writes, ctrl)`` gets
events in flat per-kind buffers instead of one Python call (and one
frozen-dataclass allocation) per event: memory accesses become plain tuples
``(seq, tid, addr, value, loc, atomic, in_library)`` and the rare
control/sync events ride in a ``(seq, Event)`` buffer.  ``seq`` is the
global event counter, so the consumer can merge the buffers back into
the exact per-event order of a plain callable listener.  Buffers are
flushed at sync points (library-call annotations), marked-loop exits, at
a size cap checked at scheduler-switch boundaries (between steps), and at
the end of the run.  Batching is active only inside :meth:`Machine.run`;
driving :meth:`Machine.step` directly delivers per-event.  If the
listener also sets ``skip_in_library_traffic``, library-internal memory
and marker events (which such a listener drops unconditionally) are not
buffered — or counted — at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.program import CodeLocation, Function, Program, SyncKind
from repro.vm import events as ev
from repro.vm.decode import get_decoded_program
from repro.vm.faults import FaultInjector, FaultPlan, LivelockReport, ThreadDiag
from repro.vm.frames import Frame, ThreadState, ThreadStatus
from repro.vm.memory import Memory
from repro.vm.scheduler import RandomScheduler, Scheduler

FUNC_BASE = 0x200000

Listener = Callable[[ev.Event], None]


class MachineError(Exception):
    """Raised on interpreter-level failures (bad register, deadlock...)."""


@dataclass
class RunResult:
    """Outcome of a complete machine run.

    Abnormal endings carry structured diagnostics rather than bare
    booleans: a livelocked run names the stuck marked loop and condition
    address (:class:`~repro.vm.faults.LivelockReport`), and every run
    records a per-thread post-mortem (:class:`~repro.vm.faults.ThreadDiag`)
    — what each thread was blocked on, who held the lock, and which
    locks a killed thread abandoned.
    """

    steps: int
    timed_out: bool
    deadlocked: bool
    outputs: List[Tuple[int, int]] = field(default_factory=list)
    thread_results: Dict[int, Optional[int]] = field(default_factory=dict)
    final_memory: Dict[int, int] = field(default_factory=dict)
    livelocked: bool = False
    livelock: Optional[LivelockReport] = None
    thread_diags: Dict[int, ThreadDiag] = field(default_factory=dict)
    #: fault events the injector emitted during this run
    faults_injected: int = 0

    @property
    def ok(self) -> bool:
        return not (self.timed_out or self.deadlocked or self.livelocked)

    @property
    def status(self) -> str:
        """"ok" | "step-limit" | "deadlock" | "livelock"."""
        if self.livelocked:
            return "livelock"
        if self.deadlocked:
            return "deadlock"
        if self.timed_out:
            return "step-limit"
        return "ok"

    def diagnose(self) -> str:
        """Human-readable explanation of how (and why) the run ended."""
        lines: List[str] = []
        if self.livelock is not None:
            lines.append(str(self.livelock))
        elif self.deadlocked:
            lines.append("deadlock: no runnable threads")
        elif self.timed_out:
            lines.append(f"step budget exhausted after {self.steps} steps")
        for tid in sorted(self.thread_diags):
            diag = self.thread_diags[tid]
            if diag.status != "exited":
                lines.append(diag.describe())
        if self.faults_injected:
            lines.append(f"{self.faults_injected} fault(s) injected")
        return "; ".join(lines)


class Machine:
    """A single-run virtual machine instance."""

    def __init__(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        listener: Optional[Listener] = None,
        instrumentation: Optional[object] = None,
        max_steps: int = 2_000_000,
        faults: Optional[FaultPlan] = None,
        livelock_bound: Optional[int] = None,
        batch_size: int = 4096,
    ) -> None:
        self.program = program
        self.scheduler = scheduler or RandomScheduler()
        self.listener = listener
        self.max_steps = max_steps
        # Batched delivery (see module docstring): engaged during run()
        # for a listener that can consume batches.
        self.batch_size = batch_size
        self._sink = (
            listener if callable(getattr(listener, "consume_batch", None)) else None
        )
        self._skip_lib = self._sink is not None and bool(
            getattr(listener, "skip_in_library_traffic", False)
        )
        self._read_buf: Optional[list] = None
        self._write_buf: Optional[list] = None
        self._ctrl_buf: Optional[list] = None
        self._pending = 0
        self.memory = Memory(program)
        self.faults_injected = 0
        self._injector: Optional[FaultInjector] = None
        if faults:
            self._injector = FaultInjector(faults)
            self._injector.attach(self)
            self.max_steps = self._injector.clamp_max_steps(self.max_steps)
        # Livelock watchdog: counts condition reads per (tid, marked loop)
        # between loop entry and exit; ``None`` disables it entirely.
        self.livelock_bound = livelock_bound
        self._livelock: Optional[LivelockReport] = None
        self._spin_counts: Dict[Tuple[int, int], int] = {}
        self.threads: Dict[int, ThreadState] = {}
        self._next_tid = 0
        self._waiters: Dict[int, List[int]] = {}
        # Runnable-set memo: rebuilding the list each scheduler pick is
        # per-step overhead, but the set only changes on spawn / exit /
        # kill / join-block / wake — every such site flips the dirty bit.
        self._runnable_dirty = True
        self._runnable_cache: List[int] = []
        self.step_count = 0
        self.event_count = 0
        self.outputs: List[Tuple[int, int]] = []
        self._halted = False
        # Function-pointer table for ICall.
        self._func_addrs: Dict[str, int] = {}
        self._addr_funcs: Dict[int, str] = {}
        for i, name in enumerate(program.functions):
            addr = FUNC_BASE + i
            self._func_addrs[name] = addr
            self._addr_funcs[addr] = name
        # Watchdog reports name marked loops as ``function:header``.
        headers = instrumentation.loop_headers if instrumentation is not None else {}
        self._loop_names: Dict[int, str] = {
            lid: f"{func}:{header}" for (func, header), lid in headers.items()
        }
        # Pre-decoded threaded code (see :mod:`repro.vm.decode`): resolved
        # before the entry thread spawns so every frame carries its
        # DecodedBlock.  ``decode_s`` is the one-time translation cost
        # (near zero on a decode-cache hit) so the harness can keep it out
        # of measured run time.  The watchdog-armed flag is baked into the
        # decoded handlers, hence part of the cache key.
        t0 = time.perf_counter()
        self._dcode = get_decoded_program(
            program, instrumentation, livelock_bound is not None
        )
        self.decode_s = time.perf_counter() - t0
        self._spawn_thread(program.entry, (), parent=None)
        # Let the listener wire itself to this machine (e.g. the race
        # detector picks up the symbol table for address symbolization).
        attach = getattr(listener, "on_attach", None)
        if callable(attach):
            attach(self)

    # -- thread management --------------------------------------------------

    def _spawn_thread(
        self, func_name: str, args: Tuple[int, ...], parent: Optional[int]
    ) -> int:
        func = self.program.functions[func_name]
        if len(args) != len(func.params):
            raise MachineError(
                f"spawn of {func_name!r}: expected {len(func.params)} args, "
                f"got {len(args)}"
            )
        tid = self._next_tid
        self._next_tid += 1
        frame = Frame(function=func, block=func.entry, regs=dict(zip(func.params, args)))
        frame.code = self._dcode.entries[func_name]
        thread = ThreadState(tid=tid, frames=[frame])
        if func.is_library:
            thread.lib_depth = 1
        self.threads[tid] = thread
        self._runnable_dirty = True
        self.scheduler.on_spawn(tid)
        return tid

    def _runnable(self) -> List[int]:
        if self._runnable_dirty:
            self._runnable_cache = [
                t.tid
                for t in self.threads.values()
                if t.status is ThreadStatus.RUNNABLE
            ]
            self._runnable_dirty = False
        return self._runnable_cache

    def kill_thread(self, tid: int) -> None:
        """Terminate ``tid`` abruptly (kill-thread fault).

        Unlike a normal exit this neither wakes joiners nor releases the
        thread's held locks: joiners stay blocked forever (the deadlock
        surface) and the abandoned locks livelock later acquirers.
        """
        thread = self.threads[tid]
        thread.status = ThreadStatus.KILLED
        self._runnable_dirty = True
        self._emit(ev.ThreadKilledEvent(self.step_count, tid))

    def _exit_thread(self, thread: ThreadState, value: Optional[int]) -> None:
        thread.status = ThreadStatus.EXITED
        thread.result = value
        self._runnable_dirty = True
        self._emit(ev.ThreadExitEvent(self.step_count, thread.tid))
        for waiter_tid in self._waiters.pop(thread.tid, []):
            waiter = self.threads[waiter_tid]
            waiter.status = ThreadStatus.RUNNABLE

    # -- event plumbing ------------------------------------------------------

    def _emit(self, event: ev.Event) -> None:
        self.event_count += 1
        if isinstance(event, ev.FaultEvent):
            self.faults_injected += 1
        ctrl = self._ctrl_buf
        if ctrl is not None:
            ctrl.append((self.event_count, event))
            self._pending += 1
            return
        if self.listener is not None:
            self.listener(event)

    def _emit_read(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool, in_lib: bool
    ) -> None:
        buf = self._read_buf
        if buf is None:
            if self.listener is None:
                # Bare run: the event is unobservable — count it (the
                # harness reads ``event_count``) without allocating it.
                self.event_count += 1
                return
            self._emit(ev.MemRead(self.step_count, tid, addr, value, loc, atomic, in_lib))
            return
        if in_lib and self._skip_lib:
            return
        self.event_count += 1
        buf.append((self.event_count, tid, addr, value, loc, atomic, in_lib))
        self._pending += 1

    def _emit_write(
        self, tid: int, addr: int, value: int, loc: CodeLocation, atomic: bool, in_lib: bool
    ) -> None:
        buf = self._write_buf
        if buf is None:
            if self.listener is None:
                self.event_count += 1
                return
            self._emit(ev.MemWrite(self.step_count, tid, addr, value, loc, atomic, in_lib))
            return
        if in_lib and self._skip_lib:
            return
        self.event_count += 1
        buf.append((self.event_count, tid, addr, value, loc, atomic, in_lib))
        self._pending += 1

    def flush_events(self) -> None:
        """Deliver any buffered events to the batch-consuming listener now."""
        if self._pending:
            reads, writes, ctrl = self._read_buf, self._write_buf, self._ctrl_buf
            self._read_buf, self._write_buf, self._ctrl_buf = [], [], []
            self._pending = 0
            self._sink.consume_batch(reads, writes, ctrl)

    # -- execution -----------------------------------------------------------

    def run(self) -> RunResult:
        """Run to completion (all threads exited, ``Halt``, or budget)."""
        batching = self._sink is not None
        if batching:
            self._read_buf, self._write_buf, self._ctrl_buf = [], [], []
        try:
            return self._run_loop()
        finally:
            if batching:
                self.flush_events()
                self._read_buf = self._write_buf = self._ctrl_buf = None

    def _run_loop(self) -> RunResult:
        deadlocked = False
        batch_size = self.batch_size
        # Per-step overhead is the whole game here: hoist the loop-stable
        # attribute chains into locals.
        injector = self._injector
        threads = self.threads
        threads_values = threads.values()
        scheduler_pick = self.scheduler.pick
        runnable_status = ThreadStatus.RUNNABLE
        skip_lib = self._skip_lib
        while not self._halted:
            if injector is not None:
                injector.on_step(self)
            if self._runnable_dirty:
                self._runnable_cache = [
                    t.tid for t in threads_values if t.status is runnable_status
                ]
                self._runnable_dirty = False
            runnable = self._runnable_cache
            if not runnable:
                # Killed threads are gone, not stuck: only still-blocked
                # survivors make the quiescence a deadlock.
                alive = [
                    t
                    for t in self.threads.values()
                    if t.status
                    not in (ThreadStatus.EXITED, ThreadStatus.KILLED)
                ]
                deadlocked = bool(alive)
                break
            if self.step_count >= self.max_steps:
                return self._result(timed_out=True, deadlocked=False)
            if injector is not None:
                runnable = injector.filter_runnable(self, runnable)
            tid = scheduler_pick(runnable)
            # Inlined :meth:`step`, minus one method call per instruction.
            thread = threads[tid]
            if thread.status is not runnable_status:
                raise MachineError(f"thread {tid} not runnable")
            if not thread.started:
                thread.started = True
                self._emit(ev.ThreadStartEvent(self.step_count, tid))
            frame = thread.frames[-1]
            code = frame.code
            index = frame.index
            if index == 0:
                loop_id = code.loop_id
                if loop_id is not None and not (skip_lib and thread.lib_depth > 0):
                    self._emit(
                        ev.MarkedLoopEnter(
                            self.step_count,
                            tid,
                            loop_id,
                            code.entry_loc,
                            thread.lib_depth > 0,
                        )
                    )
            self.step_count += 1
            code.handlers[index](self, thread, frame)
            # Size cap, checked at the scheduler-switch boundary.
            if self._pending >= batch_size:
                self.flush_events()
            if self._livelock is not None:
                return self._result(
                    timed_out=False, deadlocked=False, livelocked=True
                )
        return self._result(timed_out=False, deadlocked=deadlocked)

    def _result(
        self, timed_out: bool, deadlocked: bool, livelocked: bool = False
    ) -> RunResult:
        return RunResult(
            steps=self.step_count,
            timed_out=timed_out,
            deadlocked=deadlocked,
            outputs=list(self.outputs),
            thread_results={t.tid: t.result for t in self.threads.values()},
            final_memory=self.memory.snapshot(),
            livelocked=livelocked,
            livelock=self._livelock,
            thread_diags=self._thread_diags(),
            faults_injected=self.faults_injected,
        )

    def _thread_diags(self) -> Dict[int, ThreadDiag]:
        owners: Dict[int, int] = {}
        for t in self.threads.values():
            for addr in t.held_locks:
                owners[addr] = t.tid
        diags: Dict[int, ThreadDiag] = {}
        for t in self.threads.values():
            blocked_addr: Optional[int] = None
            blocked_kind: Optional[str] = None
            func_name = ""
            if t.frames and t.status is not ThreadStatus.EXITED:
                func_name = t.frame.function.name
                for fr in reversed(t.frames):
                    if fr.sync_obj is not None and fr.function.annotation is not None:
                        blocked_addr = fr.sync_obj
                        blocked_kind = fr.function.annotation.kind.value
                        break
            held = tuple(sorted(t.held_locks))
            owner = owners.get(blocked_addr) if blocked_addr is not None else None
            diags[t.tid] = ThreadDiag(
                tid=t.tid,
                status=t.status.value,
                function=func_name,
                blocked_on_tid=(
                    t.join_target
                    if t.status is ThreadStatus.BLOCKED_JOIN
                    else None
                ),
                blocked_on_addr=blocked_addr,
                blocked_on_kind=blocked_kind,
                blocked_on_symbol=(
                    self.memory.symbols.resolve(blocked_addr)
                    if blocked_addr is not None
                    else ""
                ),
                owner_tid=owner if owner != t.tid else None,
                held_locks=held,
                held_symbols=tuple(self.memory.symbols.resolve(a) for a in held),
            )
        return diags

    def step(self, tid: int) -> None:
        """Execute one instruction of thread ``tid``."""
        thread = self.threads[tid]
        if thread.status is not ThreadStatus.RUNNABLE:
            raise MachineError(f"thread {tid} not runnable")
        if not thread.started:
            thread.started = True
            self._emit(ev.ThreadStartEvent(self.step_count, tid))
        frame = thread.frames[-1]
        code = frame.code
        index = frame.index
        if index == 0:
            loop_id = code.loop_id
            if loop_id is not None and not (self._skip_lib and thread.lib_depth > 0):
                self._emit(
                    ev.MarkedLoopEnter(
                        self.step_count, tid, loop_id, code.entry_loc, thread.lib_depth > 0
                    )
                )
        self.step_count += 1
        code.handlers[index](self, thread, frame)

    # -- helpers ---------------------------------------------------------

    def _note_cond_read(
        self, tid: int, loop_id: int, addr: int, value: int, loc: CodeLocation
    ) -> None:
        """Watchdog: one more condition read without the loop exiting."""
        key = (tid, loop_id)
        count = self._spin_counts.get(key, 0) + 1
        self._spin_counts[key] = count
        if count > self.livelock_bound and self._livelock is None:
            self._livelock = LivelockReport(
                tid=tid,
                loop_id=loop_id,
                loop_name=self._loop_names.get(loop_id, f"loop{loop_id}"),
                cond_addr=addr,
                cond_symbol=self.memory.symbols.resolve(addr),
                last_value=value,
                spins=count,
                step=self.step_count,
                loc=loc,
            )

    def _enter_function(
        self,
        thread: ThreadState,
        func: Function,
        args: Tuple[int, ...],
        ret_dst: Optional[str],
        loc: CodeLocation,
    ) -> None:
        if len(args) != len(func.params):
            raise MachineError(
                f"{loc}: call of {func.name!r} with {len(args)} args, "
                f"expected {len(func.params)}"
            )
        frame = Frame(
            function=func,
            block=func.entry,
            regs=dict(zip(func.params, args)),
            ret_dst=ret_dst,
        )
        frame.code = self._dcode.entries[func.name]
        if func.annotation is not None:
            obj_addr = args[func.annotation.obj_arg]
            frame.sync_obj = obj_addr
            if func.annotation.mutex_arg is not None:
                frame.sync_obj2 = args[func.annotation.mutex_arg]
            if func.annotation.kind is SyncKind.LOCK_RELEASE:
                thread.held_locks.discard(obj_addr)
            self._emit(
                ev.LibEnter(
                    self.step_count,
                    thread.tid,
                    func.name,
                    func.annotation.kind,
                    obj_addr,
                    loc,
                    thread.in_library,
                    frame.sync_obj2,
                )
            )
            # Sync point: flush so the detector applies the operation's
            # happens-before/lockset effects before further buffering.
            self.flush_events()
        if func.is_library:
            thread.lib_depth += 1
        thread.frames.append(frame)

    def _return(self, thread: ThreadState, value: Optional[int], loc: CodeLocation) -> None:
        frame = thread.frames.pop()
        func = frame.function
        if func.is_library:
            thread.lib_depth -= 1
        if func.annotation is not None and frame.sync_obj is not None:
            if func.annotation.kind is SyncKind.LOCK_ACQUIRE:
                thread.held_locks.add(frame.sync_obj)
            self._emit(
                ev.LibExit(
                    self.step_count,
                    thread.tid,
                    func.name,
                    func.annotation.kind,
                    frame.sync_obj,
                    loc,
                    thread.in_library,
                    frame.sync_obj2,
                )
            )
            self.flush_events()
        if not thread.frames:
            self._exit_thread(thread, value)
            return
        caller = thread.frame
        if frame.ret_dst is not None:
            if value is None:
                raise MachineError(
                    f"{loc}: {func.name!r} returned no value but caller expects one"
                )
            caller.regs[frame.ret_dst] = value
        caller.index += 1
