"""Pre-decoded threaded-code interpreter: decode once, execute closures.

A decode pass translates each :class:`~repro.isa.program.Function` into
arrays of per-instruction *handler closures* with every decode-time
constant already bound, so the machine's step is one closure call with
no ``isinstance`` chain, no per-step
:class:`~repro.isa.program.CodeLocation` allocation and no marker-table
probes:

* operand register names, immediates, and address offsets;
* the ALU/CMP callable for arithmetic/compare instructions;
* the precomputed :class:`CodeLocation` (for events and error messages);
* the marked-cond-load ``loop_id`` for instrumented ``Load`` sites;
* per-target exit-edge ``loop_id``s for ``Jmp``/``Br``;
* direct :class:`DecodedBlock` references for branch targets (classic
  threaded code — a taken branch swaps the handler array without any
  label lookup);
* whether the livelock watchdog is armed, so unarmed runs skip the
  ``_note_cond_read`` bookkeeping entirely instead of re-testing
  ``livelock_bound`` per marked load.

Fusion rules (all step-preserving — the scheduler still picks a thread
per instruction, so scheduler decisions, step counts, and the event
sequence are those of one-instruction-per-step execution):

1. **advance fusion** — the ``frame.index += 1`` is folded into every
   non-control handler (a ``Load`` and its advance are one closure);
2. **Cmp→Br flag forwarding** — when a ``Br``'s condition register is
   defined by the immediately preceding ``Cmp`` in the same block, the
   ``Cmp`` handler forwards the raw Python bool through ``frame.cond_flag``
   and the fused ``Br`` handler branches on it without the register-file
   round trip (the register is still written — program-visible state is
   unchanged);
3. **Const→Mov propagation** — a ``Mov`` whose source is the destination
   of the immediately preceding ``Const`` decodes to a constant store
   (``Const``/``Mov`` runs collapse to immediate writes).

Rules 2 and 3 are sound because a basic block is straight-line code with
a single entry at index 0: instruction *i+1* of a frame only ever
executes right after instruction *i* of the same frame, and no other
thread can touch this frame's registers in between.

Decoded programs are **content-keyed and cached**
(:func:`get_decoded_program`): the key is the program's
:meth:`~repro.isa.program.Program.fingerprint`, a canonical digest of
the instrumentation map's marker tables, and the watchdog-armed flag.
Two fresh builds of the same workload share one decoded program; the
same program under different marker tables (spin on vs off, different
``spin_max_blocks``) never shares marked-load flags.  The cache is
process-local; the parallel runner pre-warms it before forking so
workers inherit the decoded programs copy-on-write.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa import instructions as ins
from repro.isa.program import CodeLocation, Function, Program
from repro.vm import events as ev
from repro.vm.frames import ThreadStatus

#: handler signature: (machine, thread, frame) -> None
Handler = Callable[[object, object, object], None]


class DecodedBlock:
    """One basic block's handler array plus its marker metadata."""

    __slots__ = ("label", "handlers", "loop_id", "entry_loc")

    def __init__(self, label: str, loop_id: Optional[int], entry_loc: CodeLocation):
        self.label = label
        self.handlers: List[Handler] = []
        #: marked-loop id when this block is an instrumented loop header
        self.loop_id = loop_id
        #: location of index 0 (the MarkedLoopEnter event site)
        self.entry_loc = entry_loc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedBlock({self.label!r}, {len(self.handlers)} handlers)"


class DecodedProgram:
    """All of a program's functions decoded to threaded code."""

    __slots__ = ("key", "entries", "blocks", "livelock_armed", "stats")

    def __init__(self, key: str, livelock_armed: bool):
        self.key = key
        #: function name -> its entry DecodedBlock (frame construction)
        self.entries: Dict[str, DecodedBlock] = {}
        #: function name -> label -> DecodedBlock
        self.blocks: Dict[str, Dict[str, DecodedBlock]] = {}
        self.livelock_armed = livelock_armed
        #: decode statistics (handler/fusion counts) for tests and docs
        self.stats: Dict[str, int] = {
            "handlers": 0,
            "cmp_br_fused": 0,
            "const_mov_fused": 0,
            "marked_loads": 0,
            "exit_edges": 0,
        }


# ---------------------------------------------------------------------------
# Cache keying


def imap_decode_key(instrumentation: Optional[object]) -> str:
    """Canonical digest of an instrumentation map's marker tables.

    Only the tables the decoder consumes participate (``loop_headers``,
    ``cond_loads``, ``exit_edges``); two maps marking the same program
    points key identically regardless of how they were produced.
    """
    if instrumentation is None:
        return "imap:none"
    payload = repr(
        (
            sorted((k, v) for k, v in instrumentation.loop_headers.items()),
            sorted((str(k), v) for k, v in instrumentation.cond_loads.items()),
            sorted(
                ((str(loc), tgt), v)
                for (loc, tgt), v in instrumentation.exit_edges.items()
            ),
        )
    )
    return "imap:" + hashlib.sha256(payload.encode()).hexdigest()


def decode_key(
    program: Program,
    instrumentation: Optional[object] = None,
    livelock_armed: bool = False,
) -> str:
    """Content key of one decoded program.

    Includes the watchdog-armed flag: an armed decode bakes the
    ``_note_cond_read`` call into marked-load handlers, an unarmed one
    omits it, so the two must never share an entry.
    """
    return "|".join(
        (
            program.fingerprint(),
            imap_decode_key(instrumentation),
            f"watchdog={bool(livelock_armed)}",
        )
    )


# ---------------------------------------------------------------------------
# Handler factories


def _undef(loc: CodeLocation, exc: KeyError) -> None:
    """Re-raise a register-file KeyError as a MachineError."""
    from repro.vm.machine import MachineError

    raise MachineError(
        f"{loc}: read of undefined register {exc.args[0]!r}"
    ) from None


def _take_edge(m, t, f, label: str, dblock: DecodedBlock, lid: Optional[int], loc):
    """Transfer control to ``dblock``, honouring a marked exit edge."""
    if lid is not None:
        if not (m._skip_lib and t.lib_depth > 0):
            m._emit(
                ev.MarkedLoopExit(m.step_count, t.tid, lid, loc, t.lib_depth > 0)
            )
            # Marked-loop boundary: flush so the ad-hoc engine sees the
            # exit promptly.
            m.flush_events()
        # The loop made progress: reset its watchdog counter.
        m._spin_counts.pop((t.tid, lid), None)
    f.block = label
    f.index = 0
    f.code = dblock


def _decode_const(instr: ins.Const) -> Handler:
    dst, value = instr.dst, instr.value

    def h(m, t, f):
        f.regs[dst] = value
        f.index += 1

    return h


def _decode_mov(instr: ins.Mov, loc: CodeLocation, const_value: Optional[int]) -> Handler:
    dst, src = instr.dst, instr.src
    if const_value is not None:
        # Const→Mov fusion: the source register was written by the
        # immediately preceding Const, so its value is a decode-time
        # constant here.
        value = const_value

        def h(m, t, f):
            f.regs[dst] = value
            f.index += 1

        return h

    def h(m, t, f):
        regs = f.regs
        try:
            regs[dst] = regs[src]
        except KeyError as exc:
            _undef(loc, exc)
        f.index += 1

    return h


def _div(a: int, b: int, loc: CodeLocation) -> int:
    if b == 0:
        from repro.vm.machine import MachineError

        raise MachineError(f"{loc}: division by zero")
    return int(a / b) if (a < 0) != (b < 0) else a // b


def _mod(a: int, b: int, loc: CodeLocation) -> int:
    if b == 0:
        from repro.vm.machine import MachineError

        raise MachineError(f"{loc}: modulo by zero")
    return a - _div(a, b, loc) * b


_ALU_FUNCS = {
    ins.AluOp.ADD: lambda a, b, loc: a + b,
    ins.AluOp.SUB: lambda a, b, loc: a - b,
    ins.AluOp.MUL: lambda a, b, loc: a * b,
    ins.AluOp.DIV: _div,
    ins.AluOp.MOD: _mod,
    ins.AluOp.AND: lambda a, b, loc: a & b,
    ins.AluOp.OR: lambda a, b, loc: a | b,
    ins.AluOp.XOR: lambda a, b, loc: a ^ b,
    ins.AluOp.SHL: lambda a, b, loc: a << b,
    ins.AluOp.SHR: lambda a, b, loc: a >> b,
}

_CMP_FUNCS = {
    ins.CmpOp.EQ: lambda a, b: a == b,
    ins.CmpOp.NE: lambda a, b: a != b,
    ins.CmpOp.LT: lambda a, b: a < b,
    ins.CmpOp.LE: lambda a, b: a <= b,
    ins.CmpOp.GT: lambda a, b: a > b,
    ins.CmpOp.GE: lambda a, b: a >= b,
}


def _decode_alu(instr: ins.Alu, loc: CodeLocation) -> Handler:
    fn = _ALU_FUNCS[instr.op]
    dst, a, b = instr.dst, instr.a, instr.b

    def h(m, t, f):
        regs = f.regs
        try:
            va, vb = regs[a], regs[b]
        except KeyError as exc:
            _undef(loc, exc)
        regs[dst] = fn(va, vb, loc)
        f.index += 1

    return h


def _decode_cmp(instr: ins.Cmp, loc: CodeLocation, forward_flag: bool) -> Handler:
    fn = _CMP_FUNCS[instr.op]
    dst, a, b = instr.dst, instr.a, instr.b
    if forward_flag:
        # Cmp→Br fusion: stash the raw predicate for the fused Br that
        # immediately follows; the register is still written.
        def h(m, t, f):
            regs = f.regs
            try:
                va, vb = regs[a], regs[b]
            except KeyError as exc:
                _undef(loc, exc)
            res = fn(va, vb)
            f.cond_flag = res
            regs[dst] = 1 if res else 0
            f.index += 1

        return h

    def h(m, t, f):
        regs = f.regs
        try:
            va, vb = regs[a], regs[b]
        except KeyError as exc:
            _undef(loc, exc)
        regs[dst] = 1 if fn(va, vb) else 0
        f.index += 1

    return h


def _decode_not(instr: ins.Not, loc: CodeLocation) -> Handler:
    dst, src = instr.dst, instr.src

    def h(m, t, f):
        regs = f.regs
        try:
            v = regs[src]
        except KeyError as exc:
            _undef(loc, exc)
        regs[dst] = 1 if v == 0 else 0
        f.index += 1

    return h


def _decode_load(
    instr: ins.Load,
    loc: CodeLocation,
    cond_lid: Optional[int],
    livelock_armed: bool,
) -> Handler:
    dst, addr_reg, offset = instr.dst, instr.addr, instr.offset
    if cond_lid is None:
        # The common case: a plain load, no marker probe at all.
        def h(m, t, f):
            regs = f.regs
            try:
                base = regs[addr_reg]
            except KeyError as exc:
                _undef(loc, exc)
            addr = base + offset
            value = m.memory.load(addr)
            regs[dst] = value
            m._emit_read(t.tid, addr, value, loc, False, t.lib_depth > 0)
            f.index += 1

        return h

    lid = cond_lid
    if livelock_armed:

        def h(m, t, f):
            regs = f.regs
            try:
                base = regs[addr_reg]
            except KeyError as exc:
                _undef(loc, exc)
            addr = base + offset
            value = m.memory.load(addr)
            regs[dst] = value
            in_lib = t.lib_depth > 0
            if not (m._skip_lib and in_lib):
                m._emit(
                    ev.MarkedCondRead(
                        m.step_count, t.tid, lid, addr, value, loc, in_lib
                    )
                )
            # Watchdog armed at decode time: count the spin against the
            # decode-time loop id — no re-derivation from loc.
            m._note_cond_read(t.tid, lid, addr, value, loc)
            m._emit_read(t.tid, addr, value, loc, False, in_lib)
            f.index += 1

        return h

    def h(m, t, f):
        regs = f.regs
        try:
            base = regs[addr_reg]
        except KeyError as exc:
            _undef(loc, exc)
        addr = base + offset
        value = m.memory.load(addr)
        regs[dst] = value
        in_lib = t.lib_depth > 0
        if not (m._skip_lib and in_lib):
            m._emit(
                ev.MarkedCondRead(m.step_count, t.tid, lid, addr, value, loc, in_lib)
            )
        m._emit_read(t.tid, addr, value, loc, False, in_lib)
        f.index += 1

    return h


def _decode_store(instr: ins.Store, loc: CodeLocation) -> Handler:
    addr_reg, src, offset = instr.addr, instr.src, instr.offset

    def h(m, t, f):
        regs = f.regs
        try:
            addr = regs[addr_reg] + offset
            value = regs[src]
        except KeyError as exc:
            _undef(loc, exc)
        injector = m._injector
        if injector is None or (
            injector.intercept_store(m, t.tid, addr, value, loc, t.lib_depth > 0)
            is None
        ):
            m.memory.store(addr, value)
            m._emit_write(t.tid, addr, value, loc, False, t.lib_depth > 0)
        f.index += 1

    return h


def _decode_cas(instr: ins.AtomicCas, loc: CodeLocation) -> Handler:
    dst, addr_reg, exp_reg, new_reg, offset = (
        instr.dst,
        instr.addr,
        instr.expected,
        instr.new,
        instr.offset,
    )

    def h(m, t, f):
        regs = f.regs
        try:
            addr = regs[addr_reg] + offset
            expected = regs[exp_reg]
            new = regs[new_reg]
        except KeyError as exc:
            _undef(loc, exc)
        old = m.memory.load(addr)
        regs[dst] = old
        in_lib = t.lib_depth > 0
        m._emit_read(t.tid, addr, old, loc, True, in_lib)
        if old == expected:
            m.memory.store(addr, new)
            m._emit_write(t.tid, addr, new, loc, True, in_lib)
        f.index += 1

    return h


def _decode_atomic_add(instr: ins.AtomicAdd, loc: CodeLocation) -> Handler:
    dst, addr_reg, amount_reg, offset = (
        instr.dst,
        instr.addr,
        instr.amount,
        instr.offset,
    )

    def h(m, t, f):
        regs = f.regs
        try:
            addr = regs[addr_reg] + offset
            amount = regs[amount_reg]
        except KeyError as exc:
            _undef(loc, exc)
        old = m.memory.load(addr)
        regs[dst] = old
        m.memory.store(addr, old + amount)
        in_lib = t.lib_depth > 0
        m._emit_read(t.tid, addr, old, loc, True, in_lib)
        m._emit_write(t.tid, addr, old + amount, loc, True, in_lib)
        f.index += 1

    return h


def _decode_atomic_xchg(instr: ins.AtomicXchg, loc: CodeLocation) -> Handler:
    dst, addr_reg, src_reg, offset = instr.dst, instr.addr, instr.src, instr.offset

    def h(m, t, f):
        regs = f.regs
        try:
            addr = regs[addr_reg] + offset
            new = regs[src_reg]
        except KeyError as exc:
            _undef(loc, exc)
        old = m.memory.load(addr)
        regs[dst] = old
        m.memory.store(addr, new)
        in_lib = t.lib_depth > 0
        m._emit_read(t.tid, addr, old, loc, True, in_lib)
        m._emit_write(t.tid, addr, new, loc, True, in_lib)
        f.index += 1

    return h


def _advance_only() -> Handler:
    def h(m, t, f):
        f.index += 1

    return h


def _decode_jmp(
    target: str, dblock: DecodedBlock, lid: Optional[int], loc: CodeLocation
) -> Handler:
    if lid is None:
        # No marked exit edge: a taken jump is three attribute stores.
        def h(m, t, f):
            f.block = target
            f.index = 0
            f.code = dblock

        return h

    def h(m, t, f):
        _take_edge(m, t, f, target, dblock, lid, loc)

    return h


def _decode_br(
    instr: ins.Br,
    loc: CodeLocation,
    then_block: DecodedBlock,
    els_block: DecodedBlock,
    then_lid: Optional[int],
    els_lid: Optional[int],
    fused: bool,
) -> Handler:
    cond, then_label, els_label = instr.cond, instr.then, instr.els
    if fused:
        # Cmp→Br fusion: the predicate was forwarded through the frame by
        # the immediately preceding Cmp handler.
        def h(m, t, f):
            if f.cond_flag:
                _take_edge(m, t, f, then_label, then_block, then_lid, loc)
            else:
                _take_edge(m, t, f, els_label, els_block, els_lid, loc)

        return h

    def h(m, t, f):
        try:
            c = f.regs[cond]
        except KeyError as exc:
            _undef(loc, exc)
        if c:
            _take_edge(m, t, f, then_label, then_block, then_lid, loc)
        else:
            _take_edge(m, t, f, els_label, els_block, els_lid, loc)

    return h


def _decode_call(
    instr: ins.Call, loc: CodeLocation, func: Optional[Function]
) -> Handler:
    from repro.vm.machine import MachineError

    args_regs, dst, fname = instr.args, instr.dst, instr.func
    if func is None:
        # Unknown callee: an execution-time error, raised only if the
        # call actually runs.
        def h(m, t, f):
            raise MachineError(f"{loc}: call to unknown function {fname!r}")

        return h

    callee = func

    def h(m, t, f):
        regs = f.regs
        try:
            args = tuple(regs[a] for a in args_regs)
        except KeyError as exc:
            _undef(loc, exc)
        m._enter_function(t, callee, args, dst, loc)

    return h


def _decode_icall(instr: ins.ICall, loc: CodeLocation) -> Handler:
    from repro.vm.machine import MachineError

    target_reg, args_regs, dst = instr.target, instr.args, instr.dst

    def h(m, t, f):
        regs = f.regs
        try:
            target_addr = regs[target_reg]
        except KeyError as exc:
            _undef(loc, exc)
        name = m._addr_funcs.get(target_addr)
        if name is None:
            raise MachineError(
                f"{loc}: indirect call to non-function address {hex(target_addr)}"
            )
        func = m.program.functions[name]
        try:
            args = tuple(regs[a] for a in args_regs)
        except KeyError as exc:
            _undef(loc, exc)
        m._enter_function(t, func, args, dst, loc)

    return h


def _decode_ret(instr: ins.Ret, loc: CodeLocation) -> Handler:
    src = instr.src
    if not src:

        def h(m, t, f):
            m._return(t, None, loc)

        return h

    def h(m, t, f):
        try:
            value = f.regs[src]
        except KeyError as exc:
            _undef(loc, exc)
        m._return(t, value, loc)

    return h


def _decode_halt() -> Handler:
    def h(m, t, f):
        m._halted = True
        m._exit_thread(t, None)

    return h


def _decode_spawn(instr: ins.Spawn, loc: CodeLocation) -> Handler:
    dst, fname, args_regs = instr.dst, instr.func, instr.args

    def h(m, t, f):
        regs = f.regs
        try:
            args = tuple(regs[a] for a in args_regs)
        except KeyError as exc:
            _undef(loc, exc)
        child = m._spawn_thread(fname, args, parent=t.tid)
        regs[dst] = child
        m._emit(ev.ThreadSpawnEvent(m.step_count, t.tid, child, loc))
        f.index += 1

    return h


def _decode_join(instr: ins.Join, loc: CodeLocation) -> Handler:
    from repro.vm.machine import MachineError

    tid_reg = instr.tid

    def h(m, t, f):
        try:
            target = f.regs[tid_reg]
        except KeyError as exc:
            _undef(loc, exc)
        if target not in m.threads:
            raise MachineError(f"{loc}: join on unknown thread {target}")
        if m.threads[target].status is ThreadStatus.EXITED:
            m._emit(ev.ThreadJoinEvent(m.step_count, t.tid, target, loc))
            f.index += 1
        else:
            # Re-execute the join once woken: do not advance yet.
            t.status = ThreadStatus.BLOCKED_JOIN
            t.join_target = target
            m._runnable_dirty = True
            m._waiters.setdefault(target, []).append(t.tid)

    return h


def _decode_yield() -> Handler:
    def h(m, t, f):
        m.scheduler.on_yield(t.tid)
        f.index += 1

    return h


def _decode_alloc(instr: ins.Alloc, loc: CodeLocation) -> Handler:
    dst, size_reg = instr.dst, instr.size

    def h(m, t, f):
        regs = f.regs
        try:
            size = regs[size_reg]
        except KeyError as exc:
            _undef(loc, exc)
        regs[dst] = m.memory.alloc(size, loc)
        f.index += 1

    return h


def _decode_addr(instr: ins.Addr) -> Handler:
    dst, symbol = instr.dst, instr.symbol

    def h(m, t, f):
        # The global's address is per-machine (memory layout), so it is
        # resolved at run time — decoded programs are machine-agnostic.
        f.regs[dst] = m.memory.global_base(symbol)
        f.index += 1

    return h


def _decode_funcaddr(instr: ins.FuncAddr, loc: CodeLocation) -> Handler:
    from repro.vm.machine import MachineError

    dst, fname = instr.dst, instr.func

    def h(m, t, f):
        try:
            f.regs[dst] = m._func_addrs[fname]
        except KeyError:
            raise MachineError(f"{loc}: unknown function {fname!r}") from None
        f.index += 1

    return h


def _decode_print(instr: ins.Print, loc: CodeLocation) -> Handler:
    src = instr.src

    def h(m, t, f):
        try:
            value = f.regs[src]
        except KeyError as exc:
            _undef(loc, exc)
        m.outputs.append((t.tid, value))
        m._emit(ev.PrintEvent(m.step_count, t.tid, value, loc))
        f.index += 1

    return h


# ---------------------------------------------------------------------------
# The decoder


def decode_program(
    program: Program,
    instrumentation: Optional[object] = None,
    livelock_armed: bool = False,
    key: Optional[str] = None,
) -> DecodedProgram:
    """Decode ``program`` into threaded code (uncached; see
    :func:`get_decoded_program` for the content-keyed cache)."""
    loop_headers: Dict[Tuple[str, str], int] = {}
    cond_loads: Dict[CodeLocation, int] = {}
    exit_edges: Dict[Tuple[CodeLocation, str], int] = {}
    if instrumentation is not None:
        loop_headers = instrumentation.loop_headers
        cond_loads = instrumentation.cond_loads
        exit_edges = instrumentation.exit_edges

    if key is None:
        key = decode_key(program, instrumentation, livelock_armed)
    decoded = DecodedProgram(key, livelock_armed)
    stats = decoded.stats

    for fname, func in program.functions.items():
        # Pass 1: block shells, so branch handlers can bind their target
        # DecodedBlock objects directly.
        shells: Dict[str, DecodedBlock] = {}
        for label in func.blocks:
            shells[label] = DecodedBlock(
                label,
                loop_headers.get((fname, label)),
                CodeLocation(fname, label, 0),
            )
        # Pass 2: fill the handler arrays.
        for label, block in func.blocks.items():
            handlers = shells[label].handlers
            instrs = block.instructions
            n = len(instrs)
            for i, instr in enumerate(instrs):
                loc = CodeLocation(fname, label, i)
                nxt = instrs[i + 1] if i + 1 < n else None
                cls = type(instr)
                if cls is ins.Const:
                    handlers.append(_decode_const(instr))
                elif cls is ins.Mov:
                    prev = instrs[i - 1] if i > 0 else None
                    const_value = (
                        prev.value
                        if type(prev) is ins.Const and prev.dst == instr.src
                        else None
                    )
                    if const_value is not None:
                        stats["const_mov_fused"] += 1
                    handlers.append(_decode_mov(instr, loc, const_value))
                elif cls is ins.Alu:
                    handlers.append(_decode_alu(instr, loc))
                elif cls is ins.Cmp:
                    forward = type(nxt) is ins.Br and nxt.cond == instr.dst
                    if forward:
                        stats["cmp_br_fused"] += 1
                    handlers.append(_decode_cmp(instr, loc, forward))
                elif cls is ins.Not:
                    handlers.append(_decode_not(instr, loc))
                elif cls is ins.Load:
                    lid = cond_loads.get(loc)
                    if lid is not None:
                        stats["marked_loads"] += 1
                    handlers.append(_decode_load(instr, loc, lid, livelock_armed))
                elif cls is ins.Store:
                    handlers.append(_decode_store(instr, loc))
                elif cls is ins.AtomicCas:
                    handlers.append(_decode_cas(instr, loc))
                elif cls is ins.AtomicAdd:
                    handlers.append(_decode_atomic_add(instr, loc))
                elif cls is ins.AtomicXchg:
                    handlers.append(_decode_atomic_xchg(instr, loc))
                elif cls is ins.Fence or cls is ins.Nop:
                    handlers.append(_advance_only())
                elif cls is ins.Jmp:
                    lid = exit_edges.get((loc, instr.target))
                    if lid is not None:
                        stats["exit_edges"] += 1
                    handlers.append(
                        _decode_jmp(instr.target, shells[instr.target], lid, loc)
                    )
                elif cls is ins.Br:
                    prev = instrs[i - 1] if i > 0 else None
                    fused = type(prev) is ins.Cmp and prev.dst == instr.cond
                    then_lid = exit_edges.get((loc, instr.then))
                    els_lid = exit_edges.get((loc, instr.els))
                    if then_lid is not None:
                        stats["exit_edges"] += 1
                    if els_lid is not None:
                        stats["exit_edges"] += 1
                    handlers.append(
                        _decode_br(
                            instr,
                            loc,
                            shells[instr.then],
                            shells[instr.els],
                            then_lid,
                            els_lid,
                            fused,
                        )
                    )
                elif cls is ins.Call:
                    handlers.append(
                        _decode_call(instr, loc, program.functions.get(instr.func))
                    )
                elif cls is ins.ICall:
                    handlers.append(_decode_icall(instr, loc))
                elif cls is ins.Ret:
                    handlers.append(_decode_ret(instr, loc))
                elif cls is ins.Halt:
                    handlers.append(_decode_halt())
                elif cls is ins.Spawn:
                    handlers.append(_decode_spawn(instr, loc))
                elif cls is ins.Join:
                    handlers.append(_decode_join(instr, loc))
                elif cls is ins.Yield:
                    handlers.append(_decode_yield())
                elif cls is ins.Alloc:
                    handlers.append(_decode_alloc(instr, loc))
                elif cls is ins.Addr:
                    handlers.append(_decode_addr(instr))
                elif cls is ins.FuncAddr:
                    handlers.append(_decode_funcaddr(instr, loc))
                elif cls is ins.Print:
                    handlers.append(_decode_print(instr, loc))
                else:
                    # Unknown instruction class: an execution-time
                    # exhaustiveness guard.
                    handlers.append(_decode_unknown(instr, loc))
                stats["handlers"] += 1
        decoded.blocks[fname] = shells
        decoded.entries[fname] = shells[func.entry]
    return decoded


def _decode_unknown(instr: ins.Instruction, loc: CodeLocation) -> Handler:
    from repro.vm.machine import MachineError

    def h(m, t, f):  # pragma: no cover - exhaustiveness guard
        raise MachineError(f"{loc}: unhandled instruction {instr!r}")

    return h


# ---------------------------------------------------------------------------
# The decode cache


#: decoded-program cache: content key -> DecodedProgram, LRU-bounded
_CACHE: "OrderedDict[str, DecodedProgram]" = OrderedDict()
_CACHE_MAX = 256
_HITS = 0
_MISSES = 0


def get_decoded_program(
    program: Program,
    instrumentation: Optional[object] = None,
    livelock_armed: bool = False,
) -> DecodedProgram:
    """Content-keyed cached decode.

    Two :class:`Program` instances with the same fingerprint share one
    decoded program (handlers capture only content-identical Function
    objects and resolve machine state — memory layout, function-pointer
    table, injector — at run time, so reuse across machines is sound).
    Different marker tables or a different watchdog-armed flag miss.
    """
    global _HITS, _MISSES
    key = decode_key(program, instrumentation, livelock_armed)
    cached = _CACHE.get(key)
    if cached is not None:
        _HITS += 1
        _CACHE.move_to_end(key)
        return cached
    _MISSES += 1
    decoded = decode_program(program, instrumentation, livelock_armed, key=key)
    _CACHE[key] = decoded
    while len(_CACHE) > _CACHE_MAX:
        _CACHE.popitem(last=False)
    return decoded


def decode_cache_info() -> Dict[str, int]:
    """Cache statistics: entries, hits, misses (for tests and telemetry)."""
    return {"entries": len(_CACHE), "hits": _HITS, "misses": _MISSES}


def clear_decode_cache() -> None:
    """Drop every cached decoded program (tests; never required)."""
    global _HITS, _MISSES
    _CACHE.clear()
    _HITS = 0
    _MISSES = 0
