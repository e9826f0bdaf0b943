"""Shared building blocks for the PARSEC stand-in programs.

Each program is a synthetic kernel with the *synchronization structure*
of its PARSEC namesake (slide 26's inventory: which of ad-hoc / condition
variables / locks / barriers it uses) and enough compute and shared state
to produce racy-context counts of the right order of magnitude under the
four tool configurations.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.isa import instructions as ins
from repro.isa.builder import FunctionBuilder, ProgramBuilder


def adhoc_publish(fb: FunctionBuilder, flag: str, value: int = 1) -> None:
    """Counterpart write: raise an ad-hoc flag."""
    fb.store_global(flag, value)


def adhoc_spin(fb: FunctionBuilder, flag: str, expect: int = 1) -> None:
    """Canonical 2-block spinning read loop on a global flag."""
    f = fb.addr(flag)
    head = fb.fresh_label("spin_head")
    body = fb.fresh_label("spin_body")
    after = fb.fresh_label("spin_after")
    fb.jmp(head)
    fb.label(head)
    v = fb.load(f)
    ok = fb.eq(v, expect)
    fb.br(ok, after, body)
    fb.label(body)
    fb.yield_()
    fb.jmp(head)
    fb.label(after)


def adhoc_spin_ge(fb: FunctionBuilder, flag: str, threshold: int) -> None:
    """Spin until ``flag >= threshold``."""
    f = fb.addr(flag)
    head = fb.fresh_label("spin_head")
    body = fb.fresh_label("spin_body")
    after = fb.fresh_label("spin_after")
    fb.jmp(head)
    fb.label(head)
    v = fb.load(f)
    ok = fb.ge(v, threshold)
    fb.br(ok, after, body)
    fb.label(body)
    fb.yield_()
    fb.jmp(head)
    fb.label(after)


def declare_scalars(pb: ProgramBuilder, prefix: str, count: int) -> List[str]:
    """Declare ``count`` one-word globals ``PREFIX_00 .. PREFIX_NN``."""
    names = [f"{prefix}_{i:02d}" for i in range(count)]
    for n in names:
        pb.global_(n, 1)
    return names


def publish_scalars(fb: FunctionBuilder, names: Sequence[str], base_value: int = 100) -> None:
    """Unrolled stores: one distinct write site per scalar."""
    for k, n in enumerate(names):
        fb.store_global(n, base_value + k)


def read_scalars(fb: FunctionBuilder, names: Sequence[str], passes: int = 1) -> str:
    """``passes`` unrolled read sweeps — each pass is a distinct load site
    per scalar, so a single-writer scalar contributes ``passes`` racy
    contexts when unsynchronized."""
    s = fb.reg("sum")
    fb.emit(ins.Const(s, 0))
    for _ in range(passes):
        for n in names:
            fb.emit(ins.Mov(s, fb.add(s, fb.load_global(n))))
    return s


def funcptr_spin(pb: ProgramBuilder, fb: FunctionBuilder, helper_name: str, flag: str) -> None:
    """Spin loop whose condition is evaluated through a function pointer
    (defeats spin detection — bodytrack / x264 style)."""
    if helper_name not in pb.program.functions:
        h = pb.function(helper_name, params=("flag",))
        v = h.load("flag")
        r = h.ne(v, 0)
        h.ret(r)
    f = fb.addr(flag)
    fp = fb.func_addr(helper_name)
    head = fb.fresh_label("fp_head")
    body = fb.fresh_label("fp_body")
    after = fb.fresh_label("fp_after")
    fb.jmp(head)
    fb.label(head)
    r = fb.icall(fp, [f], want_result=True)
    fb.br(r, after, body)
    fb.label(body)
    fb.yield_()
    fb.jmp(head)
    fb.label(after)
