"""Unit tests for program/function/block containers."""

import hashlib

import pytest

from repro.harness.registry import resolve_workload, workload_names
from repro.isa import instructions as ins
from repro.isa.program import (
    BasicBlock,
    CodeLocation,
    Function,
    GlobalVar,
    Program,
    SyncAnnotation,
    SyncKind,
)
from repro.workloads import (
    build_suite,
    chaos_workloads,
    parsec_workloads,
    splash_workloads,
)


class TestBasicBlock:
    def test_terminator_of_empty_block_raises(self):
        with pytest.raises(ValueError):
            BasicBlock("b").terminator

    def test_terminator_returns_last(self):
        b = BasicBlock("b", [ins.Nop(), ins.Ret(None)])
        assert isinstance(b.terminator, ins.Ret)

    def test_len_and_iter(self):
        b = BasicBlock("b", [ins.Nop(), ins.Nop(), ins.Ret(None)])
        assert len(b) == 3
        assert len(list(b)) == 3


class TestFunction:
    def test_duplicate_block_rejected(self):
        f = Function("f")
        f.add_block(BasicBlock("entry"))
        with pytest.raises(ValueError):
            f.add_block(BasicBlock("entry"))

    def test_locations_iterates_in_order(self):
        f = Function("f")
        f.add_block(BasicBlock("entry", [ins.Nop(), ins.Ret(None)]))
        locs = list(f.locations())
        assert locs[0][0] == CodeLocation("f", "entry", 0)
        assert locs[1][0] == CodeLocation("f", "entry", 1)

    def test_instruction_count(self):
        f = Function("f")
        f.add_block(BasicBlock("entry", [ins.Nop(), ins.Ret(None)]))
        f.add_block(BasicBlock("other", [ins.Halt()]))
        assert f.instruction_count() == 3


class TestGlobalVar:
    def test_initial_words_zero_filled(self):
        g = GlobalVar("g", size=4, init=(7,))
        assert g.initial_words() == (7, 0, 0, 0)

    def test_initial_words_truncated_to_size(self):
        g = GlobalVar("g", size=2, init=(1, 2, 3))
        assert g.initial_words() == (1, 2)


class TestProgram:
    def _func(self, name: str) -> Function:
        f = Function(name)
        f.add_block(BasicBlock("entry", [ins.Ret(None)]))
        return f

    def test_duplicate_function_rejected(self):
        p = Program()
        p.add_function(self._func("f"))
        with pytest.raises(ValueError):
            p.add_function(self._func("f"))

    def test_duplicate_global_rejected(self):
        p = Program()
        p.add_global(GlobalVar("g"))
        with pytest.raises(ValueError):
            p.add_global(GlobalVar("g"))

    def test_merge_links_functions_and_globals(self):
        a = Program()
        a.add_function(self._func("main"))
        b = Program()
        b.add_function(self._func("helper"))
        b.add_global(GlobalVar("g"))
        a.merge(b)
        assert "helper" in a.functions
        assert "g" in a.globals
        assert a.entry == "main"

    def test_merge_collision_raises(self):
        a = Program()
        a.add_function(self._func("f"))
        b = Program()
        b.add_function(self._func("f"))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_instruction_at(self):
        p = Program()
        p.add_function(self._func("f"))
        instr = p.instruction_at(CodeLocation("f", "entry", 0))
        assert isinstance(instr, ins.Ret)

    def test_instruction_count_sums_functions(self):
        p = Program()
        p.add_function(self._func("a"))
        p.add_function(self._func("b"))
        assert p.instruction_count() == 2

    def test_frozen_program_refuses_mutation(self):
        p = Program()
        p.add_function(self._func("main"))
        p.add_global(GlobalVar("g"))
        fp = p.fingerprint()
        assert p.freeze() is p
        with pytest.raises(ValueError, match="read-only"):
            p.add_function(self._func("f"))
        with pytest.raises(ValueError, match="read-only"):
            p.add_global(GlobalVar("h"))
        other = Program()
        other.add_function(self._func("helper"))
        with pytest.raises(ValueError, match="read-only"):
            p.merge(other)
        assert set(p.functions) == {"main"} and set(p.globals) == {"g"}
        assert p.fingerprint() == fp


def _reference_fingerprint(program: Program) -> str:
    """The fingerprint as first defined: one sha256 update per line,
    instructions rendered by plain ``repr``."""
    h = hashlib.sha256()
    h.update(f"program|{program.name}|{program.entry}\n".encode())
    for gname in sorted(program.globals):
        g = program.globals[gname]
        h.update(f"global|{g.name}|{g.size}|{g.init!r}\n".encode())
    for fname in sorted(program.functions):
        f = program.functions[fname]
        h.update(
            f"function|{f.name}|{f.params!r}|{f.entry}"
            f"|{f.is_library}|{f.annotation!r}\n".encode()
        )
        for label, block in f.blocks.items():
            h.update(f"block|{label}\n".encode())
            for instr in block.instructions:
                h.update(repr(instr).encode())
                h.update(b"\n")
    return h.hexdigest()


class TestFingerprintOracle:
    def test_every_registry_program_matches_the_plain_repr_digest(self):
        names = workload_names()
        families = {
            "suite": {wl.name for wl in build_suite()},
            "parsec": {wl.name for wl in parsec_workloads()},
            "splash": {wl.name for wl in splash_workloads()},
            "chaos": {wl.name for wl in chaos_workloads()},
        }
        for family, members in families.items():
            assert members and members <= set(names), family
        for name in names:
            program = resolve_workload(name).fresh_program()
            assert program.fingerprint() == _reference_fingerprint(program), name

    def test_every_instruction_kind_matches_the_plain_repr_digest(self):
        kinds = [
            ins.Const("r", -3), ins.Mov("a", "b"),
            ins.Alu(ins.AluOp.ADD, "d", "a", "b"),
            ins.Cmp(ins.CmpOp.LE, "d", "a", "b"), ins.Not("d", "s"),
            ins.Load("d", "a", 2), ins.Store("s", "a"),
            ins.AtomicCas("d", "a", "e", "n"), ins.AtomicAdd("d", "a", "v"),
            ins.AtomicXchg("d", "a", "v"), ins.Fence(), ins.Jmp("t"),
            ins.Br("c", "t", "f"), ins.Call("fn", ("a", "b"), "d"),
            ins.ICall("r", ("a",), None), ins.Ret("r"), ins.Halt(),
            ins.Spawn("d", "fn", ("a",)), ins.Join("t"), ins.Yield(),
            ins.Alloc("d", "n"), ins.Addr("d", "g"), ins.FuncAddr("d", "fn"),
            ins.Print("r"), ins.Nop(),
        ]
        assert {type(k) for k in kinds} == set(ins.Instruction.__subclasses__())
        p = Program(name="kinds")
        f = Function("main")
        f.add_block(BasicBlock("entry", kinds))
        p.add_function(f)
        p.add_global(GlobalVar("g", 2, (1, 2)))
        assert p.fingerprint() == _reference_fingerprint(p)


class TestSyncAnnotation:
    def test_cv_wait_carries_mutex_arg(self):
        ann = SyncAnnotation(SyncKind.CV_WAIT, obj_arg=0, mutex_arg=1)
        assert ann.mutex_arg == 1

    def test_default_has_no_mutex_arg(self):
        assert SyncAnnotation(SyncKind.LOCK_ACQUIRE).mutex_arg is None


class TestCodeLocation:
    def test_str_format(self):
        assert str(CodeLocation("f", "b", 3)) == "f:b:3"

    def test_hashable_and_equal(self):
        assert CodeLocation("f", "b", 0) == CodeLocation("f", "b", 0)
        assert len({CodeLocation("f", "b", 0), CodeLocation("f", "b", 0)}) == 1
