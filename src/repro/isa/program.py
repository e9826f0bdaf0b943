"""Program, function, and basic-block containers.

A :class:`Program` is the unit the VM loads and the instrumentation phase
analyses.  Functions may carry a :class:`SyncAnnotation` describing their
library semantics (e.g. "this is ``mutex_lock`` and argument 0 is the lock
object").  The annotation plays the role of the pthread-interception
tables in Helgrind+: the ``lib`` tool configurations honour it, the
``nolib`` (universal detector) configurations ignore it entirely.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.isa.instructions import Instruction


class SyncKind(enum.Enum):
    """Semantic classification of an annotated library function.

    The values mirror the synchronization operations the paper's
    happens-before analysis understands (slide 5 and slide 11).
    """

    LOCK_ACQUIRE = "lock_acquire"
    LOCK_RELEASE = "lock_release"
    CV_SIGNAL = "cv_signal"
    CV_BROADCAST = "cv_broadcast"
    CV_WAIT = "cv_wait"
    BARRIER_WAIT = "barrier_wait"
    SEM_POST = "sem_post"
    SEM_WAIT = "sem_wait"
    # Initialization entry points are intercepted so that lib-mode hides
    # their internal memory traffic, but they induce no hb edges.
    SYNC_INIT = "sync_init"


@dataclass(frozen=True)
class SyncAnnotation:
    """Marks a function as a known library synchronization primitive.

    :param kind: which primitive this function implements.
    :param obj_arg: index of the parameter holding the sync object's
        address; the detector uses the runtime value of that parameter as
        the identity of the lock / condvar / barrier / semaphore.
    :param mutex_arg: for ``CV_WAIT``, the index of the parameter holding
        the mutex that the wait releases and reacquires (pthread-style
        ``cond_wait(cv, mutex)`` semantics need both objects).
    """

    kind: SyncKind
    obj_arg: int = 0
    mutex_arg: Optional[int] = None


@dataclass(frozen=True)
class CodeLocation:
    """A static program point: function, block label, instruction index."""

    function: str
    block: str
    index: int

    def __str__(self) -> str:
        return f"{self.function}:{self.block}:{self.index}"


@dataclass
class BasicBlock:
    """A labelled straight-line run of instructions ending in a terminator."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction:
        if not self.instructions:
            raise ValueError(f"block {self.label!r} is empty")
        return self.instructions[-1]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class Function:
    """A named function: parameter registers plus an ordered block map."""

    name: str
    params: Tuple[str, ...] = ()
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    annotation: Optional[SyncAnnotation] = None
    #: True for functions belonging to the threading library; lets the
    #: lib-mode interceptor hide *all* library-internal memory traffic,
    #: the way Valgrind tools treat intercepted pthread internals.
    is_library: bool = False

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise ValueError(f"duplicate block label {block.label!r} in {self.name!r}")
        self.blocks[block.label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    @property
    def entry_block(self) -> BasicBlock:
        return self.blocks[self.entry]

    def locations(self) -> Iterator[Tuple[CodeLocation, Instruction]]:
        """Iterate all (location, instruction) pairs in block order."""
        for label, block in self.blocks.items():
            for i, instr in enumerate(block.instructions):
                yield CodeLocation(self.name, label, i), instr

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks.values())


@dataclass(frozen=True)
class GlobalVar:
    """A named global memory region of ``size`` words.

    ``init`` provides initial word values (zero-filled to ``size``).
    """

    name: str
    size: int = 1
    init: Tuple[int, ...] = ()

    def initial_words(self) -> Tuple[int, ...]:
        words = list(self.init[: self.size])
        words.extend(0 for _ in range(self.size - len(words)))
        return tuple(words)


@dataclass
class Program:
    """A complete loadable program: functions + globals + an entry point."""

    functions: Dict[str, Function] = field(default_factory=dict)
    globals: Dict[str, GlobalVar] = field(default_factory=dict)
    entry: str = "main"
    name: str = "program"
    #: memoized :meth:`fingerprint`; every structural mutation clears it
    _fingerprint: Optional[str] = field(
        default=None, repr=False, compare=False
    )
    #: set by :meth:`freeze`; a read-only program refuses mutation
    _read_only: bool = field(default=False, repr=False, compare=False)

    def freeze(self) -> "Program":
        """Mark this program read-only and return it.

        The workload registry freezes the one build of each name it
        shares between every run in a process (and, by fork, with every
        sweep worker).  :meth:`add_function`, :meth:`add_global` (and so
        :meth:`merge`) then raise, as does
        :func:`repro.harness.triage.apply_nops`; build a fresh program
        (``Workload.fresh_program``) to modify one.
        """
        self._read_only = True
        return self

    def _will_mutate(self) -> None:
        """Raise ``ValueError`` if the program is read-only; otherwise
        drop the fingerprint memo ahead of a structural mutation."""
        if self._read_only:
            raise ValueError(
                f"program {self.name!r} is a shared read-only build; "
                f"mutate a fresh build instead"
            )
        self._fingerprint = None

    def add_function(self, func: Function) -> Function:
        self._will_mutate()
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, var: GlobalVar) -> GlobalVar:
        self._will_mutate()
        if var.name in self.globals:
            raise ValueError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def function(self, name: str) -> Function:
        return self.functions[name]

    def instruction_count(self) -> int:
        """Total static instructions — the stand-in for the paper's LOC column."""
        return sum(f.instruction_count() for f in self.functions.values())

    def merge(self, other: "Program") -> None:
        """Link another module (e.g. the threading library) into this one.

        Symbols must not collide; the entry point of ``self`` is kept.
        """
        for func in other.functions.values():
            self.add_function(func)
        for var in other.globals.values():
            self.add_global(var)

    def instruction_at(self, loc: CodeLocation) -> Instruction:
        return self.functions[loc.function].blocks[loc.block].instructions[loc.index]

    def fingerprint(self) -> str:
        """Stable content hash of the whole program (hex sha256).

        Two programs with identical functions, blocks, instructions,
        globals, and entry point hash identically regardless of build
        order or process (instructions are immutable dataclasses with
        deterministic reprs).  The experiment result cache keys on this,
        so a workload generator change transparently invalidates every
        cached run of that workload.

        Memoized: the decode cache keys every Machine construction on
        this, so re-hashing per run would eat the decode win.  The memo
        is cleared by :meth:`add_function` / :meth:`add_global` (and so
        by :meth:`merge`); mutating instruction lists of an already-added
        function in place is not supported by any builder and would go
        unnoticed here (:func:`repro.harness.triage.apply_nops` clears
        it itself).

        The digest is that of the text ``repr(instr)`` builds per
        instruction.  Each dataclass ``__repr__`` is called through its
        ``__wrapped__`` function where it has one, skipping the
        recursion guard (instructions hold only strings, ints, enums
        and tuples of those, so it never fires), and the text is hashed
        in one update.
        """
        if self._fingerprint is not None:
            return self._fingerprint
        parts = [f"program|{self.name}|{self.entry}\n"]
        for gname in sorted(self.globals):
            g = self.globals[gname]
            parts.append(f"global|{g.name}|{g.size}|{g.init!r}\n")
        reprs = _INSTR_REPRS
        for fname in sorted(self.functions):
            f = self.functions[fname]
            parts.append(
                f"function|{f.name}|{f.params!r}|{f.entry}"
                f"|{f.is_library}|{f.annotation!r}\n"
            )
            for label, block in f.blocks.items():
                parts.append(f"block|{label}\n")
                for instr in block.instructions:
                    cls = type(instr)
                    rep = reprs.get(cls)
                    if rep is None:
                        rep = reprs[cls] = getattr(cls.__repr__, "__wrapped__", cls.__repr__)
                    parts.append(rep(instr))
                    parts.append("\n")
        self._fingerprint = hashlib.sha256("".join(parts).encode()).hexdigest()
        return self._fingerprint


#: instruction class -> its ``__repr__`` without the dataclass recursion
#: guard (the guard's thread-id set bookkeeping dominated fingerprinting)
_INSTR_REPRS: Dict[type, Callable[[Instruction], str]] = {}
