"""The workload abstraction: a program factory plus ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet

from repro.isa.program import Program


@dataclass(frozen=True)
class Workload:
    """A test program with ground truth, as used by the benchmark suites.

    :param name: unique identifier.
    :param build: factory returning a *fresh* program on every call;
        callers that mutate what they get (triage's ``apply_nops``) rely
        on it.  Runs only read a program — the instrumentation map is a
        separate, content-keyed object — so by-name runs share one
        read-only build instead
        (:func:`repro.harness.registry.shared_program`).
    :param racy_symbols: base names of globals with true data races.  An
        empty set means the program is race-free; any warning on another
        symbol is a false alarm.
    :param threads: worker thread count (suite metadata, 2–16 like
        data-race-test).
    :param category: generator family (``locks``, ``adhoc``, ``hard``...).
    :param description: one-line human description.
    :param seed: scheduler seed this case is scored with (dynamic
        detectors are schedule-sensitive by nature; a fixed seed makes the
        suite deterministic).
    :param max_steps: VM step budget (guards against lost-wakeup hangs).
    :param parallel_model: PARSEC metadata — the pretend parallelization
        library (POSIX / OpenMP / GLIB).
    :param sync_inventory: PARSEC metadata — which primitive families the
        program uses (``adhoc``, ``cvs``, ``locks``, ``barriers``).
    """

    name: str
    build: Callable[[], Program]
    racy_symbols: FrozenSet[str] = frozenset()
    threads: int = 2
    category: str = "misc"
    description: str = ""
    seed: int = 1
    max_steps: int = 400_000
    parallel_model: str = "POSIX"
    sync_inventory: FrozenSet[str] = frozenset()

    @property
    def is_racy(self) -> bool:
        return bool(self.racy_symbols)

    def fresh_program(self) -> Program:
        """A new, mutable build of the program (one ``build()`` call)."""
        return self.build()
