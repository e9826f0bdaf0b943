"""Name → :class:`Workload` resolution across every benchmark family.

The parallel runner ships run specifications between processes, and a
:class:`~repro.harness.workload.Workload` carries an arbitrary ``build``
callable — often a closure — that does not survive pickling.  The
registry solves both problems: specs can name workloads by string, and a
pickled :class:`~repro.session.SessionResult` swaps the callable for
a :class:`RegistryBuild` reference that re-resolves lazily on load.

Built-in families (the 120-case suite, the 13 PARSEC stand-ins, the four
SPLASH-2 stand-ins) are indexed lazily on first lookup; ad-hoc workloads
(tests, user experiments) can be added with :func:`register_workload`.

Each registered name is also built at most once per process:
:func:`shared_program` memoizes one read-only build per name, which
cache keys, trace keys, sweep cells and ``repro.run`` by name all share
(sweep workers inherit the parent's builds by fork).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.harness.workload import Workload
from repro.isa.program import Program

#: explicitly registered workloads; they shadow the built-in families
_EXTRA: Dict[str, Workload] = {}
_BUILTIN: Optional[Dict[str, Workload]] = None
#: name → shared read-only program memo; workload builds are
#: deterministic (the result-cache contract), so one build of a
#: registered name serves every run until the name is re-registered.
_PROGRAMS: Dict[str, Program] = {}


def _builtin_index() -> Dict[str, Workload]:
    global _BUILTIN
    if _BUILTIN is None:
        # Imported lazily: the workload packages import repro.harness,
        # so a module-level import here would be circular.
        from repro.workloads import (
            build_suite,
            chaos_workloads,
            parsec_workloads,
            splash_workloads,
        )

        index: Dict[str, Workload] = {}
        for wl in [
            *build_suite(),
            *parsec_workloads(),
            *splash_workloads(),
            *chaos_workloads(),
        ]:
            if wl.name in index:
                raise ValueError(f"duplicate built-in workload name {wl.name!r}")
            index[wl.name] = wl
        _BUILTIN = index
    return _BUILTIN


def register_workload(workload: Workload, replace: bool = False) -> Workload:
    """Make ``workload`` resolvable by name (shadows built-ins)."""
    if not replace and workload.name in _EXTRA:
        raise ValueError(f"workload {workload.name!r} already registered")
    _EXTRA[workload.name] = workload
    _PROGRAMS.pop(workload.name, None)
    return workload


def unregister_workload(name: str) -> None:
    _EXTRA.pop(name, None)
    _PROGRAMS.pop(name, None)


def shared_program(name: str) -> Program:
    """The named workload's program, built once per process and frozen.

    Every path that runs or records a workload *by name* — sweep cells,
    static prewarm, trace recording, ``repro.run("name")`` — executes
    this one object, so a sweep builds and hashes each program once in
    the parent and forked workers inherit it.  It is read-only
    (:meth:`~repro.isa.program.Program.freeze`); callers that mutate a
    program (triage shrinking) use ``Workload.fresh_program``.  The memo
    is dropped when the name is (re-)registered or unregistered.
    """
    program = _PROGRAMS.get(name)
    if program is None:
        program = resolve_workload(name).fresh_program().freeze()
        _PROGRAMS[name] = program
    return program


def program_fingerprint(name: str) -> str:
    """Fingerprint of the named workload's program.

    The fingerprint of :func:`shared_program` — memoized on that
    program, so cache and trace keys cost one build + hash per distinct
    name, and the run that follows reuses both.
    """
    return shared_program(name).fingerprint()


def resolve_workload(name: str) -> Workload:
    """Look up a workload by unique name; raises ``KeyError`` if unknown."""
    if name in _EXTRA:
        return _EXTRA[name]
    index = _builtin_index()
    if name in index:
        return index[name]
    raise KeyError(
        f"unknown workload {name!r}; register it with "
        f"repro.harness.registry.register_workload()"
    )


def workload_names() -> List[str]:
    """All resolvable names, extras first, in deterministic order."""
    names = list(_EXTRA)
    names += [n for n in _builtin_index() if n not in _EXTRA]
    return names


def resolve_tool(name_or_config):
    """Resolve a tool by preset name; :class:`ToolConfig` passes through.

    Thin delegation to :meth:`repro.detectors.ToolConfig.preset` so that
    harness entry points (CLI, chaos, sweeps) share one string→config
    mapping instead of growing their own.
    """
    from repro.detectors import ToolConfig

    if isinstance(name_or_config, str):
        return ToolConfig.preset(name_or_config)
    return name_or_config


def tool_names() -> List[str]:
    """The registered tool preset names."""
    from repro.detectors import ToolConfig

    return list(ToolConfig.presets())


# ---------------------------------------------------------------------------
# Scheduler specs
# ---------------------------------------------------------------------------
#
# Specs are canonical strings (``"random"``, ``"round-robin:penalty=4"``,
# ``"adversarial:burst=12"``) so they survive pickling, hash into cache
# keys, and round-trip through trace JSON.  The run seed is supplied
# separately at build time — a spec names a scheduling *policy*, not one
# concrete interleaving.

#: scheduler kind → the integer parameters its spec accepts
_SCHEDULER_KINDS: Dict[str, Tuple[str, ...]] = {
    "random": ("penalty",),
    "round-robin": ("penalty",),
    "adversarial": ("burst",),
}

DEFAULT_SCHEDULER = "random"


def canonical_scheduler(spec: Optional[str] = None) -> str:
    """Normalize a scheduler spec string; ``None`` means the default.

    The canonical form is ``kind`` or ``kind:key=value,...`` with the
    parameters sorted by name, so two spellings of the same policy hash
    to the same cache/trace key.  Raises ``ValueError`` for unknown
    kinds or parameters, and for values the scheduler would reject
    (``penalty < 0``, ``burst < 2``) — before they reach a key.
    """
    if spec is None or spec == "":
        return DEFAULT_SCHEDULER
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in _SCHEDULER_KINDS:
        raise ValueError(
            f"unknown scheduler {kind!r}; expected one of "
            f"{sorted(_SCHEDULER_KINDS)}"
        )
    allowed = _SCHEDULER_KINDS[kind]
    params: Dict[str, int] = {}
    if rest.strip():
        from repro.vm.scheduler import check_param

        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in allowed:
                raise ValueError(
                    f"scheduler {kind!r} does not accept parameter {key!r}; "
                    f"allowed: {sorted(allowed)}"
                )
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"scheduler parameter {key}={value.strip()!r} is not an "
                    f"integer"
                ) from None
            check_param(key, params[key])
    if not params:
        return kind
    args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{kind}:{args}"


def build_scheduler(spec: Optional[str], seed: int):
    """Construct the scheduler a canonical spec describes.

    ``None`` builds the historical default, ``RandomScheduler(seed)``,
    so every pre-spec call site keeps its exact behavior (and its cache
    keys).  Seeded kinds take ``seed``; unseeded kinds ignore it.
    """
    from repro.vm.scheduler import (
        AdversarialScheduler,
        RandomScheduler,
        RoundRobinScheduler,
    )

    spec = canonical_scheduler(spec)
    kind, _, rest = spec.partition(":")
    params: Dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            params[key] = int(value)
    if kind == "random":
        return RandomScheduler(seed, **params)
    if kind == "round-robin":
        return RoundRobinScheduler(**params)
    if kind == "adversarial":
        return AdversarialScheduler(seed, **params)
    raise ValueError(f"unknown scheduler {kind!r}")  # pragma: no cover


class RegistryBuild:
    """A picklable stand-in for a workload's ``build`` callable.

    Calling it resolves the workload by name at call time, so unpickled
    outcomes stay usable in any process that can resolve the name.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __call__(self):
        return resolve_workload(self.name).fresh_program()

    def __reduce__(self):
        return (RegistryBuild, (self.name,))

    def __repr__(self) -> str:
        return f"RegistryBuild({self.name!r})"
