"""Resource governance: budgets, RSS sampling, and I/O retry policy.

Long sweeps die three ways in practice: a worker balloons past physical
memory and the kernel OOM-kills the whole process group, the result
cache / trace store fills the disk mid-sweep, or an unattended run
simply overstays its window.  This module centralizes the knobs that
prevent all three:

* :class:`ResourceBudget` — a frozen bundle of per-worker RSS cap, disk
  quota (applied to the result cache and the trace store), and sweep
  wall-clock budget, parsed from human sizes (``"256m"``, ``"2g"``);
* :func:`current_rss_bytes` / :func:`peak_rss_bytes` — dependency-free
  self-sampling (``/proc/self/statm`` when available, ``getrusage``
  high-water otherwise) that worker heartbeats piggyback on;
* :func:`retry_io` — bounded retries with deterministic jittered
  backoff for transient filesystem errors (defined in
  :mod:`repro.durable`, whose stores use it).

Everything degrades instead of failing: over-budget workers are
preempted and retried once in degraded mode, over-quota stores
evict LRU entries, a full disk turns the cache off with a structured
note — a governed sweep finishes with honest records, it never crashes.
"""

from __future__ import annotations

import os
import resource
import sys
from dataclasses import dataclass
from typing import Optional, Union

from repro.durable import retry_io

__all__ = [
    "PressureReport",
    "ResourceBudget",
    "assess_pressure",
    "current_rss_bytes",
    "parse_size",
    "peak_rss_bytes",
    "retry_io",
    "test_ballast_bytes",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_bytes() -> int:
    """This process's resident set size right now, in bytes.

    Reads ``/proc/self/statm`` (Linux; second field is resident pages).
    Where procfs is unavailable, falls back to the ``getrusage``
    high-water mark — monotone rather than instantaneous, which is the
    conservative direction for budget enforcement.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return peak_rss_bytes()


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes (high-water mark)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


_UNITS = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_size(text: Union[str, int, None]) -> Optional[int]:
    """Parse a human byte size (``"256m"``, ``"2g"``, ``"1048576"``).

    Accepts a bare int (passed through), ``None`` (no limit), and an
    optional trailing ``b`` (``"256mb"``).  Raises ``ValueError`` on
    anything else — a silently misparsed budget is worse than no budget.
    """
    if text is None or isinstance(text, int):
        return text
    s = text.strip().lower().rstrip("b")
    if not s:
        raise ValueError(f"empty size {text!r}")
    if s[-1] in _UNITS:
        mult, s = _UNITS[s[-1]], s[:-1]
    else:
        mult = 1
    try:
        value = float(s)
    except ValueError:
        raise ValueError(f"cannot parse size {text!r}") from None
    if value < 0:
        raise ValueError(f"negative size {text!r}")
    return int(value * mult)


@dataclass(frozen=True)
class ResourceBudget:
    """Resource envelope one sweep (or session) must stay inside.

    All fields optional — ``None`` means ungoverned, so the zero-value
    budget is exactly today's behavior.  ``max_rss_bytes`` is enforced
    per *worker* against its self-sampled heartbeat RSS;
    ``disk_quota_bytes`` is enforced independently by the result cache
    and the trace store (each may hold up to the quota);
    ``wall_budget_s`` stops a sweep from dispatching new work past the
    budget — already-running workers finish, undispatched specs are
    recorded with the structured ``"wall-budget"`` status.
    """

    max_rss_bytes: Optional[int] = None
    disk_quota_bytes: Optional[int] = None
    wall_budget_s: Optional[float] = None

    @classmethod
    def of(
        cls,
        mem_budget: Union[str, int, None] = None,
        disk_quota: Union[str, int, None] = None,
        wall_budget_s: Optional[float] = None,
    ) -> "ResourceBudget":
        """Build from human-readable sizes (the CLI entry point)."""
        return cls(
            max_rss_bytes=parse_size(mem_budget),
            disk_quota_bytes=parse_size(disk_quota),
            wall_budget_s=wall_budget_s,
        )

    @property
    def governed(self) -> bool:
        return (
            self.max_rss_bytes is not None
            or self.disk_quota_bytes is not None
            or self.wall_budget_s is not None
        )


@dataclass(frozen=True)
class PressureReport:
    """One resource-pressure sample against a :class:`ResourceBudget`.

    ``level`` is ``"ok"`` (inside the budget), ``"degraded"`` (past the
    degrade watermark — callers should shift to streaming/low-memory
    modes), or ``"critical"`` (past the shed watermark — callers should
    shed load).  Fractions are ``None`` when the corresponding budget
    axis is ungoverned.
    """

    level: str
    rss_bytes: int
    rss_frac: Optional[float]
    disk_bytes: int
    disk_frac: Optional[float]

    @property
    def degraded(self) -> bool:
        return self.level != "ok"

    @property
    def critical(self) -> bool:
        return self.level == "critical"


def assess_pressure(
    budget: Optional[ResourceBudget],
    disk_bytes: int = 0,
    degrade_at: float = 0.75,
    shed_at: float = 0.92,
    rss_bytes: Optional[int] = None,
) -> PressureReport:
    """Grade current memory/disk usage against ``budget``.

    The analysis-service daemon samples this between scheduling ticks:
    ``degraded`` downgrades new work to streaming replay, ``critical``
    sheds queued load tenant-fairly.  ``disk_bytes`` is whatever the
    caller meters (cache + store + spool usage); RSS defaults to a live
    self-sample.  With no budget (or no governed axis) the level is
    always ``"ok"`` — pressure is only defined against a budget.
    """
    rss = current_rss_bytes() if rss_bytes is None else rss_bytes
    rss_frac: Optional[float] = None
    disk_frac: Optional[float] = None
    if budget is not None and budget.max_rss_bytes:
        rss_frac = rss / budget.max_rss_bytes
    if budget is not None and budget.disk_quota_bytes:
        disk_frac = disk_bytes / budget.disk_quota_bytes
    worst = max((f for f in (rss_frac, disk_frac) if f is not None), default=0.0)
    if worst >= shed_at:
        level = "critical"
    elif worst >= degrade_at:
        level = "degraded"
    else:
        level = "ok"
    return PressureReport(
        level=level,
        rss_bytes=rss,
        rss_frac=rss_frac,
        disk_bytes=disk_bytes,
        disk_frac=disk_frac,
    )


#: test-only knob (see ``scripts/oom_smoke.py``): workers allocate this
#: many MiB of touched pages on *non-degraded* attempts, making memory
#: pressure deterministic for the budget-enforcement smoke test.  A
#: trailing ``!`` (``"200!"``) keeps the ballast on degraded attempts
#: too, which drives the second-preemption → poison path.
BALLAST_ENV = "REPRO_RSS_BALLAST_MB"


def test_ballast_bytes(degraded: bool) -> Optional[bytearray]:
    """Allocate the smoke-test RSS ballast, if the env knob is set.

    Returns the live buffer (the caller must keep a reference for the
    ballast to stay resident) or ``None``.  Degraded attempts skip the
    ballast unless the value carries the ``!`` suffix — that is the
    point: the smoke test proves an over-budget worker is preempted and
    then *succeeds* on its degraded retry, while the ``!`` form proves
    a worker over budget even when degraded is quarantined, not looped.
    """
    raw = os.environ.get(BALLAST_ENV)
    if not raw:
        return None
    always = raw.endswith("!")
    if degraded and not always:
        return None
    try:
        mb = int(raw.rstrip("!"))
    except ValueError:
        return None
    if mb <= 0:
        return None
    buf = bytearray(mb << 20)
    # Touch every page so the allocation is resident, not just reserved.
    for off in range(0, len(buf), _PAGE_SIZE):
        buf[off] = 1
    return buf
