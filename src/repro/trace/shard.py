"""Sharded parallel trace analysis: partition-by-region replay + merge.

Offline replay removed the VM from the analysis loop (PR 6); this module
removes the *single core* from it.  A stored trace's access events are
partitioned by address region into K shards, each shard's partition of
the recording's columns is fed to an ordinary per-shard
:class:`~repro.detectors.RaceDetector` kernel (``consume_batch``), and a
merge pass
reconciles the per-shard results into one report whose
``Report.fingerprint()`` is **bit-identical** to unsharded
:func:`~repro.trace.analyze_trace` — on every preset, including
partial (deadlock/livelock/fault-truncated) traces.

Why this is sound
-----------------

Detector work is dominated by per-access checks that depend only on
(a) the accessing thread's vector clock, (b) the shadow cell of the
accessed address, and (c) the thread's lockset.  Two event classes
cross address boundaries and are therefore **replicated to every
shard** at their original sequence numbers:

* all control/sync events (thread lifecycle, library annotations,
  marked-loop traffic) — they drive clocks, locksets, the ad-hoc
  classifier, and the condvar monitor;
* every access to a *global* address — an address that sources
  cross-address happens-before or lockset state: the ad-hoc engine's
  classified sync variables (their writes are counterpart-write
  sources, their reads take the induced hb edge) and inferred lock
  words (their CAS/store traffic drives acquire/release).  The global
  set is computed by a probe detector fed only the marker rows (the
  classifier depends on nothing else); the lock-inference part is taken
  from the unfiltered rows and may over-approximate, which only
  replicates more accesses whose foreign copies never run race checks.

A replicated *foreign* access updates clock/record state without
running race checks: the kernel still runs the ad-hoc matcher on a
read (reads never tick a clock), and the shard's write hook sends a
write through
:meth:`~repro.detectors.base.VectorClockAlgorithm.observe_write`
(record maintenance + the writer's epoch tick, no checks).  Every
happens-before edge among a shard's delivered events therefore has both
endpoints delivered, so the happens-before relation restricted to the
shard's events equals the global one restricted to the same events —
numeric clock values differ across shards (each shard ticks only its
delivered writes) but every ``saw()`` outcome, lockset, suppression
decision, and classification instant matches the unsharded run.  Race
checks for an address run in exactly one shard (its owner), so
``accesses_checked`` and the warning stream partition exactly.

The merge pass re-checks the per-shard results against the global
happens-before state: normalized vector-clock frontiers (own clock
minus delivered writes — the cross-shard invariant), the classifier
and note state (identical in every shard by construction), and the
seq-tagged warning submissions, which are replayed in global order
through a fresh capped :class:`~repro.detectors.reports.Report` so the
global 1000-context cap and cross-shard context deduplication behave
exactly as they would have unsharded.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress, count
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.detectors import ToolConfig
from repro.detectors.reports import CONTEXT_CAP, RaceWarning, Report
from repro.trace.trace import Trace, _build_detector, _validate_replay
from repro.vm import events as ev


class ShardMergeError(RuntimeError):
    """A cross-shard invariant failed during the merge pass.

    Sharding is an optimization with a bit-identity contract; a merge
    that cannot prove the contract held refuses to produce a report
    rather than producing a silently different one.
    """


# ---------------------------------------------------------------------------
# The per-shard report: a Report that journals every submission with the
# event sequence number it was raised at, so the merge pass can replay
# the global submission order.


class ShardReport(Report):
    """A :class:`Report` that journals seq-tagged warning submissions.

    The per-shard context set and cap behave locally (a shard can never
    exceed what the global run would admit — its contexts are a subset
    of the global run's at every point), but the authoritative state is
    :attr:`submissions`: every ``add`` call with the sequence number of
    the access that raised it.  The merge pass replays the concatenated,
    seq-sorted submissions of all shards through a fresh capped report.

    Instances also carry the shard's merge payload (frontier, delivered
    write counts, classifier state, stats) so a shard outcome pickles
    through the result cache as a plain :class:`Report` subclass with no
    schema changes elsewhere.
    """

    def __init__(
        self, tool: str = "", cap: int = CONTEXT_CAP, granularity: str = "symbol"
    ) -> None:
        super().__init__(tool=tool, cap=cap, granularity=granularity)
        #: every ``add`` call as ``(seq, warning)`` in submission order
        self.submissions: List[Tuple[int, RaceWarning]] = []
        #: sequence number of the row currently being consumed
        self.current_seq = -1
        self.shard_index = 0
        self.shard_count = 1
        #: per-thread own-clock component at end of shard replay
        self.frontier: Dict[int, int] = {}
        #: per-thread count of writes this shard delivered (owned+foreign)
        self.writes_delivered: Dict[int, int] = {}
        #: ad-hoc classifier state (identical in every shard)
        self.sync_addrs: FrozenSet[int] = frozenset()
        self.inferred_locks: FrozenSet[int] = frozenset()
        #: (loops_entered, loop_exits, cond_reads, edges)
        self.adhoc_stats: Tuple[int, int, int, int] = (0, 0, 0, 0)
        self.adhoc_edges = 0
        self.accesses_checked = 0
        self.detector_words = 0
        #: rows this shard's kernel accepted (owned, foreign and control)
        self.events_delivered = 0
        #: accepted accesses to addresses this shard owns
        self.owned_events = 0
        #: accepted replicated accesses to addresses other shards own
        self.foreign_events = 0

    @property
    def control_events(self) -> int:
        """Accepted non-access rows — the same in every shard."""
        return self.events_delivered - self.owned_events - self.foreign_events

    def add(self, warning: RaceWarning) -> bool:
        self.submissions.append((self.current_seq, warning))
        return super().add(warning)


# ---------------------------------------------------------------------------
# Partitioning


#: owner-column value of a row every shard receives (control rows and
#: accesses to global addresses)
_ALL = 255


@dataclass
class ShardPlan:
    """Address-ownership plan for one (trace, config, K) combination.

    Regions are the trace's symbol segments (plus hashed buckets for
    anonymous addresses); whole regions are assigned to shards by
    longest-processing-time greedy balancing on observed access counts.
    Correctness never depends on the assignment — any owner map yields
    a bit-identical merge — only load balance does.
    """

    shards: int
    #: addr -> owning shard index (every observed address has an owner)
    owner_of: Dict[int, int]
    #: addresses replicated to every shard (sync flags, lock words, and
    #: lib sync objects while lock inference is active)
    global_addrs: FrozenSet[int]
    #: distinct regions observed across the access rows
    region_count: int = 0
    #: per-shard owned access counts (balance observability)
    loads: Tuple[int, ...] = ()
    #: accesses replicated beyond their owner shard
    replicated: int = 0

    def owners(self, trace: Trace) -> bytearray:
        """Per-row owner column: a shard index, or ``_ALL`` for a row
        every shard receives."""
        owner_of = self.owner_of
        global_addrs = self.global_addrs
        cols = trace.columns
        return bytearray(
            _ALL if kind > ev.WRITE or addr in global_addrs else owner_of[addr]
            for kind, addr in zip(cols.kind, cols.addr)
        )

    def mask(self, owners: bytearray, index: int) -> bytes:
        """Row mask of shard ``index``'s partition."""
        table = bytearray(256)
        table[index] = table[_ALL] = 1
        return owners.translate(table)


#: ``bytes.translate`` table keeping the marker kinds of a kind column
_MARKER_KINDS = bytes(
    k in (ev.COND_READ, ev.LOOP_ENTER, ev.LOOP_EXIT) for k in range(256)
)


def _global_addrs(trace: Trace, config: ToolConfig) -> Set[int]:
    """Addresses whose accesses must be replicated to every shard.

    Feeds the recording's marker rows alone to a probe detector: the
    ad-hoc classifier depends on nothing else, so the probe's sync
    variables are exactly the ones the full analysis classifies.  Under
    lock inference it adds the lock words (atomic writes at inferred
    acquire sites) plus the library sync-object addresses, whose
    held-lock state the inferred-release check (``value == 0 and
    holds(tid, addr)``) can consult; those two are taken from the
    unfiltered rows, an over-approximation that only replicates more
    accesses, whose foreign copies never run race checks.  The set is
    the *final* classification: classification is monotone, so
    replicating from sequence zero only adds accesses that predate an
    address's classification.
    """
    addrs: Set[int] = set()
    cols = trace.columns
    if config.spin:
        probe = _build_detector(trace, config)
        probe.consume_batch(
            compress(cols.rows(), cols.kind.tobytes().translate(_MARKER_KINDS))
        )
        addrs.update(probe.adhoc.sync_addrs)
    if config.infer_locks and trace.lock_sites:
        lock_sites = trace.lock_sites
        for kind, addr, loc, atomic, aux in zip(
            cols.kind, cols.addr, cols.loc, cols.atomic, cols.aux
        ):
            if kind == ev.WRITE:
                if atomic and loc in lock_sites:
                    addrs.add(addr)
            elif kind == ev.LIB_ENTER or kind == ev.LIB_EXIT:
                addrs.add(aux.obj_addr)
                if aux.obj2_addr is not None:
                    addrs.add(aux.obj2_addr)
    return addrs


def plan_shards(trace: Trace, config: ToolConfig, shards: int) -> ShardPlan:
    """Build the ownership plan for ``shards``-way analysis of ``trace``."""
    if not 1 <= shards < _ALL:
        raise ValueError(f"shards must be >= 1 and < {_ALL}, got {shards}")
    global_addrs = frozenset(_global_addrs(trace, config))

    # Region of an address: its symbol segment, else a hashed bucket so
    # anonymous (heap/stack) addresses still spread across shards.
    segs = sorted((base, base + size, i) for i, (_, base, size) in enumerate(trace.symbols))
    bases = [s[0] for s in segs]
    anon_buckets = max(8 * shards, 1)

    def region_of(addr: int):
        i = bisect_right(bases, addr) - 1
        if i >= 0 and addr < segs[i][1]:
            return segs[i][2]
        return -1 - (addr % anon_buckets)

    region_counts: Dict[int, int] = {}
    region_memo: Dict[int, int] = {}
    replicated = 0
    cols = trace.columns
    for kind, addr in zip(cols.kind, cols.addr):
        if kind > ev.WRITE:
            continue
        region = region_memo.get(addr)
        if region is None:
            region = region_of(addr)
            region_memo[addr] = region
        region_counts[region] = region_counts.get(region, 0) + 1
        if addr in global_addrs:
            replicated += 1

    # LPT greedy: heaviest region first onto the least-loaded shard.
    heap = [(0, idx) for idx in range(shards)]
    heapify(heap)
    region_owner: Dict[int, int] = {}
    for region, n in sorted(region_counts.items(), key=lambda rc: (-rc[1], rc[0])):
        load, idx = heappop(heap)
        region_owner[region] = idx
        heappush(heap, (load + n, idx))
    loads = [0] * shards
    for region, n in region_counts.items():
        loads[region_owner[region]] += n

    owner_of = {addr: region_owner[region] for addr, region in region_memo.items()}
    # Global addresses touched only by control events (e.g. lib sync
    # objects) never appear in the access stream; park them on shard 0.
    for addr in global_addrs:
        owner_of.setdefault(addr, 0)
    return ShardPlan(
        shards=shards,
        owner_of=owner_of,
        global_addrs=global_addrs,
        region_count=len(region_counts),
        loads=tuple(loads),
        replicated=replicated * (shards - 1),
    )


# ---------------------------------------------------------------------------
# Per-shard replay


def _tagged(
    rows: Iterable[tuple], seqs: Iterable[int], report: ShardReport
) -> Iterator[tuple]:
    """``rows`` with the report's ``current_seq`` set to each row's seq."""
    for seq, row in zip(seqs, rows):
        report.current_seq = seq
        yield row


def _run_shard(
    trace: Trace, config: ToolConfig, plan: ShardPlan, index: int, mask: bytes
) -> ShardReport:
    """Replay one shard's partition of the columns through a fresh kernel.

    The partition (``mask``) is every control row plus the shard's owned
    and replicated accesses.  The algorithm's read/write entry points
    are wrapped per shard: a replicated *foreign* read is done once the
    kernel's ad-hoc matcher ran, a foreign write only maintains records
    (``observe_write``).  Warning submissions are seq-tagged.  Returns
    the finalized :class:`ShardReport` carrying the merge payload.
    """
    detector = _build_detector(trace, config)
    report = ShardReport(tool=config.name, granularity=config.context_granularity)
    report.shard_index = index
    report.shard_count = plan.shards
    # The detector façade and the algorithm share one report object; the
    # shard swap must keep that identity.
    detector.report = report
    algo = detector.algorithm
    algo.report = report

    foreign = frozenset(
        a for a in plan.global_addrs if plan.owner_of.get(a, 0) != index
    )
    read, write, observe = algo.read, algo.write, algo.observe_write
    writes_delivered: Dict[int, int] = {}
    counts = [0, 0]  # owned, foreign accesses

    def shard_read(tid, addr, loc, atomic):
        if addr in foreign:
            counts[1] += 1
        else:
            counts[0] += 1
            read(tid, addr, loc, atomic)

    def shard_write(tid, addr, value, loc, atomic):
        writes_delivered[tid] = writes_delivered.get(tid, 0) + 1
        if addr in foreign:
            counts[1] += 1
            observe(tid, addr, value, loc, atomic)
        else:
            counts[0] += 1
            write(tid, addr, value, loc, atomic)

    algo.read, algo.write = shard_read, shard_write
    detector.consume_batch(
        _tagged(compress(trace.columns.rows(), mask), compress(count(), mask), report)
    )

    detector.finalize(partial=trace.status != "ok")
    report.frontier = {tid: tc.clock for tid, tc in algo.threads.items()}
    report.writes_delivered = writes_delivered
    if detector.adhoc is not None:
        adhoc = detector.adhoc
        report.sync_addrs = frozenset(adhoc.sync_addrs)
        report.inferred_locks = frozenset(adhoc.inferred_locks)
        report.adhoc_stats = (
            adhoc.loops_entered, adhoc.loop_exits, adhoc.cond_reads, adhoc.edges
        )
    report.adhoc_edges = algo.adhoc_edges
    report.accesses_checked = algo.accesses_checked
    report.detector_words = detector.memory_words()
    report.events_delivered = detector.events_accepted
    report.owned_events, report.foreign_events = counts
    return report


def run_shard(
    trace: Trace, config, index: int, shards: int
) -> ShardReport:
    """Analyze exactly one shard of ``trace`` (the grand-sweep work unit).

    Recomputes the deterministic plan and walks only shard ``index``'s
    partition of the columns — a worker process needs nothing from its
    siblings.  The returned :class:`ShardReport` is the payload later
    reconciled by :func:`merge_shard_reports`.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_replay(trace, config)
    if not 0 <= index < shards:
        raise ValueError(f"shard index {index} out of range for {shards} shards")
    plan = plan_shards(trace, config, shards)
    mask = plan.mask(plan.owners(trace), index)
    return _run_shard(trace, config, plan, index, mask)


# ---------------------------------------------------------------------------
# The merge pass


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ShardMergeError(f"shard merge invariant violated: {what}")


def merge_shard_reports(reports: Sequence[ShardReport]) -> Report:
    """Reconcile per-shard reports into the global, bit-identical report.

    Verifies the cross-shard invariants (the "re-check against global
    happens-before state"): every shard must agree on the classifier
    state, the finalize notes, and the *normalized* vector-clock
    frontier — each thread's own clock minus the writes that shard
    delivered for it, which cancels the only legitimate cross-shard
    clock divergence and exposes any dropped or double-applied sync
    edge.  Then replays the seq-sorted warning submissions through a
    fresh capped report, reconstructing the global context cap,
    deduplication, and raw submission count exactly.
    """
    if not reports:
        raise ShardMergeError("no shard reports to merge")
    reports = sorted(reports, key=lambda r: r.shard_index)
    k = reports[0].shard_count
    _require(len(reports) == k, f"expected {k} shards, got {len(reports)}")
    _require(
        [r.shard_index for r in reports] == list(range(k)),
        f"shard indices {[r.shard_index for r in reports]} are not 0..{k - 1}",
    )
    first = reports[0]
    for r in reports[1:]:
        _require(r.shard_count == k, "inconsistent shard counts")
        _require(r.tool == first.tool, "inconsistent tools")
        _require(r.granularity == first.granularity, "inconsistent granularity")
        _require(r.partial == first.partial, "inconsistent partial flags")
        _require(
            r.control_events == first.control_events, "inconsistent control-row counts"
        )
        _require(list(r.notes) == list(first.notes), "diverging finalize notes")
        _require(r.sync_addrs == first.sync_addrs, "diverging sync classification")
        _require(r.inferred_locks == first.inferred_locks, "diverging inferred locks")
        _require(r.adhoc_stats == first.adhoc_stats, "diverging ad-hoc statistics")
        _require(r.adhoc_edges == first.adhoc_edges, "diverging ad-hoc edge counts")

    # Normalized frontier: own clock minus delivered writes must agree
    # across shards for every thread (sync-op ticks are replicated, so
    # delivered-write counts are the only legitimate divergence).
    tids = set()
    for r in reports:
        tids.update(r.frontier)
    for tid in sorted(tids):
        norms = {
            r.frontier.get(tid, 1) - r.writes_delivered.get(tid, 0)
            for r in reports
        }
        _require(
            len(norms) == 1,
            f"thread {tid} frontier disagreement across shards: {sorted(norms)}",
        )

    submissions: List[Tuple[int, RaceWarning]] = []
    for r in reports:
        submissions.extend(r.submissions)
    submissions.sort(key=lambda s: s[0])  # stable: each seq lives in one shard

    merged = Report(tool=first.tool, cap=CONTEXT_CAP, granularity=first.granularity)
    for _, warning in submissions:
        merged.add(warning)
    merged.partial = first.partial
    merged.notes = list(first.notes)
    return merged


# ---------------------------------------------------------------------------
# End-to-end entry point


@dataclass
class ShardedAnalysis:
    """Result of one sharded VM-free analysis of a recorded execution."""

    trace: Trace
    config: ToolConfig
    #: the merged report — fingerprint-identical to ``analyze_trace``'s
    report: Report
    plan: ShardPlan
    #: the per-shard reports the merge reconciled
    shard_reports: List[ShardReport] = field(default_factory=list)
    #: events of the full filtered stream (matches the unsharded count)
    events: int = 0
    #: wall-clock of split + shard replay + merge, seconds
    duration_s: float = 0.0
    shards: int = 1
    workers: int = 0
    #: sum of per-shard detector footprints, words (observability)
    detector_words: int = 0
    #: ad-hoc hb edges (identical per shard; shard 0's count)
    adhoc_edges: int = 0


def _shard_worker(conn, trace, config, plan, masks, indices):
    """Forked child: run a batch of shards, ship the reports back."""
    try:
        out = [
            _run_shard(trace, config, plan, index, masks[index]) for index in indices
        ]
        conn.send(("ok", out))
    except BaseException as exc:  # ship the failure, don't hang the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def analyze_trace_sharded(
    trace: Trace,
    config,
    shards: int = 4,
    workers: int = 0,
) -> ShardedAnalysis:
    """Analyze a stored trace K-ways-parallel with a bit-identical report.

    ``workers=0`` runs the shards serially in-process (useful for
    differential testing and on fork-less platforms); ``workers>0``
    fans the shards over forked worker processes — the parent builds
    the per-shard row masks once and children inherit them
    copy-on-write.  ``config`` may be a
    :class:`~repro.detectors.ToolConfig` or a preset name.  ``shards=1``
    still runs the full partition/replay/merge pipeline, making the
    degenerate case a real identity test of the machinery.
    """
    from repro.harness.registry import resolve_tool  # lazy: import cycle

    config = resolve_tool(config)
    _validate_replay(trace, config)
    t0 = time.perf_counter()
    plan = plan_shards(trace, config, shards)
    owners = plan.owners(trace)
    masks = [plan.mask(owners, index) for index in range(shards)]

    workers = min(workers, shards) if workers > 0 else 0
    shard_reports: List[Optional[ShardReport]] = [None] * shards
    if workers > 1:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platform
            ctx = None
        if ctx is not None:
            chunks: List[List[int]] = [[] for _ in range(workers)]
            for index in range(shards):
                chunks[index % workers].append(index)
            procs = []
            for chunk in chunks:
                recv, send = ctx.Pipe(duplex=False)
                p = ctx.Process(
                    target=_shard_worker,
                    args=(send, trace, config, plan, masks, chunk),
                    daemon=True,
                )
                p.start()
                send.close()
                procs.append((p, recv, chunk))
            errors = []
            for p, recv, chunk in procs:
                try:
                    status, payload = recv.recv()
                except EOFError:
                    status, payload = "error", f"shard worker for {chunk} died"
                if status == "ok":
                    for report in payload:
                        shard_reports[report.shard_index] = report
                else:
                    errors.append(payload)
                p.join()
            if errors:
                raise ShardMergeError("; ".join(errors))
        else:  # pragma: no cover - non-fork platform
            workers = 0
    if workers <= 1:
        for index in range(shards):
            shard_reports[index] = _run_shard(trace, config, plan, index, masks[index])

    reports = [r for r in shard_reports if r is not None]
    merged = merge_shard_reports(reports)
    duration = time.perf_counter() - t0
    return ShardedAnalysis(
        trace=trace,
        config=config,
        report=merged,
        plan=plan,
        shard_reports=reports,
        # the control rows (seen by every shard) plus each owned access
        events=reports[0].control_events + sum(r.owned_events for r in reports),
        duration_s=duration,
        shards=shards,
        workers=workers,
        detector_words=sum(r.detector_words for r in reports),
        adhoc_edges=reports[0].adhoc_edges,
    )
