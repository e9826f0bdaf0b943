"""Happens-before graph extraction and DOT export.

Turns a recorded trace into an explicit happens-before graph over
synchronization events — the structure the paper's diagrams draw
(slides 12/13/17): per-thread program-order chains plus cross-thread
edges for spawn/join, lock release→acquire, signal→wait, barrier
episodes, semaphore tokens, and the ad-hoc counterpart-write edges
recovered by spin detection.

The graph is a plain adjacency structure (no external dependencies) and
renders to Graphviz DOT for inspection.  It is *diagnostic* tooling: the
detectors compute the same relation with vector clocks; the graph makes
it visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.isa.program import SyncKind
from repro.trace.trace import Trace
from repro.vm import events as ev


@dataclass(frozen=True)
class HbNode:
    """One synchronization event."""

    index: int  # position in the trace's event list
    tid: int
    label: str

    def dot_id(self) -> str:
        return f"n{self.index}"


@dataclass
class HbGraph:
    """Happens-before graph over a trace's synchronization events."""

    nodes: List[HbNode] = field(default_factory=list)
    #: (src index, dst index, kind) — kind in {"po", "sync", "adhoc"}
    edges: List[Tuple[int, int, str]] = field(default_factory=list)

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def successors(self, index: int) -> List[int]:
        return [dst for src, dst, _ in self.edges if src == index]

    def reachable(self, start: int) -> Set[int]:
        """Transitive happens-before successors of a node."""
        seen: Set[int] = set()
        stack = [start]
        adj: Dict[int, List[int]] = {}
        for src, dst, _ in self.edges:
            adj.setdefault(src, []).append(dst)
        while stack:
            node = stack.pop()
            for nxt in adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def ordered(self, a: int, b: int) -> bool:
        """Whether node ``a`` happens-before node ``b`` (strictly)."""
        return b in self.reachable(a)

    def to_dot(self, title: str = "happens-before") -> str:
        """Graphviz DOT, one column per thread."""
        lines = [
            "digraph hb {",
            f'  label="{title}";',
            "  rankdir=TB;",
            "  node [shape=box, fontsize=10];",
        ]
        by_tid: Dict[int, List[HbNode]] = {}
        for node in self.nodes:
            by_tid.setdefault(node.tid, []).append(node)
        for tid, nodes in sorted(by_tid.items()):
            lines.append(f"  subgraph cluster_t{tid} {{")
            lines.append(f'    label="thread {tid}";')
            for node in nodes:
                lines.append(f'    {node.dot_id()} [label="{node.label}"];')
            lines.append("  }")
        style = {"po": "[color=gray]", "sync": "[color=blue]", "adhoc": "[color=red, penwidth=2]"}
        node_ids = {n.index for n in self.nodes}
        for src, dst, kind in self.edges:
            if src in node_ids and dst in node_ids:
                lines.append(f"  n{src} -> n{dst} {style[kind]};")
        lines.append("}")
        return "\n".join(lines)


def build_hb_graph(trace: Trace, spin_k: int = 7) -> HbGraph:
    """Extract the hb graph of a trace (lib-view sync events + ad-hoc
    edges for loops within the ``spin_k`` window).

    Two passes: the first finds the ad-hoc counterpart-write pairs (so
    their write events become nodes), the second builds all nodes in
    trace order, which keeps per-thread program-order chains correct.
    """
    symbols = trace.symbol_map()
    events = trace.events

    # --- pass 1: which (write index -> cond read index) pairs exist ----
    last_write: Dict[int, Tuple[int, int, int]] = {}  # addr -> (idx, tid, value)
    adhoc_pairs: List[Tuple[int, int, int]] = []  # (write idx, read idx, addr)
    for i, e in enumerate(events):
        if isinstance(e, ev.MemWrite):
            last_write[e.addr] = (i, e.tid, e.value)
        elif isinstance(e, ev.MarkedCondRead) and not e.in_library:
            if trace.loop_sizes.get(e.loop_id, 0) > spin_k:
                continue
            rec = last_write.get(e.addr)
            if rec is not None and rec[1] != e.tid and rec[2] == e.value:
                adhoc_pairs.append((rec[0], i, e.addr))
    counterpart_writes = {w for w, _r, _a in adhoc_pairs}
    spin_reads = {r for _w, r, _a in adhoc_pairs}

    # --- pass 2: build nodes in order, po chains per thread -------------
    graph = HbGraph()
    last_of_tid: Dict[int, int] = {}
    lock_release: Dict[int, int] = {}
    cv_signal: Dict[int, int] = {}
    sem_post: Dict[int, int] = {}
    barrier_arrivals: Dict[int, List[int]] = {}
    thread_exit: Dict[int, int] = {}

    def add_node(index: int, tid: int, label: str) -> None:
        graph.nodes.append(HbNode(index, tid, label))
        prev = last_of_tid.get(tid)
        if prev is not None:
            graph.edges.append((prev, index, "po"))
        last_of_tid[tid] = index

    for i, e in enumerate(events):
        if isinstance(e, ev.ThreadSpawnEvent):
            add_node(i, e.tid, f"spawn T{e.child}")
            # The child's first node chains from the spawn point.
            last_of_tid.setdefault(e.child, i)
        elif isinstance(e, ev.ThreadExitEvent):
            add_node(i, e.tid, "exit")
            thread_exit[e.tid] = i
        elif isinstance(e, ev.ThreadJoinEvent):
            add_node(i, e.tid, f"join T{e.joined}")
            if e.joined in thread_exit:
                graph.edges.append((thread_exit[e.joined], i, "sync"))
        elif isinstance(e, ev.LibEnter) and not e.in_library:
            if e.kind is SyncKind.LOCK_RELEASE:
                add_node(i, e.tid, f"unlock {hex(e.obj_addr)}")
                lock_release[e.obj_addr] = i
            elif e.kind in (SyncKind.CV_SIGNAL, SyncKind.CV_BROADCAST):
                add_node(i, e.tid, f"signal {hex(e.obj_addr)}")
                cv_signal[e.obj_addr] = i
            elif e.kind is SyncKind.SEM_POST:
                add_node(i, e.tid, f"post {hex(e.obj_addr)}")
                sem_post[e.obj_addr] = i
            elif e.kind is SyncKind.BARRIER_WAIT:
                add_node(i, e.tid, f"barrier {hex(e.obj_addr)}")
                barrier_arrivals.setdefault(e.obj_addr, []).append(i)
        elif isinstance(e, ev.LibExit) and not e.in_library:
            if e.kind is SyncKind.LOCK_ACQUIRE:
                add_node(i, e.tid, f"lock {hex(e.obj_addr)}")
                if e.obj_addr in lock_release:
                    graph.edges.append((lock_release[e.obj_addr], i, "sync"))
            elif e.kind is SyncKind.CV_WAIT:
                add_node(i, e.tid, f"wake {hex(e.obj_addr)}")
                if e.obj_addr in cv_signal:
                    graph.edges.append((cv_signal[e.obj_addr], i, "sync"))
            elif e.kind is SyncKind.SEM_WAIT:
                add_node(i, e.tid, f"take {hex(e.obj_addr)}")
                if e.obj_addr in sem_post:
                    graph.edges.append((sem_post[e.obj_addr], i, "sync"))
            elif e.kind is SyncKind.BARRIER_WAIT:
                add_node(i, e.tid, f"resume {hex(e.obj_addr)}")
                for arrival in barrier_arrivals.get(e.obj_addr, ()):
                    if arrival != i:
                        graph.edges.append((arrival, i, "sync"))
        elif isinstance(e, ev.MemWrite) and i in counterpart_writes:
            add_node(i, e.tid, f"write {symbols.resolve(e.addr)}")
        elif isinstance(e, ev.MarkedCondRead) and i in spin_reads:
            add_node(i, e.tid, f"spin-read {symbols.resolve(e.addr)}")

    for widx, ridx, _addr in adhoc_pairs:
        graph.edges.append((widx, ridx, "adhoc"))
    return graph
