#!/usr/bin/env python3
"""Render a program's happens-before graph (the paper's arrow diagrams).

Records an execution of the motivating example, extracts the
happens-before graph over its synchronization events — program order,
spawn/join, and the red *ad-hoc* edge from the counterpart write to the
spinning read — and writes Graphviz DOT to ``hb.dot``.

Render with:  dot -Tpng hb.dot -o hb.png   (if graphviz is installed)

Run:  python examples/visualize_hb.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.trace import build_hb_graph, record_trace

from quickstart import build_program  # reuse the slide-15 program


def main():
    print(__doc__)
    trace = record_trace(build_program(), seed=1)
    graph = build_hb_graph(trace, spin_k=7)
    print(
        f"trace: {trace.steps} steps, {len(trace.columns)} events -> "
        f"hb graph: {graph.node_count()} nodes, {graph.edge_count()} edges"
    )
    adhoc = [e for e in graph.edges if e[2] == "adhoc"]
    print(f"ad-hoc (counterpart-write) edges: {len(adhoc)}")
    for src, dst, _ in adhoc[:5]:
        src_node = next(n for n in graph.nodes if n.index == src)
        dst_node = next(n for n in graph.nodes if n.index == dst)
        print(
            f"  T{src_node.tid} [{src_node.label}]  --->  "
            f"T{dst_node.tid} [{dst_node.label}]"
        )

    with open("hb.dot", "w") as fh:
        fh.write(graph.to_dot("slide-15 motivating example"))
    print("\nwrote hb.dot")


if __name__ == "__main__":
    main()
