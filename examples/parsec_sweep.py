#!/usr/bin/env python3
"""Sweep the 13 PARSEC stand-ins under the four tool configurations.

Regenerates the shape of the paper's slides 27-30 in one go (single
seed; use the benchmark harness or ``repro-experiments t4 --seeds 5``
for the averaged tables).

Run:  python examples/parsec_sweep.py
"""

import time

import repro
from repro import ToolConfig
from repro.harness.tables import contexts_table
from repro.workloads.parsec.registry import parsec_workloads, program_metadata


def main():
    print(__doc__)
    tools = ToolConfig.paper_tools(7)
    data = {}
    start = time.perf_counter()
    for workload in parsec_workloads():
        row = {}
        for config in tools:
            outcome = repro.run(workload, config, seed=1)
            assert outcome.ok, (workload.name, config.name)
            row[config.name] = outcome.report.racy_contexts
        data[workload.name] = row
        print(f"  {workload.name:14s} done")
    elapsed = time.perf_counter() - start

    meta = {
        name: {"model": m["model"], "instructions": m["instructions"]}
        for name, m in program_metadata().items()
    }
    print()
    print(
        contexts_table(
            data,
            [c.name for c in tools],
            f"PARSEC racy contexts, 1 seed ({elapsed:.1f}s total)",
            meta,
        )
    )
    print()
    fixed = [n for n, row in data.items() if row[tools[1].name] == 0]
    print(f"programs with zero false positives under lib+spin(7): {len(fixed)}/13")


if __name__ == "__main__":
    main()
