#!/usr/bin/env python3
"""Record one execution, compare every detector on the *same* interleaving.

Re-execution-based tools (anything built on Valgrind) cannot show two
detectors the same run: each invocation re-executes the program and the
schedule drifts.  Our deterministic substrate can — and the trace module
makes it explicit: record once, replay under every configuration, and
know that any verdict difference is due to the *detector*, never the
schedule.

The demo also round-trips the trace through a file — the checksummed
RPRT frame a trace store holds — and replays it streamed off disk.

Run:  python examples/trace_compare.py
"""

import tempfile
from pathlib import Path

from repro import ToolConfig, record_trace, replay_trace
from repro.trace import open_trace_file, save_trace_file
from repro.workloads.dr_test.suite import build_suite


def main():
    print(__doc__)
    suite = {w.name: w for w in build_suite()}

    for case in ("adhoc7_handoff", "racy_lockmask_basic"):
        workload = suite[case]
        trace = record_trace(workload.build(), seed=workload.seed, max_blocks=8)
        print(f"=== {case}: {trace.steps} steps, {len(trace.columns)} events, "
              f"{len(trace.loop_sizes)} marked loops")

        configs = ToolConfig.paper_tools(7) + (ToolConfig.universal_hybrid(7),)
        with tempfile.TemporaryDirectory() as scratch:
            # Save and reopen — the offline path; the reopened file streams.
            path = Path(scratch) / f"{case}.trc"
            save_trace_file(trace, path)
            stream = open_trace_file(path)
            for config in configs:
                detector = replay_trace(stream, config)
                report = detector.report
                syms = sorted(report.reported_base_symbols)
                print(f"  {config.name:36s} contexts={report.racy_contexts:3d}  {syms}")
        print()

    print(
        "adhoc7_handoff: only the spin-enabled tools are clean.\n"
        "racy_lockmask_basic: DRD misses the lock-masked race that every\n"
        "hybrid configuration reports — on the identical interleaving."
    )


if __name__ == "__main__":
    main()
