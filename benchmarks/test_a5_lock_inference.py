"""Extension E1 — lock inference for the universal detector.

The paper's stated future work (slide 33): "Improving the accuracy of
the universal race detector by identifying the lock operations (enabling
lockset analysis)."  We implement it (`repro.analysis.lockinfer`):
CAS(0→1) sites are classified as lock acquires, holder stores of 0 as
releases, and the inferred locks feed lockset analysis instead of ad-hoc
hb edges.

Measured effect: the universal detector recovers the lib+spin
configuration's false-alarm count on the suite (the CAS-retry TAS lock
is no longer invisible) and catches back the spinlock-masked race that
hb-only recovery hides; on PARSEC, the TAS-heavy programs (bodytrack,
ferret, x264, dedup, streamcluster) drop to exactly the lib+spin
columns.
"""

import repro
from repro.detectors import ToolConfig
from repro.harness.metrics import score_suite
from repro.harness.tables import suite_table
from repro.workloads.parsec.registry import parsec_workload

from benchmarks.conftest import run_once

TAS_PROGRAMS = ("bodytrack", "ferret", "x264", "dedup", "streamcluster")


def test_a5_lock_inference(benchmark, suite120):
    def experiment():
        rows = []
        for cfg in (
            ToolConfig.helgrind_lib_spin(7),
            ToolConfig.helgrind_nolib_spin(7),
            ToolConfig.universal_hybrid(7),
        ):
            score, _ = score_suite(suite120, cfg)
            rows.append(score.row())
        parsec = {}
        for name in TAS_PROGRAMS:
            wl = parsec_workload(name)
            parsec[name] = {
                cfg.name: repro.run(wl, cfg, seed=1).report.racy_contexts
                for cfg in (
                    ToolConfig.helgrind_lib_spin(7),
                    ToolConfig.helgrind_nolib_spin(7),
                    ToolConfig.universal_hybrid(7),
                )
            }
        return rows, parsec

    rows, parsec = run_once(benchmark, experiment)
    print()
    print(suite_table(rows, "E1 — lock inference on the suite"))
    print()
    for name, row in parsec.items():
        print(f"  {name:14s} {row}")

    by = {r["tool"]: r for r in rows}
    spin = by["Helgrind+ lib+spin(7)"]
    nolib = by["Helgrind+ nolib+spin(7)"]
    univ = by["Helgrind+ nolib+spin(7)+lockinfer"]
    # Lock inference recovers lib+spin's false-alarm level...
    assert univ["false_alarms"] == spin["false_alarms"]
    # ...and strictly improves on plain nolib in both dimensions.
    assert univ["false_alarms"] < nolib["false_alarms"]
    assert univ["missed_races"] < nolib["missed_races"]
    # On PARSEC the TAS-heavy programs match lib+spin exactly.
    for name, row in parsec.items():
        assert (
            row["Helgrind+ nolib+spin(7)+lockinfer"]
            == row["Helgrind+ lib+spin(7)"]
        ), name
    for r in rows:
        benchmark.extra_info[r["tool"]] = (
            f"FA={r['false_alarms']} MR={r['missed_races']}"
        )
