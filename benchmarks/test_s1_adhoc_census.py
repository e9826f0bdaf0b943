"""S1 — the ad-hoc synchronization census (slide 15).

The paper motivates the problem with a static census: "Ad-hoc
synchronizations are widely used: 12 - 31 in SPLASH-2 and 32 - 329 in
PARSEC 2.0".  This experiment runs the instrumentation phase over every
SPLASH-2 and PARSEC stand-in and counts the *user-level* spinning read
loops it finds (library-internal loops counted separately), plus the
false-context impact of the spin feature on the SPLASH programs.
"""

import repro
from repro.analysis import SpinLoopDetector
from repro.detectors import ToolConfig
from repro.harness.tables import format_table
from repro.workloads.parsec.registry import parsec_workloads
from repro.workloads.splash import splash_workloads

from benchmarks.conftest import run_once


def _census(workloads):
    rows = []
    for wl in workloads:
        program = wl.build()
        spins = SpinLoopDetector(program, max_blocks=7).detect_program()
        user = sum(
            1 for s in spins if not program.functions[s.loop.function].is_library
        )
        lib = len(spins) - user
        rows.append((wl.name, user, lib))
    return rows


def test_s1_adhoc_census(benchmark):
    def experiment():
        splash = _census(splash_workloads())
        parsec = _census(parsec_workloads())
        detect = {}
        for wl in splash_workloads():
            detect[wl.name] = {
                cfg.name: repro.run(wl, cfg, seed=1).report.racy_contexts
                for cfg in (ToolConfig.helgrind_lib(), ToolConfig.helgrind_lib_spin(7))
            }
        return splash, parsec, detect

    splash, parsec, detect = run_once(benchmark, experiment)
    print()
    print(
        format_table(
            ["Program", "User spin loops", "Library spin loops"],
            [list(r) for r in splash],
            title="S1a — SPLASH-2 stand-ins: ad-hoc census",
        )
    )
    print()
    print(
        format_table(
            ["Program", "User spin loops", "Library spin loops"],
            [list(r) for r in parsec],
            title="S1b — PARSEC stand-ins: ad-hoc census",
        )
    )
    print()
    print(
        format_table(
            ["Program", "lib contexts", "lib+spin contexts"],
            [
                [name, row["Helgrind+ lib"], row["Helgrind+ lib+spin(7)"]]
                for name, row in detect.items()
            ],
            title="S1c — SPLASH-2 stand-ins under the detectors",
        )
    )

    # Slide-15 shape: every SPLASH program uses ad-hoc sync...
    assert all(user >= 1 for _n, user, _l in splash)
    # ...and the PARSEC with-adhoc programs do too, while the clean four
    # (blackscholes..canneal) have none.
    by_name = {n: user for n, user, _l in parsec}
    for clean in ("blackscholes", "swaptions", "fluidanimate", "canneal"):
        assert by_name[clean] == 0, clean
    for adhoc in ("vips", "facesim", "raytrace", "dedup"):
        assert by_name[adhoc] >= 1, adhoc
    # The census translates into detector behaviour: lib FPs on every
    # SPLASH program, lib+spin clean.
    for name, row in detect.items():
        assert row["Helgrind+ lib"] > 0, name
        assert row["Helgrind+ lib+spin(7)"] == 0, name
    benchmark.extra_info["splash"] = {n: u for n, u, _ in splash}
    benchmark.extra_info["parsec"] = {n: u for n, u, _ in parsec}
