"""Integration tests for the PARSEC claims (slides 27-30)."""

import pytest

import repro
from repro.detectors import ToolConfig
from repro.workloads.parsec.registry import (
    WITH_ADHOC,
    WITHOUT_ADHOC,
    parsec_workloads,
)


@pytest.fixture(scope="module")
def contexts():
    """{program: {tool: contexts}} over one seed (shape, not averages)."""
    out = {}
    for wl in parsec_workloads():
        out[wl.name] = {
            cfg.name: repro.run(wl, cfg, seed=1).report.racy_contexts
            for cfg in ToolConfig.paper_tools(7)
        }
    return out


LIB = "Helgrind+ lib"
SPIN = "Helgrind+ lib+spin(7)"
NOLIB = "Helgrind+ nolib+spin(7)"
DRD = "DRD"


class TestProgramsWithoutAdhoc:
    def test_first_four_programs_clean_everywhere(self, contexts):
        """Slide 27: no false positives for the first 4 programs."""
        for name in ("blackscholes", "swaptions", "fluidanimate", "canneal"):
            for tool, n in contexts[name].items():
                assert n == 0, (name, tool)

    def test_freqmine_unknown_library_two_residuals(self, contexts):
        """Slide 27: with the unknown OpenMP library, only 2 remain."""
        c = contexts["freqmine"]
        assert c[LIB] > 50
        assert c[SPIN] <= 3
        assert c[NOLIB] <= 3
        assert c[DRD] == 1000


class TestProgramsWithAdhoc:
    def test_five_of_eight_completely_eliminated(self, contexts):
        """Slide 28: in 5 out of 8 programs FPs are completely gone."""
        eliminated = [
            name for name in WITH_ADHOC if contexts[name][SPIN] == 0
        ]
        assert len(eliminated) >= 5, eliminated

    def test_residual_programs_small(self, contexts):
        """Slide 29: the remaining programs produce 2 to ~19 warnings."""
        residual = [name for name in WITH_ADHOC if contexts[name][SPIN] > 0]
        assert residual  # bodytrack / ferret / x264 style leftovers
        for name in residual:
            assert 1 <= contexts[name][SPIN] <= 25, name

    def test_spin_always_improves_on_lib(self, contexts):
        for name in WITH_ADHOC:
            assert contexts[name][SPIN] <= contexts[name][LIB], name

    def test_dedup_inversion(self, contexts):
        """Slide 28's oddest cell: hybrid-lib saturates, DRD is clean."""
        c = contexts["dedup"]
        assert c[LIB] == 1000
        assert c[SPIN] == 0
        assert c[DRD] <= 1

    def test_drd_capped_on_array_heavy_programs(self, contexts):
        for name in ("facesim", "streamcluster", "raytrace", "x264"):
            assert contexts[name][DRD] == 1000, name

    def test_nolib_worst_on_taslock_programs(self, contexts):
        """bodytrack/ferret: CAS-retry locks are invisible to nolib."""
        for name in ("bodytrack", "ferret"):
            assert contexts[name][NOLIB] > contexts[name][SPIN], name


class TestSeedStability:
    def test_race_free_programs_stay_clean_across_seeds(self):
        from repro.workloads.parsec.registry import parsec_workload

        wl = parsec_workload("blackscholes")
        for seed in range(1, 5):
            out = repro.run(wl, ToolConfig.helgrind_lib_spin(7), seed=seed)
            assert out.ok and out.report.racy_contexts == 0

    def test_vips_clean_under_spin_across_seeds(self):
        from repro.workloads.parsec.registry import parsec_workload

        wl = parsec_workload("vips")
        for seed in range(1, 4):
            out = repro.run(wl, ToolConfig.helgrind_lib_spin(7), seed=seed)
            assert out.ok and out.report.racy_contexts == 0
