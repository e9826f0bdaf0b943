"""Runner, table formatting, and perf measurement."""

from repro.detectors import ToolConfig
from repro.harness.figures import F1, F2
from repro.harness.perf import cells, summarize, value
from repro.harness.runner import run_workload
from repro.harness.tables import contexts_table, format_table, suite_table
from repro.harness.workload import Workload

from tests.conftest import flag_handoff_program


#: the F1/F2 columns: lib vs lib+spin(7)
TOOLS = ["helgrind-lib", "helgrind-lib-spin7"]


def _wl(seed=1):
    return Workload(name="handoff", build=flag_handoff_program, seed=seed)


class TestRunner:
    def test_run_workload_outcome_fields(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib_spin(7))
        assert out.ok
        assert out.steps > 0
        assert out.events > 0
        assert out.detector_words > 0
        assert out.imap_words > 0
        assert out.spin_loops >= 1  # the consumer loop + library loops
        assert out.adhoc_edges >= 1
        assert out.duration_s >= 0

    def test_no_instrumentation_without_spin(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib())
        assert out.imap_words == 0
        assert out.spin_loops == 0
        assert out.adhoc_edges == 0

    def test_seed_override(self):
        a = run_workload(_wl(seed=1), ToolConfig.drd(), seed=9)
        assert a.seed == 9

    def test_instrumentation_phase_is_timed(self):
        """Regression: the spin configuration pays a static analysis pass
        before execution; it must be measured, not silently dropped."""
        out = run_workload(_wl(), ToolConfig.helgrind_lib_spin(7))
        assert out.instrument_s > 0
        assert out.total_s == out.duration_s + out.instrument_s

    def test_no_instrumentation_time_without_spin(self):
        out = run_workload(_wl(), ToolConfig.helgrind_lib())
        assert out.instrument_s == 0
        assert out.total_s == out.duration_s


class TestTables:
    def test_format_alignment(self):
        text = format_table(["A", "BBBB"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[1]) for l in lines[1:])

    def test_float_formatting(self):
        text = format_table(["x"], [[1.0], [2.55]])
        assert "1" in text and "2.5" in text and "1.0" not in text

    def test_suite_table(self):
        rows = [
            {
                "tool": "t",
                "false_alarms": 1,
                "missed_races": 2,
                "failed": 3,
                "correct": 117,
            }
        ]
        text = suite_table(rows, "T1")
        assert "117" in text and "Tool" in text

    def test_contexts_table_with_meta(self):
        data = {"prog": {"A": 1.0, "B": 1000.0}}
        meta = {"prog": {"model": "POSIX", "instructions": 42}}
        text = contexts_table(data, ["A", "B"], "T4", meta)
        assert "POSIX" in text and "1000" in text and "42" in text


class TestPerf:
    """F1/F2 records: one row per workload, each tool's fields prefixed
    ``lib_``/``spin_`` (see the ``f2`` row of ``repro.harness.figures``)."""

    def test_measure_overhead_row_fields(self):
        rows = cells(F2, [_wl()], TOOLS, repeats=1)
        assert len(rows) == 1
        row = rows[0]
        assert row["lib_words"] > 0
        assert row["spin_words"] > 0
        # The spin feature's footprint change is small in either direction:
        # marker tables and engine state add words, while suppressed flag
        # accesses and eliminated warnings remove shadow/report words.
        assert 0.5 < value(F2, rows, "mean_memory_overhead") < 2.0
        assert row["mean_runtime_overhead"] > 0

    def test_overhead_includes_instrumentation_phase(self):
        """Regression: the runtime-overhead figure (slide 32) must charge
        the spin configuration for its instrumentation phase."""
        rows = cells(F2, [_wl()], TOOLS, repeats=1)
        row = rows[0]
        assert row["spin_instr_s"] > 0
        spin_total_s = row["spin_s"] + row["spin_instr_s"]
        lib_total_s = row["lib_s"] + row["lib_instr_s"]
        expected = spin_total_s / lib_total_s
        assert abs(row["mean_runtime_overhead"] - expected) < 1e-12
        # the instrumented configuration is strictly more expensive than
        # its machine+detector time alone
        assert spin_total_s > row["spin_s"]

    def test_overhead_summary(self):
        rows = cells(F2, [_wl()], TOOLS, repeats=1)
        assert 0.5 < summarize(F1, rows)["mean_memory_overhead"] < 2.0
        assert summarize(F2, rows)["mean_runtime_overhead"] > 0

    def test_empty_summary_is_nan(self):
        import math

        assert math.isnan(summarize(F1, [])["mean_memory_overhead"])
        assert math.isnan(summarize(F2, [])["mean_runtime_overhead"])
