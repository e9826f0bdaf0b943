"""The one bench harness: ratio summaries, checks, bench files, the gate."""

import dataclasses
import math
from pathlib import Path

import pytest

from repro.harness import perf
from repro.harness.figures import FIGURES
from repro.harness.perf import Figure, Ratio

ROOT = Path(__file__).resolve().parents[2]
GATED = ("f3", "f4", "f6", "f7", "f9")


def _committed(key):
    return perf.load_bench(ROOT / FIGURES[key].bench)


def _groups(payload):
    """A bench file's rows as measured records, by group."""
    groups = {}
    for row in payload["rows"]:
        row = dict(row)
        groups.setdefault(row.pop("group"), []).append(row)
    return groups


def _fig(bound, **kw):
    return Figure(
        "fx",
        "FX — synthetic",
        kinds=(),
        tools=(),
        repeats=1,
        columns=("workload", "events", "run_s", "rate"),
        summary=("events", "rate"),
        ratios={"rate": Ratio("events", "run_s")},
        key_fields=("workload",),
        gate=("g", "rate", bound),
        **kw,
    )


def _rows(**rates):
    """One row per workload with ``rate`` events per second."""
    return [{"workload": w, "events": 100 * rate, "run_s": 100.0} for w, rate in rates.items()]


def _bench(rows):
    return {"rows": [{"group": "g", **r} for r in rows]}


class TestRatio:
    ROWS = [
        {"w": "a", "t": "x", "n": 10, "s": 1.0, "b": 0.5, "ok": True},
        {"w": "a", "t": "y", "n": 30, "s": 1.0, "b": 0.9, "ok": False},
        {"w": "b", "t": "x", "n": 60, "s": 2.0, "b": 1.0, "ok": True},
    ]

    def test_sums_before_dividing(self):
        assert Ratio("n", "s").of(self.ROWS) == 100 / 4.0
        assert Ratio("n", "s").of(self.ROWS[:1]) == 10.0

    def test_plain_sum_and_signed_terms(self):
        assert Ratio("n").of(self.ROWS) == 100
        assert Ratio("s-b").of(self.ROWS) == pytest.approx(4.0 - 2.4)
        assert Ratio("#-ok").of(self.ROWS) == 1

    def test_filter_and_distinct_terms(self):
        assert Ratio("n@t=x").of(self.ROWS) == 70
        assert Ratio("#", "#|w").of(self.ROWS) == 1.5
        assert Ratio("s|w").of(self.ROWS) == 3.0

    def test_per_row_folds(self):
        assert Ratio("n", "s", how="min").of(self.ROWS) == 10.0
        assert Ratio("n", "s", how="max").of(self.ROWS) == 30.0
        # an arithmetic mean of the per-row ratios
        assert Ratio("n", "s", how="mean").of(self.ROWS) == pytest.approx(70 / 3)
        assert math.isnan(Ratio("n", "s", how="mean").of([]))

    def test_denominator_floors(self):
        # 4.0 - 3.96 = 0.04 is under 2% of the 4.0 s it came from
        rows = [{"n": 8, "s": 4.0, "b": 3.96}]
        assert Ratio("n", "s-b", floor_rel=0.02).of(rows) == pytest.approx(8 / 0.08)
        assert Ratio("n", "b", floor=8.0).of(rows) == 1.0
        assert math.isnan(Ratio("n", "s").of([]))


class TestGate:
    def test_higher_is_better(self):
        fig, committed = _fig(0.7), _bench(_rows(a=10, b=10))
        assert perf.gate(fig, {"g": _rows(a=10, b=10)}, committed).ok
        assert perf.gate(fig, {"g": _rows(a=7.1, b=7.1)}, committed).ok
        result = perf.gate(fig, {"g": _rows(a=6.9, b=6.9)}, committed)
        assert not result.ok
        assert (result.current, result.committed) == (pytest.approx(6.9), 10.0)

    def test_lower_is_better(self):
        fig, committed = _fig(1.3), _bench(_rows(a=10, b=10))
        assert perf.gate(fig, {"g": _rows(a=12.9, b=12.9)}, committed).ok
        assert perf.gate(fig, {"g": _rows(a=2, b=2)}, committed).ok
        assert not perf.gate(fig, {"g": _rows(a=13.1, b=13.1)}, committed).ok

    def test_subset_is_gated_against_the_same_rows(self):
        fig = _fig(0.7)
        committed = _bench(_rows(fast=100, slow=1))
        # the committed aggregate is ~50; only the measured row counts
        result = perf.gate(fig, {"g": _rows(fast=80)}, committed)
        assert result.committed == 100.0 and result.ok
        assert not perf.gate(fig, {"g": _rows(fast=60)}, committed).ok
        assert perf.gate(fig, {"g": _rows(slow=0.8)}, committed).committed == 1.0

    def test_no_gate_without_a_committed_row(self):
        fig = _fig(0.7)
        committed = _bench(_rows(a=10))
        assert perf.gate(fig, {"g": _rows(a=1, new=1)}, committed) is None
        assert perf.gate(fig, {"g": _rows(a=1)}, None) is None
        assert perf.gate(fig, {"other": _rows(a=1)}, committed) is None
        no_gate = dataclasses.replace(fig, gate=None)
        assert perf.gate(no_gate, {"g": _rows(a=1)}, committed) is None


class TestChecks:
    def test_oracle_always_bar_on_full_sweeps(self):
        fig = _fig(
            0.7,
            oracle=(("events", ">", 0),),
            bar=(("rate", ">=", 5.0),),
        )
        slow = {"g": _rows(a=1)}
        assert perf.check(fig, slow, full=False) == []
        assert perf.check(fig, slow, full=True) == ["fx g: rate = 1.0 fails >= 5.0"]
        assert perf.check(fig, {"g": []}, full=False) == ["fx g: events = 0 fails > 0"]

    def test_bar_on_subsets(self):
        fig = _fig(0.7, bar=(("rate", ">=", 5.0),), bar_on_subsets=True)
        assert perf.check(fig, {"g": _rows(a=1)}, full=False)


class TestBenchFiles:
    @pytest.mark.parametrize("key", GATED)
    def test_round_trip_matches_the_committed_layout(self, key, tmp_path):
        fig, committed = FIGURES[key], _committed(key)
        groups = _groups(committed)
        perf.write_bench(tmp_path / "bench.json", fig, groups)
        written = perf.load_bench(tmp_path / "bench.json")
        assert written["figure"] == committed["figure"]
        assert [set(r) for r in written["rows"]] == [set(r) for r in committed["rows"]]
        assert {g: set(s) for g, s in written["groups"].items()} == {
            g: set(s) for g, s in committed["groups"].items()
        }
        # the summaries recomputed from the committed rows agree with the
        # committed ones (up to the rows' rounding)
        for g, summary in committed["groups"].items():
            for name, v in summary.items():
                assert written["groups"][g][name] == pytest.approx(v, rel=1e-2, abs=1e-3)

    def test_missing_or_corrupt_file_is_no_baseline(self, tmp_path):
        assert perf.load_bench(tmp_path / "absent.json") is None
        (tmp_path / "bad.json").write_text("{not json")
        assert perf.load_bench(tmp_path / "bad.json") is None

    @pytest.mark.parametrize(
        "key,committed,rows",
        [
            ("f3", 31264.8, 240),  # t1_suite wall events/s
            ("f4", 680771, 13),  # steps/s
            ("f6", 648694, 39),  # replay events/s
            ("f7", 9982136, 4),  # streamed peak bytes
            ("f9", 59.595, 3),  # cold p50 ms
        ],
    )
    def test_gate_reads_the_committed_values(self, key, committed, rows):
        fig = FIGURES[key]
        payload = _committed(key)
        measured = _groups(payload)
        assert len(measured[fig.gate[0]]) == rows
        result = perf.gate(fig, measured, payload)
        digits = {"f3": 1, "f9": 3}.get(key, 0)
        assert round(result.committed, digits) == committed
        assert result.current == result.committed and result.ok
