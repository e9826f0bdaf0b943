"""The built row kernel's no-call exits, driven through ``consume_batch``.

Kernel-level twins of :mod:`tests.detectors.test_epoch_fast_path`: the
same-epoch hit, the classified-flag read and the already-reported pair,
fed as rows to a :class:`RaceDetector` built for ``drd`` and for
``helgrind-lib-spin7``; and the cycle collector's pause around a batch.
"""

import gc
from dataclasses import replace

import pytest

from repro.detectors import RaceDetector, ToolConfig
from repro.isa.program import CodeLocation
from repro.vm.events import COND_READ, LOOP_ENTER, LOOP_EXIT, READ, WRITE

L = lambda i: CodeLocation("f", "b", i)
DATA, FLAG, OTHER = 0x100, 0x200, 0x300
PRESETS = ("drd", "helgrind-lib-spin7")


def read(tid, addr, loc, value=0):
    return (READ, tid, addr, value, loc, False, False, None)


def write(tid, addr, loc, value=1):
    return (WRITE, tid, addr, value, loc, False, False, None)


def marker(kind, tid, loop_id, addr=0, value=0):
    return (kind, tid, addr, value, L(9), False, False, loop_id)


def _record_state(r):
    return (r.clock, r.loc, r.atomic, r.lockset, r.version)


def _count_reports(det, monkeypatch):
    calls = []
    report = det.algorithm._report

    def counting(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(det.algorithm, "_report", counting)
    return calls


@pytest.mark.parametrize("preset", PRESETS)
def test_same_epoch_hit_leaves_record_and_counts_the_access(preset):
    det = RaceDetector(ToolConfig.preset(preset))
    algo = det.algorithm
    det.consume_batch([write(1, DATA, L(0)), read(2, DATA, L(1))])
    record = algo.shadow[DATA].reads[2]
    before, checked = _record_state(record), algo.accesses_checked
    det.consume_batch([read(2, DATA, L(1))] * 3)
    assert algo.shadow[DATA].reads[2] is record
    assert _record_state(record) == before
    assert algo.accesses_checked == checked + 3
    assert det.events_accepted == 5


@pytest.mark.parametrize("variable_level", [True, False])
def test_classified_flag_read_is_matched_but_not_checked(variable_level):
    cfg = replace(ToolConfig.preset("helgrind-lib-spin7"), adhoc_variable_level=variable_level)
    det = RaceDetector(cfg)
    algo, adhoc = det.algorithm, det.adhoc
    det.consume_batch(
        [
            write(1, FLAG, L(0), value=1),
            marker(LOOP_ENTER, 2, 0),
            marker(COND_READ, 2, 0, FLAG, 1),
            marker(LOOP_EXIT, 2, 0),
        ]
    )
    assert FLAG in adhoc.sync_addrs and adhoc.edges == 1
    checked = algo.accesses_checked
    # A plain read of the classified flag, outside the loop, seeing a
    # fresh store of the flag by the other thread.
    det.consume_batch([write(1, FLAG, L(0), value=2), read(2, FLAG, L(1), value=2)])
    assert algo.accesses_checked == checked  # suppressed: neither access checked
    assert 2 not in algo.shadow[FLAG].reads
    assert adhoc.edges == (2 if variable_level else 1)
    assert algo.adhoc_edges == adhoc.edges
    assert not det.report.warnings


@pytest.mark.parametrize("preset", PRESETS)
def test_duplicate_pair_never_reaches_report(preset, monkeypatch):
    det = RaceDetector(ToolConfig.preset(preset))
    calls = _count_reports(det, monkeypatch)
    det.consume_batch([write(1, DATA, L(0)), read(2, DATA, L(1))])
    assert len(calls) == 1 and len(det.report.warnings) == 1
    checked = det.algorithm.accesses_checked
    # Each store to OTHER ticks thread 2, so every re-read of DATA misses
    # the same-epoch cache and re-finds the reported pair.
    det.consume_batch([write(2, OTHER, L(2)), read(2, DATA, L(1))] * 4)
    assert det.algorithm.accesses_checked == checked + 8
    assert len(calls) == 1
    assert det.report.raw_count == 1


@pytest.mark.parametrize("preset", PRESETS)
def test_long_run_still_reports_the_second_offense(preset, monkeypatch):
    det = RaceDetector(replace(ToolConfig.preset(preset), long_run=True))
    calls = _count_reports(det, monkeypatch)
    det.consume_batch([write(1, DATA, L(0)), read(2, DATA, L(1))])
    # the first offense is tolerated and the record stays uncached
    assert len(calls) == 1 and not det.report.warnings
    det.consume_batch([read(2, DATA, L(1))])
    assert len(calls) == 2 and len(det.report.warnings) == 1
    # the pair is now in cell.reported: re-reads, cached or not, stop
    # before the report
    det.consume_batch([read(2, DATA, L(1)), write(2, OTHER, L(2)), read(2, DATA, L(1))])
    assert len(calls) == 2 and len(det.report.warnings) == 1


def test_batch_pauses_the_cycle_collector_and_restores_it():
    det = RaceDetector(ToolConfig.preset("drd"))
    seen = []

    def rows():
        seen.append(gc.isenabled())
        yield read(1, DATA, L(0))

    assert gc.isenabled()
    det.consume_batch(rows())
    assert seen == [False] and gc.isenabled()
    gc.disable()
    try:
        det.consume_batch(rows())
        assert not gc.isenabled()  # a caller's own pause is kept
    finally:
        gc.enable()
