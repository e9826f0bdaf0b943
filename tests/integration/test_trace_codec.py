"""Trace event codec: every event kind round-trips, and the wire format
is pinned by a committed golden file.

The trace store persists recordings across cache generations (its
TRACE_SCHEMA is deliberately independent of CACHE_SCHEMA), so the
encoded form of every event kind — including all six injected-fault
codes ``fk fd fy fw fs fc`` — is a compatibility surface.  A codec
change that breaks decoding of stored traces must show up here as a
golden-file diff, not as silent quarantining in the field.
"""

import gzip
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.program import CodeLocation, SyncKind
from repro.trace import (
    TraceStore,
    TraceStreamCorruption,
    open_trace_file,
    record_trace,
)
from repro.trace.store import _DIGEST_LEN, _TRACE_HEADER
from repro.trace.trace import _decode_event, _encode_event, _loc_parse, _loc_str
from repro.vm import events as ev

from tests.conftest import flag_handoff_program

GOLDEN = Path(__file__).parent.parent / "data" / "trace_codec_golden.json"

# -- strategies -------------------------------------------------------------

_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True)
_step = st.integers(min_value=0, max_value=2**40)
_tid = st.integers(min_value=0, max_value=255)
_addr = st.integers(min_value=0, max_value=2**32)
_value = st.integers(min_value=-(2**31), max_value=2**31)
_loop = st.integers(min_value=0, max_value=1000)
_loc = st.builds(CodeLocation, _ident, _ident, st.integers(min_value=0, max_value=999))
_kind = st.sampled_from(list(SyncKind))
_obj2 = st.none() | _addr

_events = st.one_of(
    st.builds(ev.MemRead, _step, _tid, _addr, _value, _loc, st.booleans(), st.booleans()),
    st.builds(ev.MemWrite, _step, _tid, _addr, _value, _loc, st.booleans(), st.booleans()),
    st.builds(ev.MarkedCondRead, _step, _tid, _loop, _addr, _value, _loc, st.booleans()),
    st.builds(ev.MarkedLoopEnter, _step, _tid, _loop, _loc, st.booleans()),
    st.builds(ev.MarkedLoopExit, _step, _tid, _loop, _loc, st.booleans()),
    st.builds(ev.LibEnter, _step, _tid, _ident, _kind, _addr, _loc, st.booleans(), _obj2),
    st.builds(ev.LibExit, _step, _tid, _ident, _kind, _addr, _loc, st.booleans(), _obj2),
    st.builds(ev.ThreadSpawnEvent, _step, _tid, _tid, _loc),
    st.builds(ev.ThreadJoinEvent, _step, _tid, _tid, _loc),
    st.builds(ev.ThreadStartEvent, _step, _tid),
    st.builds(ev.ThreadExitEvent, _step, _tid),
    st.builds(ev.PrintEvent, _step, _tid, _value, _loc),
    st.builds(ev.ThreadKilledEvent, _step, _tid),
    st.builds(ev.StoreDroppedEvent, _step, _tid, _addr, _value, _loc),
    st.builds(ev.StoreDelayedEvent, _step, _tid, _addr, _value, _loop, _loc),
    st.builds(ev.SpuriousWakeEvent, _step, _tid, _addr, _value),
    st.builds(ev.StarvationEvent, _step, _tid, _loop),
    st.builds(ev.StepBudgetClampedEvent, _step, _tid, _step),
)

#: every wire code the codec emits, fault codes included
ALL_CODES = {
    "r", "w", "cr", "le", "lx", "li", "lo", "sp", "jn", "ts", "tx", "pr",
    "fk", "fd", "fy", "fw", "fs", "fc",
}


class TestRoundTrip:
    @settings(max_examples=400)
    @given(_events)
    def test_decode_inverts_encode(self, event):
        assert _decode_event(_encode_event(event)) == event

    @settings(max_examples=200)
    @given(_events)
    def test_json_transport_is_lossless(self, event):
        # The store ships events through JSON lines; ints/strings/None
        # must survive serialization, not merely the in-process lists.
        wire = json.loads(json.dumps(_encode_event(event)))
        assert _decode_event(wire) == event
        assert _encode_event(_decode_event(wire)) == _encode_event(event)

    @settings(max_examples=200)
    @given(_loc)
    def test_location_round_trip(self, loc):
        assert _loc_parse(_loc_str(loc)) == loc

    @given(_events)
    @settings(max_examples=100)
    def test_codes_are_known(self, event):
        assert _encode_event(event)[0] in ALL_CODES


def _golden_events():
    """One representative instance per wire code, in golden-file order."""
    loc = CodeLocation("main", "entry", 3)
    return [
        ev.MemRead(10, 1, 4096, 7, loc, False, False),
        ev.MemWrite(11, 2, 4097, -1, loc, True, True),
        ev.MarkedCondRead(12, 1, 5, 4098, 0, loc, False),
        ev.MarkedLoopEnter(13, 1, 5, loc, False),
        ev.MarkedLoopExit(14, 1, 5, loc, True),
        ev.LibEnter(15, 2, "lock_acquire", SyncKind.LOCK_ACQUIRE, 8192, loc, False, None),
        ev.LibExit(16, 2, "cv_wait", SyncKind.CV_WAIT, 8193, loc, True, 8200),
        ev.ThreadSpawnEvent(17, 0, 1, loc),
        ev.ThreadJoinEvent(18, 0, 1, loc),
        ev.ThreadStartEvent(19, 1),
        ev.ThreadExitEvent(20, 1),
        ev.PrintEvent(21, 1, 42, loc),
        ev.ThreadKilledEvent(22, 3),
        ev.StoreDroppedEvent(23, 3, 4099, 9, loc),
        ev.StoreDelayedEvent(24, 3, 4100, 9, 6, loc),
        ev.SpuriousWakeEvent(25, 3, 8194, 1),
        ev.StarvationEvent(26, 3, 50),
        ev.StepBudgetClampedEvent(27, 0, 100000),
    ]


class TestGoldenFile:
    """The committed golden file pins the wire format.

    A failure here means the codec changed shape: either fix the codec
    or bump TRACE_SCHEMA *and* regenerate the golden file deliberately.
    """

    def test_golden_covers_every_code(self):
        golden = json.loads(GOLDEN.read_text())
        assert {row[0] for row in golden} == ALL_CODES

    def test_encode_matches_golden(self):
        golden = json.loads(GOLDEN.read_text())
        assert [_encode_event(e) for e in _golden_events()] == golden

    def test_golden_decodes_to_expected_events(self):
        golden = json.loads(GOLDEN.read_text())
        assert [_decode_event(row) for row in golden] == _golden_events()


# -- truncated / corrupt stream family --------------------------------------

_HEADER_LEN = _TRACE_HEADER.size + _DIGEST_LEN


def _reframe(data: bytes, payload: bytes) -> bytes:
    """Swap in a new payload under a *valid* checksum.

    The frame digest passes, so the corruption is only discoverable by
    actually decoding — exactly the failure mode a torn write or a
    buggy producer leaves behind.
    """
    return data[:_TRACE_HEADER.size] + hashlib.sha256(payload).digest() + payload


def _cut_mid_gzip_member(data: bytes) -> bytes:
    """Truncate the gzip payload mid-member (checksum recomputed)."""
    payload = data[_HEADER_LEN:]
    return _reframe(data, payload[: int(len(payload) * 0.6)])


def _cut_mid_jsonl_line(data: bytes) -> bytes:
    """Cut the decompressed JSONL mid-line, recompress as a *complete*
    gzip member (checksum recomputed) — the gzip layer is happy, the
    JSON layer is not."""
    raw = gzip.decompress(data[_HEADER_LEN:])
    third_newline = -1
    for _ in range(3):
        third_newline = raw.index(b"\n", third_newline + 1)
    cut = raw[: third_newline + 6]  # a few bytes into the fourth line
    assert not cut.endswith(b"\n")
    return _reframe(data, gzip.compress(cut))


def _drop_last_event_line(data: bytes) -> bytes:
    """Remove one complete event line — well-formed JSONL whose count
    disagrees with the metadata line."""
    raw = gzip.decompress(data[_HEADER_LEN:])
    lines = raw.rstrip(b"\n").split(b"\n")
    return _reframe(data, gzip.compress(b"\n".join(lines[:-1]) + b"\n"))


_CUTS = {
    "mid-gzip-member": _cut_mid_gzip_member,
    "mid-jsonl-line": _cut_mid_jsonl_line,
}


def _corrupted_store(tmp_path, corrupt):
    store = TraceStore(tmp_path)
    store.put("k", record_trace(flag_handoff_program(), seed=2))
    path = store._path("k")
    path.write_bytes(corrupt(path.read_bytes()))
    return store


class TestCorruptStreams:
    """Checksum-valid but malformed payloads quarantine as structured
    misses in *both* decoders — the materializing ``get`` and the
    streaming ``open_stream`` — never as exceptions reaching a sweep."""

    @pytest.mark.parametrize("cut", sorted(_CUTS))
    def test_materializing_decoder_quarantines(self, tmp_path, cut):
        store = _corrupted_store(tmp_path, _CUTS[cut])
        assert store.get("k") is None  # structured miss, no raise
        assert store.misses == 1
        assert len(store.quarantined) == 1
        assert "undecodable" in store.quarantined[0].reason
        notes = list((tmp_path / "corrupt").glob("*.note.json"))
        assert len(notes) == 1
        assert store.get("k") is None  # entry is gone, clean miss now

    @pytest.mark.parametrize("cut", sorted(_CUTS))
    def test_streaming_decoder_quarantines(self, tmp_path, cut):
        store = _corrupted_store(tmp_path, _CUTS[cut])
        stream = store.open_stream("k")
        if stream is None:
            # the cut landed inside the metadata line: quarantined at open
            assert len(store.quarantined) == 1
        else:
            with pytest.raises(TraceStreamCorruption, match="undecodable"):
                for _ in stream.row_batches():
                    pass
            store.quarantine_stream(stream, "undecodable mid-stream")
        assert list((tmp_path / "corrupt").glob("*.note.json"))
        assert store.open_stream("k") is None  # clean miss now

    def test_racing_readers_leave_a_replaced_entry_alone(self, tmp_path):
        # Two workers stream one corrupt key.  The first quarantines it
        # and re-records; the second's quarantine must neither raise nor
        # move the fresh entry.
        store = _corrupted_store(tmp_path, _cut_mid_jsonl_line)
        first, second = store.open_stream("k"), store.open_stream("k")
        for stream in (first, second):
            with pytest.raises(TraceStreamCorruption):
                for _ in stream.row_batches():
                    pass
        store.quarantine_stream(first, "undecodable mid-stream")
        store.quarantine_stream(second, "undecodable mid-stream")  # already gone
        assert len(store.quarantined) == 1
        store.put("k", record_trace(flag_handoff_program(), seed=2))
        store.quarantine_stream(second, "undecodable mid-stream")  # replaced
        assert len(store.quarantined) == 1
        fresh = store.open_stream("k")
        assert fresh is not None
        assert sum(len(chunk) for chunk in fresh.row_batches()) == len(fresh.columns)

    def test_event_count_mismatch_is_corruption(self, tmp_path):
        # A payload that decodes fine but holds fewer events than its
        # metadata claims: the count check is the backstop.
        store = _corrupted_store(tmp_path, _drop_last_event_line)
        stream = store.open_stream("k")
        assert stream is not None
        with pytest.raises(TraceStreamCorruption, match="event-count-mismatch"):
            for _ in stream.row_batches():
                pass

    def test_bare_file_corruption_raises_structurally(self, tmp_path):
        store = TraceStore(tmp_path)
        store.put("k", record_trace(flag_handoff_program(), seed=2))
        path = store._path("k")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # bit-flip without reframing: checksum mismatch
        bare = tmp_path / "copy.trc"
        bare.write_bytes(bytes(blob))
        with pytest.raises(TraceStreamCorruption, match="checksum-mismatch"):
            open_trace_file(bare)

    def test_intact_entry_streams_identically_to_get(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = record_trace(flag_handoff_program(), seed=2)
        store.put("k", trace)
        stream = store.open_stream("k")
        streamed = [row for chunk in stream.row_batches() for row in chunk]
        assert streamed == list(store.get("k").columns.rows())
