"""Unit tests: the append-only JSONL journal and event serialization."""

import json
import logging
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import JournalReader
from repro.core.measurement import (
    NONFINITE_MASK,
    NONFINITE_REJECT,
    MeasurementBatch,
    MetricWindow,
)
from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.exceptions import JournalError
from repro.service import JournalStore, event_from_payload, event_to_payload
from repro.service.store import _encode_record, decode_journal_line, record_crc


@dataclass(frozen=True)
class FakeNode:
    node_id: str


def make_event(node_ids, kind=EventKind.JOB_ALLOCATION):
    nodes = tuple(FakeNode(n) for n in node_ids)
    statuses = tuple(
        NodeStatus(node_id=n, covariates=np.arange(3, dtype=float))
        for n in node_ids)
    return ValidationEvent(kind=kind, nodes=nodes, statuses=statuses,
                           duration_hours=36.0)


class TestEventSerialization:
    def test_round_trip(self):
        event = make_event(["n1", "n2"], kind=EventKind.INCIDENT_REPORTED)
        index = {"n1": FakeNode("n1"), "n2": FakeNode("n2")}
        rebuilt = event_from_payload(event_to_payload(event), index)
        assert rebuilt.kind is EventKind.INCIDENT_REPORTED
        assert [n.node_id for n in rebuilt.nodes] == ["n1", "n2"]
        assert rebuilt.duration_hours == 36.0
        for status, original in zip(rebuilt.statuses, event.statuses):
            np.testing.assert_array_equal(status.covariates,
                                          original.covariates)

    def test_payload_is_json_serializable(self):
        payload = event_to_payload(make_event(["n1"]))
        assert json.loads(json.dumps(payload)) == payload

    def test_unknown_node_raises(self):
        event = make_event(["n1"])
        with pytest.raises(JournalError, match="unknown node"):
            event_from_payload(event_to_payload(event), {})

    def test_malformed_payload_raises(self):
        with pytest.raises(JournalError, match="malformed"):
            event_from_payload({"kind": "job-allocation"}, {})


class TestMeasurementBatchJournalRoundTrip:
    """A provenance batch journaled by the service must survive a
    process kill byte-identically: values, polarity, sanitization and
    quarantine state all come back off the journal, not out of band."""

    def make_batch(self):
        clean = MetricWindow(
            node_id="n1", benchmark="mem-bw", metric="bandwidth",
            values=np.array([101.0, 99.5, 100.2]), higher_is_better=True,
        ).mark_sanitized()
        dirty = MetricWindow(
            node_id="n2", benchmark="mem-bw", metric="bandwidth",
            values=np.array([1.0e5, 2.0e5]), higher_is_better=True,
        ).mark_sanitized(quarantined=True, faults=("unit-scale",))
        return MeasurementBatch(benchmark="mem-bw", metric="bandwidth",
                                windows=(clean, dirty))

    def test_provenance_survives_simulated_kill(self, tmp_path):
        batch = self.make_batch()
        store = JournalStore(tmp_path)
        store.append("measurement-batch", batch.to_payload())
        del store  # simulated kill: only the journal file survives

        recovered = JournalStore(tmp_path).replay()
        assert [r.kind for r in recovered] == ["measurement-batch"]
        rebuilt = MeasurementBatch.from_payload(recovered[0].payload)

        assert rebuilt.benchmark == batch.benchmark
        assert rebuilt.metric == batch.metric
        assert rebuilt.node_ids == ("n1", "n2")
        assert rebuilt.sanitized
        assert rebuilt.quarantined_nodes == ("n2",)
        assert rebuilt.nonfinite_policy == NONFINITE_REJECT
        for rebuilt_w, original_w in zip(rebuilt.windows, batch.windows):
            np.testing.assert_array_equal(rebuilt_w.values,
                                          original_w.values)
            assert rebuilt_w.higher_is_better == original_w.higher_is_better
            assert rebuilt_w.sanitized == original_w.sanitized
            assert rebuilt_w.quarantined == original_w.quarantined
            assert rebuilt_w.faults == original_w.faults
            assert rebuilt_w.schema_version == original_w.schema_version

    def test_raw_batch_round_trips_with_mask_policy(self, tmp_path):
        raw = MetricWindow(node_id="n1", benchmark="b", metric="m",
                           values=np.array([1.0, 2.0]))
        batch = MeasurementBatch(benchmark="b", metric="m", windows=(raw,))
        store = JournalStore(tmp_path)
        store.append("measurement-batch", batch.to_payload())
        rebuilt = MeasurementBatch.from_payload(
            JournalStore(tmp_path).replay()[0].payload)
        assert not rebuilt.sanitized
        assert rebuilt.nonfinite_policy == NONFINITE_MASK

    def test_payload_is_json_round_trippable(self):
        payload = self.make_batch().to_payload()
        assert json.loads(json.dumps(payload)) == payload

    def test_malformed_batch_payload_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            MeasurementBatch.from_payload({"benchmark": "b"})


class TestJournalStore:
    def test_append_and_replay(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("alpha", {"x": 1})
        store.append("beta", {"y": [1, 2]})
        records = store.replay()
        assert [(r.seq, r.kind) for r in records] == [(1, "alpha"), (2, "beta")]
        assert records[1].payload == {"y": [1, 2]}

    def test_sequence_continues_across_restart(self, tmp_path):
        JournalStore(tmp_path).append("alpha", {})
        reopened = JournalStore(tmp_path)
        assert reopened.next_seq == 2
        assert reopened.append("beta", {}) == 2

    def test_empty_directory_replays_nothing(self, tmp_path):
        assert JournalStore(tmp_path).replay() == []

    def test_truncated_last_line_is_skipped_with_warning(self, tmp_path,
                                                         caplog):
        store = JournalStore(tmp_path)
        store.append("alpha", {"x": 1})
        store.append("beta", {"x": 2})
        # Simulate a crash mid-append: chop the final line in half.
        text = store.path.read_text()
        store.path.write_text(text[:len(text) - 12])
        with caplog.at_level(logging.WARNING):
            records = JournalStore(tmp_path).replay()
        assert [r.kind for r in records] == ["alpha"]
        assert any("corrupted journal line" in r.message
                   for r in caplog.records)

    def test_corrupt_middle_line_is_skipped(self, tmp_path, caplog):
        store = JournalStore(tmp_path)
        store.append("alpha", {})
        with store.path.open("a") as handle:
            handle.write("{not json at all\n")
        store.append("beta", {})
        with caplog.at_level(logging.WARNING):
            records = JournalStore(tmp_path).replay()
        assert [r.kind for r in records] == ["alpha", "beta"]

    def test_wrong_shape_line_is_skipped(self, tmp_path, caplog):
        store = JournalStore(tmp_path)
        with store.path.open("a") as handle:
            handle.write(json.dumps({"seq": 1}) + "\n")  # missing fields
        with caplog.at_level(logging.WARNING):
            assert JournalStore(tmp_path).replay() == []
        assert any("corrupted journal line" in r.message
                   for r in caplog.records)

    def test_seq_recovery_ignores_corrupt_tail(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("alpha", {})
        with store.path.open("a") as handle:
            handle.write('{"seq": 99, "kind": "beta"')  # truncated
        reopened = JournalStore(tmp_path)
        assert reopened.next_seq == 2


class TestChecksums:
    def test_every_record_carries_a_crc(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("alpha", {"x": 1})
        raw = json.loads(store.path.read_text())
        assert raw["crc"] == record_crc(1, "alpha", {"x": 1})

    def test_decodable_but_corrupted_line_is_skipped(self, tmp_path, caplog):
        """Bit rot that still parses as JSON: without the checksum this
        record would silently replay with the wrong payload."""
        store = JournalStore(tmp_path)
        store.append("alpha", {"x": 1})
        store.append("beta", {"x": 2})
        lines = store.path.read_text().splitlines()
        raw = json.loads(lines[0])
        raw["payload"]["x"] = 7             # still valid JSON, old crc
        lines[0] = json.dumps(raw)
        store.path.write_text("\n".join(lines) + "\n")
        reopened = JournalStore(tmp_path)
        with caplog.at_level(logging.WARNING):
            records = reopened.replay()
        assert [r.kind for r in records] == ["beta"]
        assert reopened.corrupt_records == 1
        assert any("checksum-mismatched" in r.message for r in caplog.records)

    def test_pre_checksum_records_still_replay(self, tmp_path):
        store = JournalStore(tmp_path)
        with store.path.open("a") as handle:
            handle.write(json.dumps({"seq": 1, "kind": "legacy",
                                     "payload": {"x": 1}}) + "\n")
        records = JournalStore(tmp_path).replay()
        assert [(r.seq, r.kind, r.payload)
                for r in records] == [(1, "legacy", {"x": 1})]

    @pytest.mark.parametrize("separator", ["\r", "\x85", "\u2028",
                                           "\u2029"])
    def test_replay_splits_lines_like_the_reader(self, tmp_path,
                                                 separator):
        """Only ``\\n`` ends a line, for recovery as for the reader: a
        character ``str.splitlines`` would also split on stays inside
        its line -- ``\\r`` as JSON whitespace, the others inside a
        string of a hand-written, non-ASCII line."""
        payload = {"node_id": "n1", "new": "healthy"}
        if separator != "\r":
            payload["reason"] = f"a{separator}b"
        line = json.dumps({"seq": 2, "kind": "transition",
                           "payload": payload,
                           "crc": record_crc(2, "transition", payload)},
                          ensure_ascii=False)
        if separator == "\r":
            line = line.replace(", ", ",\r", 1)
        store = JournalStore(tmp_path)
        store.append("transition", {"node_id": "n0"})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        records = JournalStore(tmp_path).replay()
        assert [r.payload for r in records] == [{"node_id": "n0"}, payload]
        assert JournalReader(tmp_path).read_all() == records

    def test_crc_is_format_independent(self):
        assert (record_crc(1, "k", {"a": 1, "b": 2})
                == record_crc(1, "k", {"b": 2, "a": 1}))
        assert record_crc(1, "k", {"a": 1}) != record_crc(2, "k", {"a": 1})


_json_leaves = (st.none() | st.booleans() | st.text(max_size=8)
                | st.integers(-2**53, 2**53)
                | st.floats(allow_nan=False, allow_infinity=False))
_json_values = st.recursive(
    _json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)
_kinds = st.one_of(st.sampled_from(['q"uote', "ünï-kind", "back\\slash"]),
                   st.text(min_size=1, max_size=10))


def _reference_decode(line: str):
    """The line decoder as it stood before the fast path: one
    ``json.loads``, a copied payload, and the CRC checked against the
    line's own payload bytes or, failing that, by re-encoding."""
    if not line.strip():
        return None, "empty"
    try:
        raw = json.loads(line)
        record = (int(raw["seq"]), str(raw["kind"]), dict(raw["payload"]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
        return None, "corrupt-line"
    if "crc" in raw:
        try:
            crc = int(raw["crc"])
        except (TypeError, ValueError):
            # The old decoder raised here; "never raises" makes a
            # checksum that is no integer a corrupt line.
            return None, "corrupt-line"
        seq, kind, payload = record
        canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        kind_json = canonical.encode(kind)
        head = f'{{"seq":{seq},"kind":{kind_json},"payload":'
        tail = f',"crc":{crc}}}'
        fast = False
        if line.startswith(head) and line.endswith(tail):
            body = line[len(head):len(line) - len(tail)]
            fast = zlib.crc32(f"[{seq},{kind_json},{body}]".encode()) == crc
        if not fast and crc != record_crc(seq, kind, payload):
            return None, "crc-mismatch"
    return record, "ok"


def _outcome(decoded):
    """A ``(record, status)`` pair in comparable form (``repr`` so that
    NaN payload values compare equal to themselves)."""
    record, status = decoded
    if record is None:
        return None, status
    if not isinstance(record, tuple):
        record = (record.seq, record.kind, record.payload)
    seq, kind, payload = record
    return (type(seq), seq, type(kind), kind, type(payload),
            repr(payload)), status


class TestRecordCodec:
    """The line codec: the payload is encoded once for the line and its
    checksum, and every reader -- new, pre-change, or an independent
    re-derivation of the CRC -- agrees on what the line holds."""

    @given(seq=st.integers(1, 10**9), kind=_kinds,
           payload=st.dictionaries(st.text(max_size=6), _json_values,
                                   max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_compatibility(self, seq, kind, payload):
        line = _encode_record(seq, kind, payload)
        raw = json.loads(line)
        # (a) the CRC is the one the parsed record re-derives.
        assert raw["crc"] == record_crc(seq, kind, raw["payload"])
        # (b) the shared decoder accepts it, payload intact.
        record, status = decode_journal_line(line)
        assert status == "ok"
        assert (record.seq, record.kind, record.payload) == (
            seq, kind, payload)
        # (c) the same record in the pre-change line format still decodes.
        old = json.dumps({"seq": seq, "kind": kind, "payload": payload,
                          "crc": record_crc(seq, kind, payload)})
        assert decode_journal_line(old) == (record, "ok")
        # (e) append and rewrite write byte-identical lines.
        with tempfile.TemporaryDirectory() as directory:
            appended = JournalStore(Path(directory) / "appended")
            appended.append(kind, payload)
            appended.append(kind, payload)
            appended.close()
            rewritten = JournalStore(Path(directory) / "rewritten")
            rewritten.rewrite([(kind, payload)] * 2)
            assert (appended.path.read_bytes()
                    == rewritten.path.read_bytes())

    @given(payload=st.dictionaries(
        st.text("abxyz", max_size=6),
        st.integers(0, 10**6) | st.lists(st.integers(0, 10**6), min_size=1),
        min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_a_changed_digit_is_a_crc_mismatch(self, payload):
        # (d) one digit inside the payload bytes changes; the line still
        # parses, so only the checksum can catch it.
        line = _encode_record(4, "k", payload)
        start = line.index('"payload":') + len('"payload":')
        end = line.rindex(',"crc":')
        digit = next(i for i in range(start, end) if line[i].isdigit())
        flipped = "2" if line[digit] == "1" else "1"    # never a leading 0
        tampered = line[:digit] + flipped + line[digit + 1:]
        assert json.loads(tampered)["payload"] != payload
        assert decode_journal_line(tampered) == (None, "crc-mismatch")

    @given(seq=st.integers(1, 10**9), kind=_kinds,
           payload=st.dictionaries(st.text(max_size=6), _json_values,
                                   max_size=5),
           cut=st.floats(0.0, 1.0), pad=st.sampled_from([" ", "\t", "\r"]))
    @settings(max_examples=150, deadline=None)
    def test_decoder_agrees_with_the_reference(self, seq, kind, payload,
                                               cut, pad):
        line = _encode_record(seq, kind, payload)
        raw = json.loads(line)
        payload_at = line.index('"payload":') + len('"payload":')
        variants = [
            line,
            pad + line, line + pad, pad + line + pad,
            json.dumps({"seq": seq, "kind": kind, "payload": payload}),
            json.dumps({**raw, "payload": sorted(payload.items())}),
            line[:int(len(line) * cut)],
            line + '{"seq":1}', line + " x",
            line[:payload_at] + "\x00" + line[payload_at + 1:],
        ]
        if len(line) > payload_at + 2:
            flip = payload_at + 1
            variants.append(line[:flip] + chr(ord(line[flip]) ^ 1)
                            + line[flip + 1:])
        for variant in variants:
            assert _outcome(decode_journal_line(variant)) == _outcome(
                _reference_decode(variant)), variant

    @pytest.mark.parametrize("line", [
        "", "   ", "\t\r",
        '{"seq":1,"kind":"k","payload":{"x":NaN},"crc":0}',
        '{"seq":1,"kind":"k","payload":{"x":NaN}}',
        '{"seq":1,"kind":"k","payload":{"x":Infinity,"y":-Infinity}}',
        '{"seq":1,"kind":"k","payload":[["a",1],["b",2]]}',
        '{"seq":1,"kind":"k","payload":[["a",1],["b"]]}',
        '{"seq":1,"kind":"k","payload":"ab"}',
        '{"seq":1,"kind":"k","payload":null}',
        '{"seq":"7","kind":"k","payload":{}}',
        '{"seq":1.5,"kind":"k","payload":{}}',
        '{"seq":1,"kind":"k"}',
        '[1,"k",{}]',
        '{"seq":1,"kind":"k","payload":{}} {"seq":2}',
        '{"seq":1,"kind":"k","payload":{},"crc":"12"}',
        '{"seq":1,"kind":"k","payload":{},"crc":null}',
    ] + [
        # Escaped non-ASCII kinds, in the canonical shape and not.
        _encode_record(3, "ünï", {"a": [1, 2.5]}),
        _encode_record(3, "ünï", {"a": 1}).replace("\\u00fc", "ü"),
        json.dumps({"seq": 3, "kind": "ünï", "payload": {},
                    "crc": record_crc(3, "ünï", {})}, ensure_ascii=False),
        _encode_record(5, "k", {"x": float("nan"), "y": float("inf")}),
    ])
    def test_edge_lines_agree_with_the_reference(self, line):
        assert _outcome(decode_journal_line(line)) == _outcome(
            _reference_decode(line))


class TestFsync:
    def test_append_returns_seq_on_both_paths(self, tmp_path):
        buffered = JournalStore(tmp_path / "buffered", fsync=False)
        durable = JournalStore(tmp_path / "durable", fsync=True)
        assert buffered.append("alpha", {"x": 1}) == 1
        assert durable.append("alpha", {"x": 1}) == 1
        assert buffered.append("beta", {}) == 2
        assert durable.append("beta", {}) == 2
        assert ([r.kind for r in buffered.replay()]
                == [r.kind for r in durable.replay()]
                == ["alpha", "beta"])

    def test_per_append_override(self, tmp_path):
        store = JournalStore(tmp_path, fsync=False)
        assert store.append("alpha", {}, fsync=True) == 1
        assert store.append("beta", {}, fsync=False) == 2
        assert len(store.replay()) == 2

    def test_append_failure_raises_and_preserves_seq(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("alpha", {})
        store.path.unlink()
        store.path.mkdir()  # opening the "file" for append now fails
        with pytest.raises(JournalError, match="cannot append"):
            store.append("beta", {})
        assert store.next_seq == 2  # the failed append burned no seq


class TestRewrite:
    def test_rewrite_replaces_journal_and_restarts_seqs(self, tmp_path):
        store = JournalStore(tmp_path)
        for i in range(10):
            store.append("noise", {"i": i})
        count = store.rewrite([("snapshot", {"s": 1}),
                               ("event-enqueued", {"event_id": 4})])
        assert count == 2
        records = store.replay()
        assert [(r.seq, r.kind) for r in records] == [
            (1, "snapshot"), (2, "event-enqueued")]
        assert store.next_seq == 3

    def test_rewrite_leaves_no_temp_file(self, tmp_path):
        store = JournalStore(tmp_path)
        store.append("alpha", {})
        store.rewrite([("snapshot", {})])
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]

    def test_rewritten_records_are_checksummed(self, tmp_path):
        store = JournalStore(tmp_path)
        store.rewrite([("snapshot", {"s": 1})])
        raw = json.loads(store.path.read_text())
        assert raw["crc"] == record_crc(1, "snapshot", {"s": 1})

    def test_reopened_store_continues_after_rewrite(self, tmp_path):
        store = JournalStore(tmp_path)
        for i in range(5):
            store.append("noise", {"i": i})
        store.rewrite([("snapshot", {})])
        reopened = JournalStore(tmp_path)
        assert reopened.append("fresh", {}) == 2


class TestHeldAppendHandle:
    """The store keeps its append handle open between records; none of
    the guarantees reopening per record gave may go with the reopen."""

    def test_appends_reuse_one_open(self, tmp_path, monkeypatch):
        store = JournalStore(tmp_path)
        opens = []
        original = type(store.path).open

        def counting_open(path, *args, **kwargs):
            opens.append(path)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(type(store.path), "open", counting_open)
        for i in range(50):
            store.append("noise", {"i": i})
        assert len(opens) == 1
        assert len(store.replay()) == 50

    def test_append_after_rewrite_lands_in_the_new_file(self, tmp_path):
        store = JournalStore(tmp_path)
        for i in range(5):
            store.append("noise", {"i": i})
        store.rewrite([("snapshot", {"s": 1}),
                       ("event-enqueued", {"event_id": 4})])
        assert store.append("fresh", {}) == 3
        assert [(r.seq, r.kind) for r in JournalStore(tmp_path).replay()] == [
            (1, "snapshot"), (2, "event-enqueued"), (3, "fresh")]

    def test_journal_replaced_from_outside_is_not_written_as_an_orphan(
            self, tmp_path):
        """Another store compacts the journal (rename over the path):
        the next append must follow the path, not the old inode."""
        writer = JournalStore(tmp_path)
        writer.append("alpha", {})
        JournalStore(tmp_path).rewrite([("snapshot", {})])
        writer.append("beta", {})
        assert [r.kind for r in JournalStore(tmp_path).replay()] == [
            "snapshot", "beta"]

    def test_interleaved_stores_leave_every_line_intact(self, tmp_path):
        first, second = JournalStore(tmp_path), JournalStore(tmp_path)
        for i in range(100):
            (first if i % 2 == 0 else second).append(
                "noise", {"i": i, "pad": "x" * (i * 7 % 300)})
        lines = first.path.read_text().splitlines()
        assert len(lines) == 100
        decoded = [decode_journal_line(line) for line in lines]
        assert all(status == "ok" for _record, status in decoded)
        assert [record.payload["i"] for record, _ in decoded] == list(
            range(100))

    def test_fsync_still_forces_every_append(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: (synced.append(fd), real_fsync(fd)))
        durable = JournalStore(tmp_path / "durable", fsync=True)
        for i in range(5):
            durable.append("alpha", {"i": i})
        assert len(synced) == 5
        buffered = JournalStore(tmp_path / "buffered")
        buffered.append("alpha", {})
        assert len(synced) == 5
        buffered.append("beta", {}, fsync=True)
        assert len(synced) == 6

    def test_every_record_is_on_disk_when_append_returns(self, tmp_path):
        store = JournalStore(tmp_path)
        for i in range(3):
            store.append("alpha", {"i": i})
            # Read through a second descriptor: nothing may sit in the
            # held handle's buffer.
            assert len(store.path.read_text().splitlines()) == i + 1

    def test_close_is_idempotent_and_the_store_stays_usable(self, tmp_path):
        store = JournalStore(tmp_path)
        store.close()
        store.append("alpha", {})
        store.close()
        store.close()
        assert store.append("beta", {}) == 2
        assert [r.kind for r in store.replay()] == ["alpha", "beta"]

    def test_no_descriptor_leaks_across_many_stores(self, tmp_path):
        def open_descriptors() -> int:
            return len(os.listdir("/proc/self/fd"))

        before = open_descriptors()
        for i in range(1000):
            store = JournalStore(tmp_path / f"j{i % 10}")
            store.append("alpha", {"i": i})
            if i % 2:
                store.close()       # else: dropped with its handle open
        del store
        assert open_descriptors() <= before


class TestJournalIsReadOnce:
    """Opening a store decodes nothing; the next seq (1 + the highest
    seq of any valid record on disk) is learned from the first full
    read, or from one scan when an append comes first."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        from repro.service import store as store_module
        calls = []

        def counting(line, **kwargs):
            calls.append(line)
            return decode_journal_line(line, **kwargs)

        monkeypatch.setattr(store_module, "decode_journal_line", counting)
        return calls

    @staticmethod
    def seed(directory, count=6):
        store = JournalStore(directory)
        for i in range(count):
            store.append("noise", {"i": i})
        store.close()

    def test_open_then_replay_decodes_each_line_once(self, tmp_path,
                                                     decodes):
        self.seed(tmp_path)
        del decodes[:]
        store = JournalStore(tmp_path)
        assert decodes == []
        assert len(store.replay()) == 6
        assert store.append("fresh", {}) == 7
        assert store.next_seq == 8
        assert len(decodes) == 6

    def test_append_first_scans_once(self, tmp_path, decodes):
        self.seed(tmp_path)
        del decodes[:]
        store = JournalStore(tmp_path)
        assert store.append("fresh", {}) == 7
        assert store.append("fresher", {}) == 8
        assert len(decodes) == 6
        assert [r.seq for r in JournalStore(tmp_path).replay()] == list(
            range(1, 9))

    def test_next_seq_first_scans_once(self, tmp_path, decodes):
        self.seed(tmp_path)
        del decodes[:]
        store = JournalStore(tmp_path)
        assert store.next_seq == 7
        assert store.append("fresh", {}) == 7
        assert len(decodes) == 6

    def test_highest_seq_wins_not_the_last_line(self, tmp_path):
        store = JournalStore(tmp_path)
        with store.path.open("a") as handle:
            for seq in (1, 9, 3):
                handle.write(json.dumps({
                    "seq": seq, "kind": "noise", "payload": {},
                    "crc": record_crc(seq, "noise", {})}) + "\n")
        assert JournalStore(tmp_path).append("fresh", {}) == 10

    def test_append_first_after_a_torn_tail(self, tmp_path):
        self.seed(tmp_path)
        with (tmp_path / "journal.jsonl").open("a") as handle:
            handle.write('{"seq": 99, "kind": "noi')    # kill -9 mid-write
        store = JournalStore(tmp_path)
        assert store.append("fresh", {}) == 7
        records = JournalStore(tmp_path).replay()
        assert [r.seq for r in records] == list(range(1, 8))
        assert records[-1].kind == "fresh"

    def test_append_first_after_rewrite(self, tmp_path, decodes):
        self.seed(tmp_path)
        del decodes[:]
        store = JournalStore(tmp_path)
        store.rewrite([("snapshot", {}), ("event-enqueued", {})])
        assert store.append("fresh", {}) == 3
        assert decodes == []        # the rewrite set the seq itself
        assert JournalStore(tmp_path).append("reopened", {}) == 4

    def test_append_first_on_a_missing_file(self, tmp_path):
        store = JournalStore(tmp_path / "new")
        assert not store.path.exists()
        assert store.next_seq == 1
        assert store.append("first", {}) == 1
        assert JournalStore(tmp_path / "gone").replay() == []

    def test_a_second_store_numbers_after_the_first(self, tmp_path):
        first, second = JournalStore(tmp_path), JournalStore(tmp_path)
        assert first.append("alpha", {}) == 1
        assert first.append("beta", {}) == 2
        # Opened before either record existed, but it reads the
        # journal when it first needs the seq, not when it was built.
        assert second.append("gamma", {}) == 3
        assert [r.kind for r in first.replay()] == ["alpha", "beta", "gamma"]

    def test_cursor_replay_as_the_first_read(self, tmp_path, decodes):
        self.seed(tmp_path)
        del decodes[:]
        store = JournalStore(tmp_path)
        assert [r.seq for r in store.replay(start_seq=4)] == [5, 6]
        assert store.append("fresh", {}) == 7
        assert len(decodes) == 6
