"""Unit tests: the incremental journal reader and its edge cases."""

import json

import pytest

from repro.analytics import JournalReader, ReaderCursor
from repro.service.store import KNOWN_KINDS, JournalStore, RecordKind, record_crc


def make_store(tmp_path, n=0):
    store = JournalStore(tmp_path / "journal")
    for i in range(n):
        store.append(RecordKind.TRANSITION, {"node_id": f"n{i}",
                                             "old": "healthy",
                                             "new": "scheduled",
                                             "reason": "t"})
    return store


class TestSnapshotRead:
    def test_empty_directory_reads_as_empty(self, tmp_path):
        reader = JournalReader(tmp_path / "nowhere")
        assert reader.read_all() == []
        result = reader.poll()
        assert result.records == ()
        assert not result.reset

    def test_reads_everything_the_store_wrote(self, tmp_path):
        store = make_store(tmp_path, n=5)
        reader = JournalReader(store.directory)
        records = reader.read_all()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert all(r.kind == "transition" for r in records)

    def test_agrees_with_store_replay(self, tmp_path):
        store = make_store(tmp_path, n=7)
        assert JournalReader(store.directory).read_all() == store.replay()


class TestIncrementalPoll:
    def test_cursor_resumes_where_the_last_poll_stopped(self, tmp_path):
        store = make_store(tmp_path, n=3)
        reader = JournalReader(store.directory)
        first = reader.poll()
        assert [r.seq for r in first.records] == [1, 2, 3]

        store.append(RecordKind.TRANSITION, {"node_id": "n9"})
        second = reader.poll(first.cursor)
        assert [r.seq for r in second.records] == [4]
        assert not second.reset

        third = reader.poll(second.cursor)
        assert third.records == ()

    def test_cursor_round_trips_through_json(self, tmp_path):
        store = make_store(tmp_path, n=2)
        reader = JournalReader(store.directory)
        cursor = reader.poll().cursor
        revived = ReaderCursor.from_payload(
            json.loads(json.dumps(cursor.to_payload())))
        assert revived == cursor
        store.append(RecordKind.TRANSITION, {"node_id": "nx"})
        assert [r.seq for r in reader.poll(revived).records] == [3]


class TestTruncatedTail:
    def test_truncated_final_record_is_left_for_later(self, tmp_path):
        store = make_store(tmp_path, n=3)
        full = store.path.read_text()
        store.path.write_text(full[:-15])  # crash mid-append

        reader = JournalReader(store.directory)
        result = reader.poll()
        assert [r.seq for r in result.records] == [1, 2]
        assert reader.corrupt_lines == 0  # not corrupt, just unfinished

        # The write completes later: only then is record 3 delivered.
        store.path.write_text(full)
        resumed = reader.poll(result.cursor)
        assert [r.seq for r in resumed.records] == [3]
        assert not resumed.reset

    def test_unterminated_first_line_reads_as_empty(self, tmp_path):
        store = make_store(tmp_path, n=1)
        store.path.write_text(store.path.read_text().rstrip("\n"))
        reader = JournalReader(store.directory)
        result = reader.poll()
        assert result.records == ()
        assert not result.reset


class TestCorruption:
    def test_crc_mismatched_middle_record_is_skipped(self, tmp_path):
        store = make_store(tmp_path, n=3)
        lines = store.path.read_text().splitlines()
        doctored = json.loads(lines[1])
        doctored["payload"]["node_id"] = "evil"  # body no longer matches crc
        lines[1] = json.dumps(doctored)
        store.path.write_text("\n".join(lines) + "\n")

        reader = JournalReader(store.directory)
        records = reader.read_all()
        assert [r.seq for r in records] == [1, 3]
        assert reader.corrupt_lines == 1

    def test_undecodable_middle_line_is_skipped(self, tmp_path):
        store = make_store(tmp_path, n=3)
        lines = store.path.read_text().splitlines()
        lines[1] = "{not json"
        store.path.write_text("\n".join(lines) + "\n")
        reader = JournalReader(store.directory)
        assert [r.seq for r in reader.read_all()] == [1, 3]
        assert reader.corrupt_lines == 1


class TestCompactionRace:
    def test_compaction_between_polls_resets_the_reader(self, tmp_path):
        store = make_store(tmp_path, n=6)
        reader = JournalReader(store.directory)
        cursor = reader.poll().cursor
        assert cursor.seq == 6

        # Compaction rewrites the journal; seqs restart at 1.
        store.rewrite([(RecordKind.CHECKPOINT, {"states": {}}),
                       (RecordKind.EVENT_ENQUEUED, {"event_id": 9})])
        result = reader.poll(cursor)
        assert result.reset
        assert [(r.seq, r.kind) for r in result.records] \
            == [(1, "checkpoint"), (2, "event-enqueued")]

        # After the reset the new segment tails normally again.
        store.append(RecordKind.TRANSITION, {"node_id": "n1"})
        after = reader.poll(result.cursor)
        assert not after.reset
        assert [r.seq for r in after.records] == [3]

    def test_crc_mismatch_after_compaction(self, tmp_path):
        """A record corrupted *post-compaction* is skipped, not resurrected."""
        store = make_store(tmp_path, n=4)
        reader = JournalReader(store.directory)
        cursor = reader.poll().cursor
        store.rewrite([(RecordKind.CHECKPOINT, {"states": {}}),
                       (RecordKind.TRANSITION, {"node_id": "a"}),
                       (RecordKind.TRANSITION, {"node_id": "b"})])
        lines = store.path.read_text().splitlines()
        doctored = json.loads(lines[1])
        doctored["payload"]["node_id"] = "evil"
        lines[1] = json.dumps(doctored)
        store.path.write_text("\n".join(lines) + "\n")

        result = reader.poll(cursor)
        assert result.reset
        assert [r.seq for r in result.records] == [1, 3]
        assert reader.corrupt_lines == 1

    def test_vanished_journal_resets_an_established_cursor(self, tmp_path):
        store = make_store(tmp_path, n=2)
        reader = JournalReader(store.directory)
        cursor = reader.poll().cursor
        store.path.unlink()
        result = reader.poll(cursor)
        assert result.reset
        assert result.records == ()


class TestUnknownKinds:
    def append_unknown(self, store, kind="hologram-audit"):
        seq = store.next_seq
        line = json.dumps({"seq": seq, "kind": kind, "payload": {},
                           "crc": record_crc(seq, kind, {})})
        with store.path.open("a") as handle:
            handle.write(line + "\n")

    def test_unknown_kind_is_warned_and_skipped(self, tmp_path, caplog):
        store = make_store(tmp_path, n=2)
        self.append_unknown(store)
        reader = JournalReader(store.directory)
        with caplog.at_level("WARNING"):
            records = reader.read_all()
        assert [r.seq for r in records] == [1, 2]
        assert reader.unknown_kinds == {"hologram-audit": 1}
        assert "unknown record kind" in caplog.text

    def test_unknown_kind_warns_once_but_counts_every_occurrence(
            self, tmp_path, caplog):
        store = make_store(tmp_path, n=1)
        self.append_unknown(store)
        self.append_unknown(store)
        reader = JournalReader(store.directory)
        with caplog.at_level("WARNING"):
            reader.read_all()
        assert reader.unknown_kinds["hologram-audit"] == 2
        assert caplog.text.count("unknown record kind") == 1

    def test_every_registry_kind_is_known(self, tmp_path):
        store = JournalStore(tmp_path / "journal")
        for kind in RecordKind:
            store.append(kind, {})
        reader = JournalReader(store.directory)
        assert len(reader.read_all()) == len(RecordKind)
        assert reader.unknown_kinds == {}
        assert KNOWN_KINDS == {kind.value for kind in RecordKind}


class TestTailingLoop:
    def test_follow_style_loop_sees_writes_and_compactions(self, tmp_path):
        """The exact consume loop the CLI --follow mode runs."""
        store = make_store(tmp_path, n=2)
        reader = JournalReader(store.directory)
        seen: list = []
        cursor = None
        for step in range(4):
            result = reader.poll(cursor)
            cursor = result.cursor
            if result.reset:
                seen = []
            seen.extend(result.records)
            if step == 0:
                assert len(seen) == 2
                store.append(RecordKind.TRANSITION, {"node_id": "x"})
            elif step == 1:
                assert len(seen) == 3
                store.rewrite([(RecordKind.CHECKPOINT, {"states": {}})])
            elif step == 2:
                assert len(seen) == 1  # rebuilt after reset
                store.append(RecordKind.TRANSITION, {"node_id": "y"})
        assert [r.seq for r in seen] == [1, 2]


@pytest.mark.parametrize("payload", [{}, {"offset": 10, "seq": 3,
                                          "fingerprint": 99}])
def test_cursor_payload_shapes(payload):
    cursor = ReaderCursor.from_payload(payload)
    assert cursor.offset == payload.get("offset", 0)
    assert cursor.seq == payload.get("seq", 0)
    assert cursor.fingerprint == payload.get("fingerprint")
