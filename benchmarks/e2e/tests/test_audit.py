"""The auditor, on journals written here with nothing of the program."""

import json

import pytest

import audit


def write_journal(directory, records):
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for seq, (kind, payload) in enumerate(records, start=1):
        lines.append(json.dumps({
            "seq": seq, "kind": kind, "payload": payload,
            "crc": audit.record_crc(seq, kind, payload)}))
    (directory / "journal.jsonl").write_text("\n".join(lines) + "\n")


def enqueued(event_id):
    return ("event-enqueued", {"event_id": event_id, "priority": 2.0,
                               "attempts": 0, "event": {}})


def completed(event_id, nodes=("node-0001",), defective=()):
    return ("event-completed", {
        "event_id": event_id, "kind": "incident-reported", "skipped": False,
        "validated_nodes": list(nodes), "defective": list(defective),
        "queue_latency_seconds": 0.001})


SEAL = ("fabric-drain", {"reason": "test"})


def healthy(tmp_path):
    records = []
    for event_id in (1, 2, 3):
        records += [enqueued(event_id), completed(event_id)]
    return records + [SEAL]


def test_a_balanced_sealed_journal_passes(tmp_path):
    write_journal(tmp_path / "shard-00", healthy(tmp_path))
    report = audit.audit_journals([tmp_path / "shard-00"])
    assert report.ok, report.problems
    assert report.enqueued == 3
    assert report.terminal["event-completed"] == 3
    assert report.verdicts == [("node-0001", 0, False),
                               ("node-0001", 1, False),
                               ("node-0001", 2, False)]


def test_a_dropped_completion_is_rejected(tmp_path):
    records = healthy(tmp_path)
    records.remove(completed(2))
    write_journal(tmp_path, records)
    report = audit.audit_journals([tmp_path])
    assert any("event 2 has 0 terminal records" in p for p in report.problems)


def test_a_duplicated_completion_is_rejected(tmp_path):
    records = healthy(tmp_path)
    records.insert(records.index(completed(3)), completed(3))
    write_journal(tmp_path, records)
    report = audit.audit_journals([tmp_path])
    assert any("event 3 has 2 terminal records" in p for p in report.problems)


def test_one_dropped_and_one_duplicated_do_not_cancel_out(tmp_path):
    records = healthy(tmp_path)
    records.remove(completed(1))
    records.insert(records.index(completed(2)), completed(2))
    write_journal(tmp_path, records)
    report = audit.audit_journals([tmp_path])
    assert report.terminal["event-completed"] == 3     # the count still adds up
    assert len(report.problems) == 2


def test_a_terminal_record_without_its_enqueue_is_rejected(tmp_path):
    write_journal(tmp_path, [completed(9), SEAL])
    report = audit.audit_journals([tmp_path])
    assert any("never enqueued" in p for p in report.problems)


def test_shed_dead_lettered_and_handed_off_are_terminal_too(tmp_path):
    write_journal(tmp_path, [
        enqueued(1), ("load-shed", {"event_id": 1}),
        enqueued(2), ("event-dead-lettered", {"event_id": 2}),
        enqueued(3), ("shard-handoff", {"event_id": 3}), SEAL])
    report = audit.audit_journals([tmp_path])
    assert report.ok, report.problems
    assert sum(report.terminal.values()) == 3


def test_an_unsealed_clean_shutdown_is_rejected(tmp_path):
    write_journal(tmp_path, healthy(tmp_path)[:-1])
    report = audit.audit_journals([tmp_path])
    assert any("not a 'fabric-drain' seal" in p for p in report.problems)


def test_a_corrupted_body_fails_its_checksum(tmp_path):
    write_journal(tmp_path, healthy(tmp_path))
    path = tmp_path / "journal.jsonl"
    path.write_text(path.read_text().replace("node-0001", "node-0002", 1))
    report = audit.audit_journals([tmp_path])
    assert any("checksum mismatch" in p for p in report.problems)


def test_sequence_numbers_must_rise(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    lines = []
    for seq, (kind, payload) in zip((1, 2, 2), (enqueued(1), completed(1),
                                                 SEAL)):
        lines.append(json.dumps({"seq": seq, "kind": kind, "payload": payload,
                                 "crc": audit.record_crc(seq, kind, payload)}))
    (tmp_path / "journal.jsonl").write_text("\n".join(lines) + "\n")
    report = audit.audit_journals([tmp_path])
    assert any("does not rise" in p for p in report.problems)


def test_the_digest_ignores_which_shard_and_in_what_order(tmp_path):
    one = [enqueued(1), completed(1, ["a", "b"], ["b"]),
           enqueued(2), completed(2, ["a"]), SEAL]
    write_journal(tmp_path / "x" / "shard-00", one)
    write_journal(tmp_path / "y" / "shard-00",
                  [enqueued(1), completed(1, ["b"], ["b"]), SEAL])
    write_journal(tmp_path / "y" / "shard-01",
                  [enqueued(1), completed(1, ["a"]),
                   enqueued(2), completed(2, ["a"]), SEAL])
    x = audit.audit_journals([tmp_path / "x" / "shard-00"])
    y = audit.audit_journals([tmp_path / "y" / "shard-00",
                              tmp_path / "y" / "shard-01"])
    assert x.ok and y.ok
    assert x.digest == y.digest
    write_journal(tmp_path / "z",
                  [enqueued(1), completed(1, ["a", "b"], ["a"]),
                   enqueued(2), completed(2, ["a"]), SEAL])
    assert audit.audit_journals([tmp_path / "z"]).digest != x.digest


def test_the_checksum_matches_the_programs_own(tmp_path):
    store = pytest.importorskip("repro.service.store")
    payload = {"b": [1.5, 2], "a": {"nested": "x"}}
    assert audit.record_crc(7, "transition", payload) == store.record_crc(
        7, "transition", payload)
