"""Validate before recording: an independent audit of the raw journals.

Reads ``journal.jsonl`` files line by line with its own JSON and CRC
decode -- nothing here imports ``repro.service`` or ``repro.analytics``
-- and proves, from the journals alone, that

* every line decodes and its checksum matches its body,
* sequence numbers rise strictly within a journal,
* every enqueued event part has **exactly one** terminal record
  (completed / shed / dead-lettered / handed-off), and no terminal
  record lacks its enqueue,
* a journal that was shut down cleanly ends in a ``fabric-drain`` seal.

It also reduces the journals to the numbers the harness needs that the
journal alone can give: the verdict digest over sorted ``(node id,
k-th validation of that node, verdict)`` -- equal for two transports
that processed the same events the same way -- plus record counts,
sizes and the latencies the program wrote down itself.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["AuditReport", "audit_journals", "record_crc", "TERMINAL_KINDS"]

JOURNAL_FILENAME = "journal.jsonl"
TERMINAL_KINDS = ("event-completed", "load-shed", "event-dead-lettered",
                  "shard-handoff")
GATED_KINDS = ("job-allocation", "periodic")


def record_crc(seq: int, kind: str, payload: dict) -> int:
    """CRC32 of the record's canonical body: ``[seq, kind, payload]`` as
    JSON with sorted keys and no whitespace."""
    body = json.dumps([seq, kind, payload], sort_keys=True,
                      separators=(",", ":"))
    return zlib.crc32(body.encode())


@dataclass
class AuditReport:
    problems: list[str] = field(default_factory=list)
    records: int = 0
    bytes: int = 0
    by_kind: Counter = field(default_factory=Counter)
    bytes_by_kind: Counter = field(default_factory=Counter)
    enqueued: int = 0
    terminal: Counter = field(default_factory=Counter)
    failed_ticks: int = 0
    coalesced: int = 0
    gated_completed: int = 0
    gated_skipped: int = 0
    queue_latencies_s: list[float] = field(default_factory=list)
    learned_paths: Counter = field(default_factory=Counter)
    provenance_windows: int = 0
    quarantined_windows: int = 0
    verdicts: list[tuple[str, int, bool]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def digest(self) -> str:
        """SHA-256 over the sorted ``(node, k, verdict)`` rows."""
        rows = sorted(self.verdicts)
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def flagged_nodes(self) -> set[str]:
        return {node for node, _k, defective in self.verdicts if defective}

    def validated_nodes(self) -> set[str]:
        return {node for node, _k, _defective in self.verdicts}


def _audit_one(directory: Path, report: AuditReport,
               validations: Counter) -> None:
    path = directory / JOURNAL_FILENAME
    try:
        data = path.read_bytes()
    except OSError as error:
        report.problems.append(f"{path}: unreadable: {error}")
        return
    report.bytes += len(data)
    enqueued: set[int] = set()
    terminals: Counter[int] = Counter()
    last_seq = 0
    last_kind = None
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line)
            seq, kind, payload = int(raw["seq"]), raw["kind"], raw["payload"]
            crc = int(raw["crc"])
        except (ValueError, KeyError, TypeError) as error:
            report.problems.append(f"{where}: undecodable record: {error!r}")
            continue
        if crc != record_crc(seq, kind, payload):
            report.problems.append(f"{where}: checksum mismatch (seq {seq})")
            continue
        if seq <= last_seq:
            report.problems.append(
                f"{where}: seq {seq} does not rise above {last_seq}")
        last_seq, last_kind = seq, kind
        report.records += 1
        report.by_kind[kind] += 1
        report.bytes_by_kind[kind] += len(line) + 1
        if kind == "event-enqueued":
            event_id = int(payload["event_id"])
            if event_id in enqueued:
                report.problems.append(
                    f"{where}: event {event_id} enqueued twice")
            enqueued.add(event_id)
        elif kind in TERMINAL_KINDS:
            terminals[int(payload["event_id"])] += 1
            report.terminal[kind] += 1
        elif kind == "event-failed":
            report.failed_ticks += 1
        elif kind == "event-coalesced":
            report.coalesced += 1
        elif kind == "criteria-learn":
            for entry in payload.get("learned", ()):
                report.learned_paths[entry["path"]] += 1
        elif kind == "batch-provenance":
            for entry in payload.get("provenance", ()):
                report.provenance_windows += int(entry["windows"])
                report.quarantined_windows += int(entry["quarantined"])
        if kind == "event-completed":
            report.queue_latencies_s.append(
                float(payload.get("queue_latency_seconds", 0.0)))
            if payload["kind"] in GATED_KINDS:
                report.gated_completed += 1
                report.gated_skipped += bool(payload["skipped"])
            defective = set(payload["defective"])
            for node_id in payload["validated_nodes"]:
                report.verdicts.append(
                    (node_id, validations[node_id], node_id in defective))
                validations[node_id] += 1
    report.enqueued += len(enqueued)
    for event_id in sorted(enqueued):
        if terminals[event_id] != 1:
            report.problems.append(
                f"{path}: event {event_id} has {terminals[event_id]} "
                f"terminal records, expected exactly 1")
    for event_id in sorted(set(terminals) - enqueued):
        report.problems.append(
            f"{path}: event {event_id} has a terminal record but was "
            f"never enqueued")
    if last_kind != "fabric-drain":
        report.problems.append(
            f"{path}: clean shutdown expected but the journal ends in "
            f"{last_kind!r}, not a 'fabric-drain' seal")


def audit_journals(directories) -> AuditReport:
    """Audit every journal directory in ``directories`` as one fabric
    that was shut down cleanly."""
    report = AuditReport()
    validations: Counter[str] = Counter()
    for directory in directories:
        _audit_one(Path(directory), report, validations)
    return report
