"""Durable service state: an append-only, checksummed JSONL journal.

Everything the control plane must survive a restart with is journaled
as one JSON object per line in ``journal.jsonl`` under the store
directory: enqueued/coalesced/completed/failed events, lifecycle
transitions, dead-letter parkings and a learned-criteria snapshot
whenever the criteria change (embedded via
:func:`~repro.core.persistence.criteria_payload`, the same document
``save_criteria`` writes).  Recovery replays the journal in order --
transitions re-apply (forced where fault-tolerant continuation left a
gap), pending events are re-queued with their journaled priorities,
and the latest criteria snapshot restores the Validator.

Three hardening layers keep the journal trustworthy and bounded:

* **CRC32 record checksums** -- every record carries a checksum over
  its canonical JSON body, so a line that is *decodable but corrupted*
  (bit rot, partial overwrite that still parses) is detected and
  skipped instead of silently replayed.  Records written before
  checksumming existed (no ``crc`` field) still replay.  A record's
  payload is encoded once, canonically (sorted keys, no whitespace),
  as ``P``: the line is ``{"seq":S,"kind":K,"payload":P,"crc":C}`` and
  ``C`` is the CRC32 of ``[S,K,P]`` -- the same body, and so the same
  value, :func:`record_crc` derives from a parsed record.  A line of
  exactly that shape is verified against its own ``P`` bytes; any
  other line (older journals, hand-written ones) by re-encoding.
* **Optional fsync-on-append** -- by default appends are flushed to
  the OS (at most the final record is lost to a *process* crash);
  with ``fsync=True`` each record is forced to stable storage before
  ``append`` returns, surviving a *machine* crash at a throughput
  cost.  The trade-off is an explicit per-store or per-append choice.
* **Snapshot compaction** -- :meth:`rewrite` atomically replaces the
  journal with a compact set of snapshot records (write to a temp
  file, fsync, rename), so recovery cost and disk use stay bounded by
  live state rather than by service uptime.

**The append handle is held open.**  A store opens its journal for
append on the first record and keeps the handle (``write`` + ``flush``
per record, as durable as reopening per record was, without the
``open``/``close`` pair).  Before every write one ``os.stat`` checks
that the path still names the inode the handle holds; if the journal
was unlinked, renamed over or compacted by another store since, the
handle is reopened on the path, so a record is never written into an
orphaned file.  The file is opened ``O_APPEND``: stores interleaving
appends on one path each land whole lines at the end.  :meth:`close`
releases the handle; the next append reopens it.

**The journal is decoded once on the way up.**  Opening a store reads
nothing but the last byte (the torn-tail check).  The next sequence
number is 1 + the highest seq of any valid record on disk, and the
store learns that from the first full read it performs -- recovery's
:meth:`replay` -- or, when an append comes first, from one scan then.

A crash can truncate the final line mid-write.  Replay therefore
*skips* undecodable lines with a logged warning instead of failing:
losing the last record is recoverable, refusing to restart is not.
"""

from __future__ import annotations

import enum
import json
import logging
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.core.system import ValidationEvent
from repro.exceptions import JournalError

__all__ = ["RecordKind", "KNOWN_KINDS", "JournalRecord", "JournalStore",
           "event_to_payload", "event_from_payload", "record_crc",
           "decode_journal_line", "journal_lines"]

logger = logging.getLogger(__name__)

JOURNAL_FILENAME = "journal.jsonl"


class RecordKind(str, enum.Enum):
    """Registry of every journal record kind the system writes.

    One place instead of string literals scattered across the control
    plane, quality layer and analytics: writers journal
    ``RecordKind.X`` (``str``-valued, so payloads and comparisons with
    plain strings keep working), and readers -- recovery and the
    analytics :class:`~repro.analytics.reader.JournalReader` -- can
    tell a *known-but-unhandled* kind from a forward-version journal's
    genuinely unknown one.
    """

    #: Queue lifecycle of one orchestration event.
    EVENT_ENQUEUED = "event-enqueued"
    EVENT_COALESCED = "event-coalesced"
    EVENT_COMPLETED = "event-completed"
    EVENT_FAILED = "event-failed"
    EVENT_DEAD_LETTERED = "event-dead-lettered"
    #: Node lifecycle transition (HEALTHY -> ... -> HEALTHY).
    TRANSITION = "transition"
    #: Learned-criteria snapshot / guarded-rollout rejection.
    CRITERIA_SNAPSHOT = "criteria-snapshot"
    CRITERIA_ROLLBACK = "criteria-rollback"
    #: One criteria learning pass: per-key engine path + timing.
    CRITERIA_LEARN = "criteria-learn"
    #: Compaction state snapshot (lifecycle, metrics, dead letters).
    STATE_SNAPSHOT = "state-snapshot"
    #: Typed measurement batch with full window provenance.
    MEASUREMENT_BATCH = "measurement-batch"
    #: Compact per-event sanitization/quarantine provenance summary.
    BATCH_PROVENANCE = "batch-provenance"
    #: Circuit-breaker state change of one benchmark's breaker.
    BREAKER_TRANSITION = "breaker-transition"
    #: Measurement-spine stage counters (execute/sanitize/score/learn).
    PIPELINE_STATS = "pipeline-stats"
    #: Admission control shed one pending event (bounded queue full).
    LOAD_SHED = "load-shed"
    #: Supervisor liveness probe for one shard (tick progress, depth).
    SHARD_HEARTBEAT = "shard-heartbeat"
    #: Supervisor gave up restarting a shard (escalation record).
    SHARD_DEGRADED = "shard-degraded"
    #: One pending event failed over from a degraded shard to a sibling.
    SHARD_HANDOFF = "shard-handoff"
    #: Clean shutdown marker: the writer drained and fsynced this
    #: journal before exiting (a journal whose last record is not a
    #: drain was a crash).
    FABRIC_DRAIN = "fabric-drain"
    #: Liveness probe journaled by a worker *process* (process fabric).
    PROC_HEARTBEAT = "proc-heartbeat"
    #: The parent supervisor respawned a dead worker process.
    PROC_RESTART = "proc-restart"


#: Every record kind a journal written by this version can contain.
KNOWN_KINDS = frozenset(kind.value for kind in RecordKind)


def event_to_payload(event: ValidationEvent) -> dict:
    """Serialize one event -- delegates to the one canonical schema,
    :meth:`~repro.core.system.ValidationEvent.to_payload`."""
    return event.to_payload()


def event_from_payload(payload: dict, fleet_index: dict) -> ValidationEvent:
    """Rebuild an event -- delegates to the one canonical schema,
    :meth:`~repro.core.system.ValidationEvent.from_payload`."""
    return ValidationEvent.from_payload(payload, fleet_index)


#: The canonical JSON form: sorted keys, no whitespace.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def record_crc(seq: int, kind: str, payload: dict) -> int:
    """Checksum over one record's canonical JSON body.

    Canonical form (sorted keys, no whitespace) makes the checksum
    independent of how the surrounding line happened to be formatted.
    """
    return zlib.crc32(_CANONICAL.encode([seq, kind, payload]).encode())


def _line_parts(seq: int, kind_json: str, crc: int) -> tuple[str, str]:
    """The head and tail a canonical line wraps around its payload."""
    return f'{{"seq":{seq},"kind":{kind_json},"payload":', f',"crc":{crc}}}'


def _encode_record(seq: int, kind: str, payload: dict) -> str:
    """One record's journal line, its payload encoded once for both
    the line and the checksum."""
    kind_json, body = _CANONICAL.encode(kind), _CANONICAL.encode(payload)
    crc = zlib.crc32(f"[{seq},{kind_json},{body}]".encode())
    head, tail = _line_parts(seq, kind_json, crc)
    return head + body + tail


#: Each known kind's canonical JSON; other kinds are encoded per line.
_KIND_JSON = {kind: _CANONICAL.encode(kind) for kind in KNOWN_KINDS}

#: Decodes one JSON document from the start of a line.
_DECODER = json.JSONDecoder()


def _crc_matches(line: str, record: "JournalRecord", crc: int) -> bool:
    """Whether ``crc`` checks out: against the line's own payload bytes
    when it has the canonical shape, else by re-encoding the payload."""
    kind_json = (_KIND_JSON.get(record.kind)
                 or _CANONICAL.encode(record.kind))
    head, tail = _line_parts(record.seq, kind_json, crc)
    if line.startswith(head) and line.endswith(tail):
        body = line[len(head):len(line) - len(tail)]
        if zlib.crc32(f"[{record.seq},{kind_json},{body}]".encode()) == crc:
            return True
    return crc == record_crc(record.seq, record.kind, record.payload)


@dataclass(frozen=True)
class JournalRecord:
    """One replayed journal line."""

    seq: int
    kind: str
    payload: dict


def _parse(line: str):
    """``json.loads(line)``, through the decoder's ``raw_decode`` when
    the document spans the whole line (the canonical case)."""
    try:
        raw, end = _DECODER.raw_decode(line)
        if end == len(line):
            return raw
    except json.JSONDecodeError:
        pass
    # Surrounding whitespace, trailing data or a malformed line:
    # json.loads accepts or rejects it exactly as it always has.
    return json.loads(line)


def decode_journal_line(line: str, *, lineno: int = 0,
                        path: object = "") -> tuple[JournalRecord | None, str]:
    """Decode one journal line; never raises.

    The single decode-and-verify implementation shared by
    :meth:`JournalStore.replay` and the analytics
    :class:`~repro.analytics.reader.JournalReader` (both split lines
    with :func:`journal_lines`), so both paths agree exactly on what
    counts as a valid record.  Returns ``(record, status)``
    where status is one of:

    * ``"ok"`` -- decodable, checksum-valid (or pre-checksum legacy);
    * ``"empty"`` -- blank line, nothing to decode;
    * ``"corrupt-line"`` -- undecodable (truncated append, bit rot that
      no longer parses, a checksum that is not an integer); logged at
      WARNING;
    * ``"crc-mismatch"`` -- decodable but its checksum disagrees with
      its body; logged at WARNING.

    ``record`` is ``None`` for every non-``"ok"`` status.
    """
    if not line.strip():
        return None, "empty"
    try:
        raw = _parse(line)
        payload = raw["payload"]
        if type(payload) is not dict:
            payload = dict(payload)     # e.g. a list of pairs
        record = JournalRecord(int(raw["seq"]), str(raw["kind"]), payload)
        # Records from before checksumming carry no "crc"; accept them
        # rather than invalidating every pre-existing journal.
        crc = int(raw["crc"]) if "crc" in raw else None
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        logger.warning("skipping corrupted journal line %d of %s: %s",
                       lineno, path, error)
        return None, "corrupt-line"
    if crc is not None and not _crc_matches(line, record, crc):
        logger.warning(
            "skipping checksum-mismatched journal line %d of %s "
            "(seq %d, kind %r)", lineno, path, record.seq, record.kind)
        return None, "crc-mismatch"
    return record, "ok"


def journal_lines(data: bytes):
    """Yield the lines of a journal's bytes, for
    :func:`decode_journal_line`.

    Lines end at ``\\n`` only (a final line may lack it), and each is
    decoded as UTF-8 with undecodable bytes replaced, so a corrupted
    byte costs its line (a ``corrupt-line`` or ``crc-mismatch``), never
    the read.  The one line split shared by :meth:`JournalStore.replay`
    and the analytics :class:`~repro.analytics.reader.JournalReader`.
    """
    lines = data.split(b"\n")
    del data    # hold the lines, not the whole buffer beside them
    if not lines[-1]:
        lines.pop()     # the nothing after a final newline is no line
    for line in lines:
        yield line.decode("utf-8", "replace")


class JournalStore:
    """Append-only journal under one directory.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).
    fsync:
        Default durability of :meth:`append`: ``False`` flushes to the
        OS only (fast, loses at most the final record to a process
        crash), ``True`` forces every record to stable storage.
    """

    def __init__(self, directory, *, fsync: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / JOURNAL_FILENAME
        self.fsync = bool(fsync)
        #: Decodable-but-corrupt lines (checksum mismatches) seen by
        #: the most recent :meth:`replay`.
        self.corrupt_records = 0
        #: The held append handle and the ``(st_dev, st_ino)`` it was
        #: opened on; ``None`` until the first append.
        self._handle = None
        self._inode: tuple[int, int] | None = None
        #: Highest seq of any valid record on disk; ``None`` until the
        #: first :meth:`replay`, :meth:`rewrite` or append has read or
        #: set it.
        self._seq: int | None = None
        self._heal_torn_tail()

    def _heal_torn_tail(self) -> None:
        """Seal a torn final line left by a real ``kill -9`` mid-write.

        ``append`` writes ``line + "\\n"`` in one call, but the OS may
        persist only a prefix when the writer dies.  If the file does
        not end with a newline, a later append would concatenate onto
        the torn line and corrupt *both* records; writing the missing
        newline confines the damage to the (already lost) torn record,
        which replay then skips as ``corrupt-line``.
        """
        try:
            if not self.path.exists() or self.path.stat().st_size == 0:
                return
            with self.path.open("rb+") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError as error:
            raise JournalError(
                f"cannot heal torn tail of {self.path}: {error}") from error

    def _last_seq(self) -> int:
        if self._seq is None:
            self.replay()   # nothing has read the journal yet
        return self._seq

    @property
    def next_seq(self) -> int:
        return self._last_seq() + 1

    def append(self, kind: str, payload: dict, *,
               fsync: bool | None = None) -> int:
        """Append one checksummed record; returns its sequence number.

        ``kind`` may be a plain string or a :class:`RecordKind`;
        ``fsync`` overrides the store default for this one append
        (``None`` keeps the store default).
        """
        kind = getattr(kind, "value", kind)
        seq = self._last_seq() + 1
        line = _encode_record(seq, kind, payload)
        effective_fsync = self.fsync if fsync is None else bool(fsync)
        try:
            handle = self._append_handle()
            handle.write(line + "\n")
            handle.flush()
            if effective_fsync:
                os.fsync(handle.fileno())
        except OSError as error:
            # Whatever state the handle is in now, the next append
            # starts from a fresh one.
            self.close()
            raise JournalError(f"cannot append to {self.path}: {error}") from error
        self._seq = seq
        return seq

    def _append_handle(self):
        """The held append handle, (re)opened when the path no longer
        names the inode it was opened on."""
        try:
            stat = os.stat(self.path)
            on_disk = (stat.st_dev, stat.st_ino)
        except FileNotFoundError:
            on_disk = None
        if self._handle is None or on_disk != self._inode:
            self.close()
            self._handle = self.path.open("a")
            stat = os.fstat(self._handle.fileno())
            self._inode = (stat.st_dev, stat.st_ino)
        return self._handle

    def close(self) -> None:
        """Release the append handle (idempotent; the store stays
        usable -- the next append reopens the journal)."""
        handle, self._handle, self._inode = self._handle, None, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass  # every record was flushed when it was appended

    def sync(self) -> None:
        """Force everything appended so far to stable storage.

        Used by graceful drain: a single fsync of the journal tail is
        much cheaper than running the whole session with
        ``fsync=True``, yet guarantees a clean shutdown loses nothing.
        """
        if not self.path.exists():
            return
        try:
            with self.path.open("a") as handle:
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as error:
            raise JournalError(f"cannot fsync {self.path}: {error}") from error

    def rewrite(self, records) -> int:
        """Atomically replace the journal with ``records`` (compaction).

        ``records`` is an iterable of ``(kind, payload)`` pairs --
        typically a state snapshot plus the still-pending events.  The
        replacement journal is written to a temporary file, fsynced,
        and renamed over the old one, so a crash at any point leaves
        either the old journal or the new one, never a mix.  Sequence
        numbers restart at 1; returns the number of records written.
        """
        tmp_path = self.path.with_suffix(".jsonl.tmp")
        count = 0
        try:
            with tmp_path.open("w") as handle:
                for kind, payload in records:
                    kind = getattr(kind, "value", kind)
                    count += 1
                    handle.write(_encode_record(count, kind, payload) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self.close()    # the held handle names the file replaced
            os.replace(tmp_path, self.path)
        except OSError as error:
            raise JournalError(
                f"cannot compact journal {self.path}: {error}") from error
        self._seq = count
        return count

    def replay(self, *, start_seq: int = 0) -> list[JournalRecord]:
        """All decodable, checksum-valid records in append order.

        Truncated lines (a crash mid-append) and checksum mismatches
        (corruption of a decodable line) are skipped with a warning
        rather than raised -- recovery must always make progress from
        what *was* durably and correctly written.  Checksum mismatches
        are additionally counted in :attr:`corrupt_records`.

        ``start_seq`` is the resume cursor of the iteration API: only
        records with ``seq > start_seq`` are returned, so an
        incremental consumer (the analytics reader, a follow-mode
        report) can pick up where its last read left off.  After
        compaction sequence numbers restart at 1, which a cursor-aware
        consumer must detect by segment identity, not by seq alone --
        see :class:`repro.analytics.reader.JournalReader`.
        """
        self.corrupt_records = 0
        records: list[JournalRecord] = []
        try:
            lines = journal_lines(
                self.path.read_bytes() if self.path.exists() else b"")
        except OSError as error:
            raise JournalError(f"cannot read {self.path}: {error}") from error
        highest = 0
        for lineno, line in enumerate(lines, start=1):
            record, status = decode_journal_line(line, lineno=lineno,
                                                 path=self.path)
            if status == "crc-mismatch":
                self.corrupt_records += 1
            if record is not None:
                highest = max(highest, record.seq)
                if record.seq > start_seq:
                    records.append(record)
        if self._seq is None:
            self._seq = highest
        return records
