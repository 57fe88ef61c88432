"""Incremental, CRC-verified streaming reads over the journal.

:class:`JournalReader` is the analytics plane's tail over a
:class:`~repro.service.store.JournalStore` directory.  Where
``JournalStore.replay`` is the *recovery* read path (whole journal,
once, into a restarting service), the reader is the *observability*
read path: poll-driven, resumable, and safe to run while the service
is writing -- including while it compacts.

What one ``poll`` guarantees:

* **Only complete lines are consumed.**  A line not yet terminated by
  a newline -- an append in flight, or a tail truncated by a crash --
  is left unconsumed; the cursor does not advance past it, so the
  record is delivered whole on a later poll once (if ever) the line
  completes.
* **The same validity rules as recovery.**  Decoding and CRC
  verification go through the one shared
  :func:`~repro.service.store.decode_journal_line` implementation;
  undecodable lines and checksum mismatches are skipped with a
  warning and counted, never raised.
* **Unknown kinds are survivable.**  A journal written by a *newer*
  code version may contain record kinds this reader has no idea about.
  Each unknown kind is warn-logged once, counted in
  :attr:`JournalReader.unknown_kinds` and skipped, so a
  forward-version journal degrades to a partial report instead of a
  crash.
* **Compaction is detected, not raced.**  Compaction atomically
  replaces the journal file with a few records ending in a checkpoint,
  whose sequence numbers restart at 1.  The reader fingerprints the segment it is tailing
  (first line + sequence watermark); when a poll finds the
  fingerprint changed, it re-resolves the segment from the start and
  reports ``reset=True`` so the consumer knows to rebuild rather than
  double-count.

The cursor is a plain serializable value (:class:`ReaderCursor`), so a
follow-mode consumer can persist it and resume across its own
restarts.
"""

from __future__ import annotations

import logging
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.service.store import (
    JOURNAL_FILENAME,
    KNOWN_KINDS,
    JournalRecord,
    decode_journal_line,
    journal_lines,
)

__all__ = ["ReaderCursor", "PollResult", "JournalReader"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReaderCursor:
    """Resumable position inside one journal segment.

    ``offset`` is the byte offset just past the last fully-consumed
    line; ``seq`` the highest record sequence number delivered;
    ``fingerprint`` identifies the segment (CRC32 of its first line),
    so a cursor taken before a compaction cannot silently be applied
    to the rewritten journal.
    """

    offset: int = 0
    seq: int = 0
    fingerprint: int | None = None

    def to_payload(self) -> dict:
        """Plain-JSON form, for consumers that persist their cursor."""
        return {"offset": self.offset, "seq": self.seq,
                "fingerprint": self.fingerprint}

    @classmethod
    def from_payload(cls, payload: dict) -> "ReaderCursor":
        fingerprint = payload.get("fingerprint")
        return cls(offset=int(payload.get("offset", 0)),
                   seq=int(payload.get("seq", 0)),
                   fingerprint=(None if fingerprint is None
                                else int(fingerprint)))


@dataclass(frozen=True)
class PollResult:
    """What one :meth:`JournalReader.poll` observed.

    ``reset`` is ``True`` when the segment the previous cursor pointed
    into no longer exists (compaction replaced it, or the journal was
    removed): ``records`` then restarts from the beginning of the
    *current* segment and any state derived from earlier polls must be
    rebuilt.
    """

    records: tuple[JournalRecord, ...]
    cursor: ReaderCursor
    reset: bool = False


class JournalReader:
    """Poll-driven tail over one journal directory.

    Parameters
    ----------
    directory:
        The journal directory (``journal.jsonl`` inside it; a missing
        file or directory reads as an empty journal).
    known_kinds:
        Record kinds this reader considers known; anything else is
        warn-logged once and counted.  Defaults to every kind a journal
        of this version can hold,
        :data:`~repro.service.store.KNOWN_KINDS`.
    """

    def __init__(self, directory, *,
                 known_kinds: frozenset[str] = KNOWN_KINDS):
        self.directory = Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        self.known_kinds = frozenset(known_kinds)
        #: Unknown-kind occurrences seen by this reader, kind -> count.
        self.unknown_kinds: Counter[str] = Counter()
        #: Lines skipped as undecodable / checksum-mismatched.
        self.corrupt_lines = 0
        self._warned_kinds: set[str] = set()

    def health(self) -> dict:
        """Journal-health counters accumulated by this reader.

        What :func:`~repro.analytics.report.build_report` embeds in
        the report's ``journal`` section so corrupt or
        forward-version records stop being an invisible log line:
        ``corrupt_lines`` (undecodable or checksum-mismatched) and
        ``unknown_kinds`` (kind -> occurrences outside
        ``known_kinds``).
        """
        return {
            "corrupt_lines": self.corrupt_lines,
            "unknown_kinds": dict(sorted(self.unknown_kinds.items())),
        }

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_all(self) -> list[JournalRecord]:
        """Snapshot read: every valid record currently in the journal."""
        return list(self.poll().records)

    def poll(self, cursor: ReaderCursor | None = None) -> PollResult:
        """Read every complete record appended since ``cursor``.

        With ``cursor=None`` the whole current segment is read.  Never
        raises on journal content; an unreadable file reads as empty
        (the writer may be mid-compaction -- the next poll re-resolves).
        """
        cursor = cursor or ReaderCursor()
        data = self._read_bytes()
        if data is None:
            # No journal (yet, or anymore).  An established cursor
            # pointing into a vanished segment is a reset; a fresh
            # cursor just sees an empty journal.
            reset = cursor.fingerprint is not None
            return PollResult(records=(), cursor=ReaderCursor(), reset=reset)

        fingerprint = self._fingerprint(data)
        reset = (cursor.fingerprint is not None
                 and cursor.fingerprint != fingerprint)
        if reset or cursor.fingerprint is None:
            # New segment (first poll, or compaction swapped the file
            # under us): re-resolve from the start.
            cursor = ReaderCursor(fingerprint=fingerprint)
        if len(data) < cursor.offset:
            # Same first line but the file shrank: a rewrite that kept
            # its head.  Treat as a segment change too.
            cursor = ReaderCursor(fingerprint=fingerprint)
            reset = True

        records, consumed = self._decode_from(data, cursor.offset)
        seq = max((r.seq for r in records), default=cursor.seq)
        new_cursor = ReaderCursor(offset=cursor.offset + consumed, seq=seq,
                                  fingerprint=fingerprint)
        return PollResult(records=tuple(records), cursor=new_cursor,
                          reset=reset)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_bytes(self) -> bytes | None:
        try:
            return self.path.read_bytes()
        except OSError:
            return None

    @staticmethod
    def _fingerprint(data: bytes) -> int | None:
        """Identity of the segment: CRC32 of its first line."""
        head, newline, _rest = data.partition(b"\n")
        if not newline:
            return None  # no complete line yet; identity undecided
        return zlib.crc32(head)

    def _decode_from(self, data: bytes,
                     offset: int) -> tuple[list[JournalRecord], int]:
        """Decode complete lines in ``data[offset:]``.

        Returns the valid records plus the number of bytes consumed
        (up to and including the last newline -- a trailing partial
        line is left for a later poll).
        """
        end = data.rfind(b"\n", offset)
        if end < 0:
            return [], 0
        records: list[JournalRecord] = []
        for lineno, line in enumerate(journal_lines(data[offset:end + 1]),
                                      start=1):
            record, status = decode_journal_line(line, lineno=lineno,
                                                 path=self.path)
            if record is None:
                if status in ("corrupt-line", "crc-mismatch"):
                    self.corrupt_lines += 1
                continue
            if record.kind not in self.known_kinds:
                # Forward-version journal: a kind this code has never
                # heard of is warn-and-skipped, never a crash.
                self.unknown_kinds[record.kind] += 1
                if record.kind not in self._warned_kinds:
                    self._warned_kinds.add(record.kind)
                    logger.warning(
                        "journal %s contains unknown record kind %r "
                        "(forward-version journal?); skipping",
                        self.path, record.kind)
                continue
            records.append(record)
        return records, end + 1 - offset
