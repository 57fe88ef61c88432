"""Criteria persistence: save/load a Validator's learned state.

The paper's Validator learns criteria offline during build-out and
applies them online for months, refreshing periodically as new data
arrives -- which requires the criteria to live outside the process.
This module serializes the ``(sku, benchmark, metric) -> criteria``
map to a single JSON document and restores it into a fresh Validator.

Only what the online filter needs is persisted: the criteria sample,
threshold, and metric polarity.  The learning by-products (defect
indices, iteration counts) are recomputed on the next offline pass.

Durability
----------
Criteria files gate months of online filtering, so writes are atomic
(tmp file + ``os.replace``; a crash mid-save can never leave a
half-written document at the final path), the previous file survives
as ``<path>.bak``, and the version-2 format carries a CRC32 checksum
over the entries so silent corruption (a truncated or bit-flipped
file that still parses as JSON) is detected at load time instead of
poisoning the online filter.  :func:`load_criteria` falls back to the
backup when the main file is corrupt -- the rollback half of guarded
criteria rollout's persistence story.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core.validator import MetricCriteria, Validator
from repro.exceptions import CriteriaError

__all__ = ["save_criteria", "load_criteria", "criteria_payload",
           "criteria_from_payload", "apply_criteria_payload",
           "criteria_fingerprint", "payload_fingerprint"]

_FORMAT_VERSION = 3
#: Version 1 files (no checksum) and version 2 files (no SKU axis;
#: entries land in the "unknown" namespace) remain loadable.
_SUPPORTED_VERSIONS = (1, 2, 3)


def _entries_checksum(entries: list[dict]) -> int:
    """CRC32 over the canonical JSON encoding of the entries."""
    canonical = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode())


def criteria_payload(validator: Validator) -> dict:
    """The validator's learned criteria as a JSON-serializable dict.

    The same document :func:`save_criteria` writes to disk; the
    service journal embeds it directly in snapshot records.
    """
    if not validator.criteria:
        raise CriteriaError("validator has no learned criteria to save")
    entries = []
    for (sku, benchmark, metric), criteria in validator.criteria.items():
        entries.append({
            "sku": sku,
            "benchmark": benchmark,
            "metric": metric,
            "alpha": criteria.alpha,
            "higher_is_better": criteria.higher_is_better,
            "criteria": np.asarray(criteria.criteria, dtype=float).tolist(),
        })
    return {"version": _FORMAT_VERSION,
            "checksum": _entries_checksum(entries),
            "entries": entries}


def criteria_fingerprint(criteria: dict) -> bytes:
    """Content hash of a ``(sku, benchmark, metric) -> MetricCriteria`` map.

    Covers everything a snapshot persists -- keys, alpha, polarity and
    the raw sample bytes (blake2b) -- and nothing else, so two maps
    hash equal exactly when their :func:`criteria_payload` documents
    would be equal, at the cost of one pass over the arrays instead of
    a JSON encode.  An array edited in place changes the hash;
    insertion order does not.
    """
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(criteria):
        entry = criteria[key]
        values = np.ascontiguousarray(entry.criteria, dtype=float)
        digest.update(repr((key, float(entry.alpha),
                            bool(entry.higher_is_better),
                            values.size)).encode())
        digest.update(values.tobytes())
    return digest.digest()


def payload_fingerprint(payload: dict) -> bytes:
    """:func:`criteria_fingerprint` of the map a :func:`criteria_payload`
    document holds, read off the document without building the map."""
    return criteria_fingerprint({
        (str(entry.get("sku", "unknown")), entry["benchmark"],
         entry["metric"]): SimpleNamespace(**entry)
        for entry in payload["entries"]})


def criteria_from_payload(validator: Validator, payload: dict, *,
                          source: str = "<payload>") -> dict:
    """The criteria map a :func:`criteria_payload` document holds for
    ``validator``, without installing it.

    Entries for benchmarks outside the validator's suite are skipped
    (a shrunk suite must not resurrect stale criteria).  Pre-SKU
    entries (format versions 1 and 2) restore into the ``"unknown"``
    namespace, where legacy windows score against them.
    """
    try:
        version = payload.get("version")
        if version not in _SUPPORTED_VERSIONS:
            raise CriteriaError(
                f"unsupported criteria file version {version!r}"
            )
        entries = payload["entries"]
        if version >= 2:
            expected = int(payload["checksum"])
            actual = _entries_checksum(entries)
            if actual != expected:
                raise CriteriaError(
                    f"criteria file {source} failed its checksum "
                    f"(expected {expected}, computed {actual}); the file "
                    f"is corrupt")
    except (KeyError, TypeError, AttributeError, ValueError) as error:
        raise CriteriaError(f"malformed criteria file {source}: {error}") from error

    suite_names = {spec.name for spec in validator.suite}
    restored: dict[tuple[str, str, str], MetricCriteria] = {}
    for entry in entries:
        try:
            benchmark = entry["benchmark"]
            metric = entry["metric"]
            sku = str(entry.get("sku", "unknown"))
            criteria = np.asarray(entry["criteria"], dtype=float)
            alpha = float(entry["alpha"])
            higher_is_better = bool(entry["higher_is_better"])
        except (KeyError, TypeError, ValueError) as error:
            raise CriteriaError(
                f"malformed criteria entry in {source}: {error}"
            ) from error
        if benchmark not in suite_names:
            continue
        restored[(sku, benchmark, metric)] = MetricCriteria(
            benchmark=benchmark, metric=metric, criteria=criteria,
            alpha=alpha, higher_is_better=higher_is_better, learning=None,
            sku=sku,
        )
    return restored


def apply_criteria_payload(validator: Validator, payload: dict, *,
                           source: str = "<payload>") -> int:
    """Restore criteria from a :func:`criteria_payload` document into
    ``validator`` (see :func:`criteria_from_payload` for what is
    skipped); a malformed document installs nothing.  Returns the
    number of entries loaded.
    """
    restored = criteria_from_payload(validator, payload, source=source)
    validator.criteria.update(restored)
    return len(restored)


def _backup_path(path: Path) -> Path:
    return path.with_name(path.name + ".bak")


def save_criteria(validator: Validator, path, *,
                  keep_backup: bool = True) -> None:
    """Atomically write the validator's learned criteria to ``path``.

    The document is written to a temporary sibling, flushed to stable
    storage, and moved into place with ``os.replace`` -- a reader (or
    a crash) can only ever observe the old complete file or the new
    complete file.  With ``keep_backup`` (the default) the previous
    file is preserved as ``<path>.bak`` first, so a later load can
    roll back past a corrupted save.
    """
    path = Path(path)
    payload = criteria_payload(validator)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    if keep_backup and path.exists():
        os.replace(path, _backup_path(path))
    os.replace(tmp, path)


def _load_payload(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise CriteriaError(f"malformed criteria file {path}: {error}") from error


def load_criteria(validator: Validator, path, *,
                  fallback_to_backup: bool = True) -> int:
    """Restore criteria from ``path`` into ``validator``.

    When the main file is missing, unparsable, or fails its checksum
    and ``fallback_to_backup`` is set, the ``<path>.bak`` written by
    the previous :func:`save_criteria` is loaded instead; only when
    both are unusable does the original error propagate.  See
    :func:`apply_criteria_payload` for skip semantics.
    """
    path = Path(path)
    try:
        payload = _load_payload(path)
        return apply_criteria_payload(validator, payload, source=str(path))
    except CriteriaError:
        backup = _backup_path(path)
        if not fallback_to_backup or not backup.is_file():
            raise
        payload = _load_payload(backup)
        return apply_criteria_payload(validator, payload, source=str(backup))
