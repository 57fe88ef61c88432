"""Deterministic fleet-report building and rendering.

:func:`build_report` folds a journal record stream through the
standard reducer set (:mod:`repro.analytics.slo`) into one plain-JSON
document, by the routed :func:`~repro.analytics.slo.fold` that
:func:`~repro.analytics.slo.reduce_records` runs too: each record goes
only to the reducers whose kind table names its kind.
:func:`render_json` and :func:`render_markdown` turn that document
into the two operator-facing formats behind ``python -m repro report``
and :meth:`Anubis.fleet_report`.

Determinism is a contract, not an accident: the report contains no
wall-clock timestamps, hostnames or iteration-order artifacts -- every
mapping is emitted sorted -- so two replays of the same journal
produce byte-identical output.  CI leans on this (the chaos-soak
report is diffed across two replays), and so does any operator diffing
this week's report against last week's.

The module also owns the shared table formatters.  The control
plane's :meth:`ServiceMetrics.format_table` and the quality ledger's
:meth:`TelemetryLedger.format_table` used to carry duplicated
``f"{key:<24} {value}"`` blocks with drifting widths; both now route
through :func:`kv_table` here.
"""

from __future__ import annotations

import json
from collections import Counter
from operator import attrgetter

from repro.analytics.slo import default_reducers, fold
from repro.service.store import RecordKind

__all__ = [
    "kv_table",
    "markdown_table",
    "build_report",
    "render_json",
    "render_markdown",
    "report_from_history",
]


# ----------------------------------------------------------------------
# Shared table formatters
# ----------------------------------------------------------------------
def _format_value(value: object, *, float_digits: int = 4) -> str:
    """One scalar, formatted stably (floats fixed-width, no repr noise)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    if value is None:
        return "-"
    return str(value)


def kv_table(rows, *, key_width: int = 24, header: tuple[str, str] | None = None,
             float_digits: int = 4) -> str:
    """Align key/value pairs into the one plain-text summary table.

    ``rows`` is a mapping or an iterable of ``(key, value)`` pairs,
    emitted in the given order (pass a sorted iterable for sorted
    output).  Keys longer than ``key_width`` still get one separating
    space rather than colliding with their value.
    """
    pairs = rows.items() if hasattr(rows, "items") else rows
    lines = []
    if header is not None:
        lines.append(f"{header[0]:<{key_width}} {header[1]}")
    for key, value in pairs:
        rendered = _format_value(value, float_digits=float_digits)
        lines.append(f"{str(key):<{key_width}} {rendered}")
    return "\n".join(lines)


def markdown_table(headers, rows, *, float_digits: int = 4) -> str:
    """A GitHub-flavored pipe table from ``headers`` and row tuples."""
    head = [str(h) for h in headers]
    body = [[_format_value(cell, float_digits=float_digits) for cell in row]
            for row in rows]
    widths = [max(len(head[i]), *(len(r[i]) for r in body), 3) if body
              else max(len(head[i]), 3)
              for i in range(len(head))]
    def line(cells):
        return "| " + " | ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)) + " |"
    out = [line(head),
           "| " + " | ".join("-" * w for w in widths) + " |"]
    out.extend(line(row) for row in body)
    return "\n".join(out)


# ----------------------------------------------------------------------
# Report building
# ----------------------------------------------------------------------
def build_report(records, *, fleet_size: int | None = None,
                 buckets: int = 8, curve_points: int = 16,
                 journal_health: dict | None = None) -> dict:
    """Fold journal records into the fleet SLO report document.

    ``records`` is any iterable of
    :class:`~repro.service.store.JournalRecord` (one full segment, or
    everything a :class:`~repro.analytics.reader.JournalReader`
    delivered so far).  ``journal_health`` is the reader's
    :meth:`~repro.analytics.reader.JournalReader.health` dict
    (``corrupt_lines`` / ``unknown_kinds``); when given it is merged
    into the ``journal`` section so skipped lines are visible in the
    report instead of only in the log.  The result is plain JSON:
    section name -> reducer result, plus a ``journal`` section
    describing what was read.  Deterministic -- same records,
    byte-identical report.
    """
    records = list(records)
    reducers = default_reducers(fleet_size=fleet_size, buckets=buckets,
                                curve_points=curve_points)
    fold(records, reducers)
    # Stage counters are cumulative; the latest record wins.
    pipeline = next((record.payload.get("stages", {})
                     for record in reversed(records)
                     if record.kind == RecordKind.PIPELINE_STATS), None)
    by_kind = Counter(map(str, map(attrgetter("kind"), records)))
    report = {reducer.name: reducer.result() for reducer in reducers}
    if pipeline is not None:
        report["pipeline"] = {str(stage): dict(stats)
                              for stage, stats in sorted(pipeline.items())}
    report["journal"] = {
        "records": len(records),
        "max_seq": max(0, max(map(attrgetter("seq"), records), default=0)),
        "by_kind": dict(sorted(by_kind.items())),
    }
    if journal_health is not None:
        report["journal"]["corrupt_lines"] = int(
            journal_health.get("corrupt_lines", 0))
        report["journal"]["unknown_kinds"] = dict(sorted(
            journal_health.get("unknown_kinds", {}).items()))
    return report


def report_from_history(anubis) -> dict:
    """A facade-level report for an Anubis run without a journal.

    Covers what the in-memory facade knows -- event history summary
    and measurement-pipeline stage counters -- in the same document
    shape (a subset of :func:`build_report` sections), so
    ``Anubis.fleet_report()`` works with or without a service journal
    behind it.
    """
    summary = anubis.history_summary()
    pipeline = summary.pop("pipeline", {})
    return {
        "service": {
            "events_completed": summary["events"],
            "validations_run": summary["validated"],
            "policy_skips": summary["skipped"],
            "nodes_quarantined": summary["defective_nodes_flagged"],
            "events_by_kind": dict(sorted(summary["by_kind"].items())),
        },
        "pipeline": {stage: dict(stats)
                     for stage, stats in sorted(pipeline.items())},
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_json(report: dict) -> str:
    """Canonical JSON rendering: sorted keys, stable indentation."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _scalar_rows(section: dict) -> list[tuple[str, object]]:
    """The scalar (non-container) entries of one section, sorted."""
    return [(key, value) for key, value in sorted(section.items())
            if not isinstance(value, (dict, list, tuple))]


def _md_kv(section: dict) -> str:
    return markdown_table(("key", "value"), _scalar_rows(section))


def render_markdown(report: dict) -> str:
    """The operator-facing markdown fleet report.

    Renders whatever sections the document carries (a
    :func:`report_from_history` subset renders fine), in a fixed
    section order, from the same dict :func:`render_json` serializes
    -- so the two formats can never disagree.
    """
    out: list[str] = ["# Fleet validation report", ""]

    journal = report.get("journal")
    if journal is not None:
        out += ["## Journal", "", _md_kv(journal), ""]
        if journal.get("by_kind"):
            out += [markdown_table(
                ("record kind", "count"),
                sorted(journal["by_kind"].items())), ""]
        if journal.get("unknown_kinds"):
            out += ["Unknown record kinds (forward-version journal?):",
                    "", markdown_table(
                        ("unknown kind", "count"),
                        sorted(journal["unknown_kinds"].items())), ""]

    service = report.get("service")
    if service is not None:
        out += ["## Service counters", "", _md_kv(service), ""]
        if service.get("events_by_kind"):
            out += [markdown_table(
                ("event kind", "count"),
                sorted(service["events_by_kind"].items())), ""]

    mtbi = report.get("mtbi")
    if mtbi is not None:
        out += ["## MTBI (mean time between incidents)", "",
                _md_kv(mtbi), ""]
        if mtbi.get("trend"):
            out += [markdown_table(
                ("bucket", "node_hours", "incidents", "mtbi_hours"),
                [(i + 1, b["node_hours"], b["incidents"], b["mtbi_hours"])
                 for i, b in enumerate(mtbi["trend"])]), ""]
        if mtbi.get("worst_nodes"):
            out += ["Worst nodes:", "", markdown_table(
                ("node", "incidents", "mtbi_hours"),
                [(n["node_id"], n["incidents"], n["mtbi_hours"])
                 for n in mtbi["worst_nodes"]]), ""]

    availability = report.get("availability")
    if availability is not None:
        out += ["## Availability vs. validation overhead", "",
                _md_kv(availability), ""]
        if availability.get("curve"):
            out += [markdown_table(
                ("validation_s", "availability"),
                [(p["validation_s"], p["availability"])
                 for p in availability["curve"]]), ""]

    eviction = report.get("eviction")
    if eviction is not None:
        out += ["## Eviction precision (proxies)", "", _md_kv(eviction), ""]
        if eviction.get("repeat_offenders"):
            out += ["Repeat offenders: "
                    + ", ".join(eviction["repeat_offenders"]), ""]

    breakers = report.get("breakers")
    if breakers is not None:
        out += ["## Circuit breakers", "", _md_kv(breakers), ""]
        opens = breakers.get("opens_by_benchmark", {})
        closes = breakers.get("closes_by_benchmark", {})
        if opens or closes:
            names = sorted(set(opens) | set(closes))
            out += [markdown_table(
                ("benchmark", "opens", "closes"),
                [(name, opens.get(name, 0), closes.get(name, 0))
                 for name in names]), ""]

    rollbacks = report.get("rollbacks")
    if rollbacks is not None:
        out += ["## Criteria rollbacks", "", _md_kv(rollbacks), ""]
        if rollbacks.get("by_pair"):
            out += [markdown_table(
                ("sku/benchmark/metric", "rollbacks"),
                sorted(rollbacks["by_pair"].items())), ""]
        for reason in rollbacks.get("reasons", []):
            out.append(f"- {reason}")
        if rollbacks.get("reasons"):
            out.append("")

    dlq = report.get("dlq")
    if dlq is not None:
        out += ["## Dead-letter queue", "", _md_kv(dlq), ""]
        if dlq.get("depth_series"):
            out += [markdown_table(
                ("seq", "depth"),
                [(p["seq"], p["depth"]) for p in dlq["depth_series"]]), ""]

    sanitization = report.get("sanitization")
    if sanitization is not None:
        out += ["## Sanitization & quarantine", "",
                _md_kv(sanitization), ""]
        if sanitization.get("by_pair"):
            rows = []
            for pair, stats in sorted(sanitization["by_pair"].items()):
                faults = ", ".join(f"{fault}:{count}" for fault, count
                                   in sorted(stats["faults"].items()))
                rows.append((pair, stats["windows"], stats["sanitized_rate"],
                             stats["quarantine_rate"], faults or "-"))
            out += [markdown_table(
                ("sku/benchmark/metric", "windows", "sanitized_rate",
                 "quarantine_rate", "faults"), rows), ""]

    sku = report.get("sku")
    if sku is not None and sku.get("by_sku"):
        out += ["## Per-SKU fleet health", "", markdown_table(
            ("sku", "node_hours", "incidents", "mtbi_hours",
             "repairs", "rollbacks", "windows", "quarantine_rate"),
            [(name, row["node_hours"], row["incidents"],
              row["mtbi_hours"], row["repairs_completed"],
              row["rollbacks"], row["windows"], row["quarantine_rate"])
             for name, row in sorted(sku["by_sku"].items())]), ""]

    supervisor = report.get("supervisor")
    if supervisor is not None:
        out += ["## Shard supervisor", "", _md_kv(supervisor), ""]
        if supervisor.get("restarts_by_shard"):
            out += [markdown_table(
                ("shard", "restarts"),
                sorted(supervisor["restarts_by_shard"].items())), ""]
        if supervisor.get("degraded"):
            out += [markdown_table(
                ("shard", "restarts", "reason"),
                [(d["shard"], d["restarts"], d["reason"])
                 for d in supervisor["degraded"]]), ""]
        if supervisor.get("shed_by_kind"):
            out += ["Load shed by event kind:", "", markdown_table(
                ("event kind", "shed"),
                sorted(supervisor["shed_by_kind"].items())), ""]
        if supervisor.get("drain_reasons"):
            out += ["Clean drains by reason:", "", markdown_table(
                ("reason", "drains"),
                sorted(supervisor["drain_reasons"].items())), ""]
        if supervisor.get("proc_restarts_by_shard"):
            out += ["Worker-process restarts by shard:", "", markdown_table(
                ("shard", "restarts"),
                sorted(supervisor["proc_restarts_by_shard"].items())), ""]

    pipeline = report.get("pipeline")
    if pipeline is not None:
        out += ["## Measurement pipeline", "", markdown_table(
            ("stage", "count", "seconds"),
            [(stage, stats.get("count", 0), stats.get("seconds", 0.0))
             for stage, stats in sorted(pipeline.items())]), ""]

    return "\n".join(out).rstrip("\n") + "\n"
