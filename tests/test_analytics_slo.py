"""Unit tests: SLO reducers and the deterministic report builder."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    AvailabilityOverheadReducer,
    DLQReducer,
    EvictionPrecisionReducer,
    MTBIReducer,
    SanitizationReducer,
    ServiceCountersReducer,
    build_report,
    default_reducers,
    reduce_records,
    render_json,
    render_markdown,
)
from repro.service.queue import ServiceMetrics
from repro.service.store import JournalRecord, RecordKind


def rec(seq, kind, payload):
    return JournalRecord(seq=seq, kind=getattr(kind, "value", kind),
                         payload=payload)


def completed(seq, event_id, *, nodes, defective=(), hours=24.0,
              latency=0.1, wall=1.0, skipped=False):
    return rec(seq, RecordKind.EVENT_COMPLETED, {
        "event_id": event_id,
        "kind": "job-allocation",
        "skipped": skipped,
        "validated_nodes": list(nodes),
        "benchmarks_run": ["gemm"],
        "violations": [],
        "defective": list(defective),
        "short_circuited": [],
        "queue_latency_seconds": latency,
        "validation_seconds": wall,
        "duration_hours": hours,
    })


def transition(seq, node, new, reason="event-1"):
    return rec(seq, RecordKind.TRANSITION, {
        "node_id": node, "old": "healthy", "new": new, "reason": reason})


class TestMTBI:
    def test_fleet_mtbi_is_node_hours_over_incidents(self):
        reducer = MTBIReducer(buckets=2)
        reducer.consume(completed(1, 1, nodes=["a", "b"], hours=10.0))
        reducer.consume(transition(2, "a", "quarantined"))
        reducer.consume(completed(3, 2, nodes=["a", "b"], hours=10.0))
        result = reducer.result()
        assert result["node_hours_observed"] == 40.0
        assert result["incidents"] == 1
        assert result["fleet_mtbi_hours"] == 40.0

    def test_no_incidents_yields_none(self):
        reducer = MTBIReducer()
        reducer.consume(completed(1, 1, nodes=["a"], hours=5.0))
        assert reducer.result()["fleet_mtbi_hours"] is None

    def test_trend_buckets_partition_the_node_hours(self):
        reducer = MTBIReducer(buckets=2)
        reducer.consume(completed(1, 1, nodes=["a"], hours=10.0))
        reducer.consume(transition(2, "a", "quarantined"))
        reducer.consume(completed(3, 2, nodes=["a"], hours=10.0))
        trend = reducer.result()["trend"]
        assert len(trend) == 2
        assert sum(b["node_hours"] for b in trend) == 20.0
        assert sum(b["incidents"] for b in trend) == 1

    def test_worst_nodes_ranked_by_incident_count(self):
        reducer = MTBIReducer()
        for seq, node in enumerate(["a", "b", "a"], start=1):
            reducer.consume(transition(seq, node, "quarantined"))
        worst = reducer.result()["worst_nodes"]
        assert worst[0]["node_id"] == "a"
        assert worst[0]["incidents"] == 2


class TestAvailability:
    def test_curve_tracks_quarantine_fraction(self):
        reducer = AvailabilityOverheadReducer(fleet_size=4)
        reducer.consume(transition(1, "a", "quarantined"))
        reducer.consume(completed(2, 1, nodes=["b"], wall=2.0))
        reducer.consume(transition(3, "a", "healthy",
                                   reason="repair-complete"))
        reducer.consume(completed(4, 2, nodes=["b"], wall=3.0))
        result = reducer.result()
        assert result["curve"] == [
            {"validation_s": 2.0, "availability": 0.75},
            {"validation_s": 5.0, "availability": 1.0},
        ]
        assert result["availability_now"] == 1.0
        assert result["validation_total_s"] == 5.0

    def test_curve_downsamples_to_the_requested_points(self):
        reducer = AvailabilityOverheadReducer(curve_points=4)
        for i in range(1, 41):
            reducer.consume(completed(i, i, nodes=[f"n{i}"], wall=1.0))
        curve = reducer.result()["curve"]
        assert len(curve) == 4
        assert curve[0]["validation_s"] == 1.0
        assert curve[-1]["validation_s"] == 40.0

    def test_state_snapshot_seeds_the_fleet(self):
        reducer = AvailabilityOverheadReducer()
        reducer.consume(rec(1, RecordKind.CHECKPOINT, {
            "states": {"a": "healthy", "b": "quarantined"}}))
        reducer.consume(completed(2, 1, nodes=["a"]))
        assert reducer.result()["availability_now"] == 0.5


class TestServiceCounters:
    def test_a_checkpoint_restarts_the_counters_it_carries(self):
        """A compacted journal opens with a checkpoint: the completions
        it carries count, the records before it being gone."""
        carried = ServiceMetrics(events_processed=30, validations_run=20,
                                 policy_skips=10, nodes_validated=40,
                                 nodes_quarantined=4,
                                 events_dead_lettered=2)
        reducer = ServiceCountersReducer()
        reducer.consume(rec(1, RecordKind.EVENT_ENQUEUED,
                            {"event": {"kind": "periodic"}}))
        reducer.consume(completed(2, 1, nodes=["a"]))
        reducer.consume(rec(3, RecordKind.CHECKPOINT,
                            {"metrics": carried.to_payload()}))
        reducer.consume(completed(4, 2, nodes=["a", "b"], defective=["b"]))
        reducer.consume(rec(5, RecordKind.EVENT_DEAD_LETTERED, {}))
        result = reducer.result()
        assert result["events_completed"] == 31
        assert result["validations_run"] == 21
        assert result["policy_skips"] == 10
        assert result["nodes_validated"] == 42
        assert result["nodes_quarantined"] == 5
        assert result["events_dead_lettered"] == 3
        # Records no checkpoint carries stay counts of what was read.
        assert result["events_enqueued"] == 1
        assert result["events_by_kind"] == {"periodic": 1}

    def test_a_checkpoint_without_metrics_keeps_the_counts(self):
        reducer = ServiceCountersReducer()
        reducer.consume(completed(1, 1, nodes=["a"]))
        reducer.consume(rec(2, RecordKind.CHECKPOINT, {"states": {}}))
        assert reducer.result()["events_completed"] == 1


class TestEvictionPrecision:
    def test_repeat_offender_requires_a_completed_repair(self):
        reducer = EvictionPrecisionReducer()
        reducer.consume(transition(1, "a", "quarantined"))
        reducer.consume(transition(2, "a", "healthy",
                                   reason="repair-complete"))
        reducer.consume(transition(3, "a", "quarantined"))
        reducer.consume(transition(4, "b", "quarantined"))
        result = reducer.result()
        assert result["quarantines"] == 3
        assert result["nodes_evicted"] == 2
        assert result["repeat_offenders"] == ["a"]
        assert result["repeat_offender_rate"] == 0.5
        assert result["requarantines_after_repair"] == 1

    def test_non_repair_return_is_not_a_completed_repair(self):
        reducer = EvictionPrecisionReducer()
        reducer.consume(transition(1, "a", "quarantined"))
        reducer.consume(transition(2, "a", "healthy", reason="tick-failed"))
        reducer.consume(transition(3, "a", "quarantined"))
        assert reducer.result()["repeat_offenders"] == []


class TestDLQ:
    def test_depth_grows_and_rebaselines_on_snapshot(self):
        reducer = DLQReducer()
        reducer.consume(rec(1, RecordKind.EVENT_DEAD_LETTERED,
                            {"event_id": 1}))
        reducer.consume(rec(2, RecordKind.EVENT_DEAD_LETTERED,
                            {"event_id": 2}))
        reducer.consume(rec(3, RecordKind.CHECKPOINT,
                            {"states": {}, "dead_letters": [{}]}))
        result = reducer.result()
        assert result["events_parked"] == 2
        assert result["depth_now"] == 1
        assert [p["depth"] for p in result["depth_series"]] == [1, 2, 1]


class TestSanitization:
    def test_batch_provenance_folds_by_pair(self):
        reducer = SanitizationReducer()
        reducer.consume(rec(1, RecordKind.BATCH_PROVENANCE, {
            "event_id": 1,
            "provenance": [
                {"benchmark": "gemm", "metric": "gflops", "windows": 4,
                 "sanitized": 4, "quarantined": 1,
                 "faults": {"non-finite": 2}},
                {"benchmark": "nccl", "metric": "busbw", "windows": 2,
                 "sanitized": 2, "quarantined": 0, "faults": {}},
            ]}))
        reducer.consume(rec(2, RecordKind.BATCH_PROVENANCE, {
            "event_id": 2,
            "provenance": [
                {"benchmark": "gemm", "metric": "gflops", "windows": 4,
                 "sanitized": 4, "quarantined": 3,
                 "faults": {"non-finite": 1, "unit-scale": 1}},
            ]}))
        result = reducer.result()
        gemm = result["by_pair"]["unknown/gemm/gflops"]
        assert gemm["windows"] == 8
        assert gemm["quarantine_rate"] == 0.5
        assert gemm["faults"] == {"non-finite": 3, "unit-scale": 1}
        assert result["windows_total"] == 10
        assert result["windows_quarantined"] == 4


class TestBuildReport:
    def stream(self):
        return [
            rec(1, RecordKind.EVENT_ENQUEUED,
                {"event_id": 1, "event": {"kind": "periodic"},
                 "priority": 0.5}),
            transition(2, "a", "quarantined"),
            completed(3, 1, nodes=["a", "b"], defective=["a"]),
            rec(4, RecordKind.CRITERIA_ROLLBACK,
                {"benchmark": "gemm", "metric": "gflops",
                 "candidate_rate": 0.9, "baseline_rate": 0.1,
                 "reason": "eviction budget"}),
            rec(5, RecordKind.BREAKER_TRANSITION,
                {"benchmark": "nccl", "old": "closed", "new": "open",
                 "reason": "fleet-wide"}),
            rec(6, RecordKind.PIPELINE_STATS,
                {"stages": {"execute": {"count": 3, "seconds": 0.5}}}),
        ]

    def test_sections_present(self):
        report = build_report(self.stream())
        assert report["journal"]["records"] == 6
        assert report["service"]["events_completed"] == 1
        assert report["mtbi"]["incidents"] == 1
        assert report["breakers"]["opens_by_benchmark"] == {"nccl": 1}
        assert report["rollbacks"]["by_pair"] == {"unknown/gemm/gflops": 1}
        assert report["pipeline"]["execute"]["count"] == 3

    def test_byte_identical_across_replays(self):
        first = build_report(self.stream())
        second = build_report(self.stream())
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)

    def test_renderers_share_one_document(self):
        report = build_report(self.stream(), fleet_size=8)
        markdown = render_markdown(report)
        assert "## MTBI" in markdown
        assert "## Availability vs. validation overhead" in markdown
        assert "## Circuit breakers" in markdown
        assert "gemm/gflops" in markdown
        assert render_json(report).endswith("\n")

    def test_unconsumed_kinds_do_not_crash(self):
        report = build_report([rec(1, RecordKind.MEASUREMENT_BATCH, {
            "benchmark": "gemm", "metric": "gflops", "windows": []})])
        assert report["journal"]["records"] == 1


# ----------------------------------------------------------------------
# The routed fold against a broadcast fold
# ----------------------------------------------------------------------
_nodes = st.sampled_from(["n0", "n1", "n2", "n3"])
_states = st.sampled_from(["healthy", "quarantined", "in-repair",
                           "returning", "in-validation"])
_skus = st.sampled_from(["H100", "A100"])
_names = st.sampled_from(["gemm", "nccl"])
_small = st.integers(0, 5)
_seconds = st.floats(0.0, 50.0, allow_nan=False)


def _optional(key, values):
    """A one-entry dict or an empty one: the field may be absent."""
    return st.one_of(st.just({}), values.map(lambda v: {key: v}))


def _with(base, **optional):
    """``base`` fixed-dict strategy merged with optional fields."""
    parts = [st.fixed_dictionaries(base)]
    parts += [_optional(key, values) for key, values in optional.items()]
    return st.tuples(*parts).map(
        lambda dicts: {k: v for d in dicts for k, v in d.items()})


_provenance_entry = _with(
    {"benchmark": _names, "metric": st.just("m"), "windows": _small,
     "sanitized": _small, "quarantined": _small,
     "faults": st.dictionaries(st.sampled_from(["nan", "scale"]), _small,
                               max_size=2)},
    sku=_skus)

#: One payload strategy per record kind, shaped like what the writers
#: journal (fields a reducer reads may be missing, as in old journals).
_PAYLOADS = {
    RecordKind.EVENT_ENQUEUED: st.fixed_dictionaries({"event": _optional(
        "kind", st.sampled_from(["periodic", "job-allocation"]))}),
    RecordKind.EVENT_COALESCED: st.just({}),
    RecordKind.EVENT_COMPLETED: _with(
        {"validated_nodes": st.lists(_nodes, max_size=3, unique=True),
         "defective": st.lists(_nodes, max_size=2, unique=True)},
        skipped=st.booleans(), queue_latency_seconds=_seconds,
        validation_seconds=_seconds,
        duration_hours=st.sampled_from([0.0, 12.0, 24.0])),
    RecordKind.EVENT_FAILED: st.just({}),
    RecordKind.EVENT_DEAD_LETTERED: st.just({}),
    RecordKind.TRANSITION: _with(
        {"node_id": _nodes, "new": _states,
         "reason": st.sampled_from(["repair-complete", "event-1"])},
        sku=_skus),
    RecordKind.CRITERIA_SNAPSHOT: st.just({}),
    RecordKind.CRITERIA_ROLLBACK: _with(
        {"benchmark": _names, "metric": st.just("m"),
         "reason": st.sampled_from(["", "budget"])}, sku=_skus),
    RecordKind.CRITERIA_LEARN: st.just({}),
    RecordKind.CHECKPOINT: _with(
        {"states": st.dictionaries(_nodes, _states, max_size=4),
         "dead_letters": st.lists(st.just({}), max_size=3)},
        metrics=st.builds(ServiceMetrics, events_processed=_small,
                          policy_skips=_small, events_dead_lettered=_small,
                          nodes_validated=_small).map(
                              ServiceMetrics.to_payload)),
    RecordKind.MEASUREMENT_BATCH: _with(
        {"benchmark": _names, "metric": st.just("m"),
         "windows": st.lists(st.fixed_dictionaries({
             "faults": st.lists(st.sampled_from(["nan", "scale"]),
                                max_size=2),
             "sanitized": st.booleans(), "quarantined": st.booleans()}),
             max_size=3)},
        sku=_skus),
    RecordKind.BATCH_PROVENANCE: st.fixed_dictionaries({
        "provenance": st.lists(_provenance_entry, max_size=3)}),
    RecordKind.BREAKER_TRANSITION: st.fixed_dictionaries({
        "benchmark": _names,
        "new": st.sampled_from(["open", "closed", "half-open"])}),
    RecordKind.PIPELINE_STATS: st.fixed_dictionaries({
        "stages": st.dictionaries(
            st.sampled_from(["execute", "score"]),
            st.fixed_dictionaries({"count": _small, "seconds": _seconds}),
            max_size=2)}),
    RecordKind.LOAD_SHED: _optional("kind", st.just("periodic")),
    RecordKind.SHARD_HEARTBEAT: st.fixed_dictionaries({
        "shard": st.integers(0, 1), "restarts": _small, "tick": _small,
        "progress": _small, "queue_depth": _small}),
    RecordKind.SHARD_DEGRADED: st.fixed_dictionaries({
        "shard": st.integers(0, 1), "restarts": _small,
        "reason": st.sampled_from(["crash", "hang"])}),
    RecordKind.SHARD_HANDOFF: st.fixed_dictionaries({
        "to_shard": st.integers(0, 1)}),
    RecordKind.FABRIC_DRAIN: _optional("reason", st.just("signal-15")),
    RecordKind.PROC_HEARTBEAT: st.just({}),
    RecordKind.PROC_RESTART: st.fixed_dictionaries({
        "shard": st.integers(0, 1)}),
}
_UNKNOWN_KIND = "future-kind"


def _entry(kind):
    payloads = _PAYLOADS.get(kind, st.just({"x": 1}))
    return payloads.map(lambda payload: (kind, payload))


_any_entry = st.sampled_from([*RecordKind, _UNKNOWN_KIND]).flatmap(_entry)


@st.composite
def _record_streams(draw):
    """Every kind plus an unknown one at least once, in any order, with
    extra records mixed in and any kind (drains and snapshots included)
    possibly last."""
    kinds = draw(st.permutations([*RecordKind, _UNKNOWN_KIND]))
    entries = [draw(_entry(kind)) for kind in kinds]
    for _ in range(draw(st.integers(0, 20))):
        entries.insert(draw(st.integers(0, len(entries))),
                       draw(_any_entry))
    return [rec(seq, kind, payload)
            for seq, (kind, payload) in enumerate(entries, start=1)]


def _broadcast(records, reducers):
    """The reference fold: every record to every reducer's consume."""
    for record in records:
        for reducer in reducers:
            reducer.consume(record)
    return {reducer.name: reducer.result() for reducer in reducers}


def _broadcast_report(records, fleet_size):
    """``build_report`` as a broadcast fold plus its journal section."""
    report = _broadcast(records, default_reducers(fleet_size=fleet_size))
    pipelines = [r.payload.get("stages", {}) for r in records
                 if r.kind == RecordKind.PIPELINE_STATS]
    if pipelines:
        report["pipeline"] = {str(stage): dict(stats) for stage, stats
                              in sorted(pipelines[-1].items())}
    report["journal"] = {
        "records": len(records),
        "max_seq": max([0] + [r.seq for r in records]),
        "by_kind": dict(sorted(Counter(str(r.kind)
                                       for r in records).items())),
    }
    return report


class TestRoutedFold:
    @given(records=_record_streams(),
           fleet_size=st.none() | st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_broadcast_fold(self, records, fleet_size):
        assert reduce_records(records) == _broadcast(
            records, default_reducers())
        expected = _broadcast_report(records, fleet_size)
        built = build_report(records, fleet_size=fleet_size)
        assert render_markdown(built) == render_markdown(expected)
        assert render_json(built) == render_json(expected)

    @given(records=_record_streams(),
           last=st.sampled_from([RecordKind.FABRIC_DRAIN,
                                 RecordKind.CHECKPOINT]))
    @settings(max_examples=50, deadline=None)
    def test_clean_shutdown_reads_the_last_record(self, records, last):
        records = records + [rec(len(records) + 1, last, {})]
        supervisor = reduce_records(records)["supervisor"]
        assert supervisor["clean_shutdown"] is (
            last == RecordKind.FABRIC_DRAIN)
