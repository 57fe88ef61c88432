"""Unit tests for status-sample extraction and the TBNI accuracy metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.components import IncidentCategory
from repro.simulation.generator import generate_incident_trace
from repro.simulation.traces import IncidentRecord, IncidentTrace
from repro.survival.data import STATUS_FEATURES, extract_status_samples
from repro.survival.metrics import tbni_accuracy

CATEGORIES = tuple(c.value for c in IncidentCategory)


def two_node_trace():
    records = (
        IncidentRecord("node-0", 100.0, 110.0, "gpu"),
        IncidentRecord("node-0", 300.0, 330.0, "network"),
        IncidentRecord("node-1", 500.0, 520.0, "gpu"),
    )
    return IncidentTrace(records=records, horizon_hours=1000.0,
                         node_ids=("node-0", "node-1"))


class TestExtraction:
    def test_feature_schema(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=200.0)
        assert ds.feature_names == STATUS_FEATURES
        assert ds.covariates.shape[1] == len(STATUS_FEATURES)

    def test_first_snapshot_tbni(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=5000.0)
        # node-0's t=0 snapshot: TBNI = 100 h (first incident).
        first = np.flatnonzero((ds.covariates[:, 0] == 0.0) & (ds.events == 1.0))
        assert 100.0 in ds.durations[first]

    def test_snapshot_inside_incident_skipped(self):
        trace = IncidentTrace(
            records=(IncidentRecord("node-0", 90.0, 150.0, "gpu"),),
            horizon_hours=400.0, node_ids=("node-0",),
        )
        ds = extract_status_samples(trace, snapshot_interval_hours=100.0)
        # The t=100 snapshot falls inside the incident -> dropped; the
        # remaining snapshots are t=0 (event), t=150 resolution, t=200,
        # t=300 (censored).
        assert not np.any(np.isclose(ds.durations, 50.0) & (ds.events == 0))

    def test_censored_rows_present_by_default(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=200.0)
        assert np.any(ds.events == 0.0)

    def test_censored_excluded_when_requested(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=200.0,
                                    include_censored=False)
        assert np.all(ds.events == 1.0)

    def test_censored_horizon_convention(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=200.0,
                                    censored_tbni="horizon")
        censored = ds.durations[ds.events == 0.0]
        assert np.all(censored == 1000.0)

    def test_incident_count_covariate_grows(self):
        ds = extract_status_samples(two_node_trace(), snapshot_interval_hours=200.0)
        count_col = list(STATUS_FEATURES).index("incident_count")
        node0_late = ds.covariates[ds.covariates[:, count_col] == 2.0]
        assert node0_late.size > 0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            extract_status_samples(two_node_trace(), snapshot_interval_hours=0.0)

    def test_invalid_censor_mode_rejected(self):
        with pytest.raises(ValueError):
            extract_status_samples(two_node_trace(), censored_tbni="nope")

    def test_telemetry_attributes_appended(self):
        trace = IncidentTrace(
            records=(IncidentRecord("node-0", 10.0, 12.0, "gpu"),),
            horizon_hours=100.0, node_ids=("node-0",),
            node_attributes={"node-0": {"telemetry_ecc_rate": 1.5}},
        )
        ds = extract_status_samples(trace, snapshot_interval_hours=50.0)
        assert "telemetry_ecc_rate" in ds.feature_names
        assert np.all(ds.feature("telemetry_ecc_rate") == 1.5)

    def test_trace_without_rows_is_an_empty_dataset(self):
        trace = IncidentTrace(records=(), horizon_hours=100.0,
                              node_ids=("node-0",))
        ds = extract_status_samples(trace, include_censored=False)
        assert len(ds) == 0
        assert ds.covariates.shape == (0, len(STATUS_FEATURES))


# ----------------------------------------------------------------------
# The per-snapshot loop the extractor replaced, kept as its oracle
# ----------------------------------------------------------------------

def loop_snapshot(observe_hour, up_time, last_end, counts):
    time_since_last = (observe_hour - last_end if last_end is not None
                       else observe_hour)
    row = [up_time, time_since_last, float(sum(counts.values()))]
    for cat in CATEGORIES:
        row.append(float(counts.get(cat, 0)))
    for cat in CATEGORIES:
        count = counts.get(cat, 0)
        row.append(up_time / count if count else up_time)
    return row


def loop_extract(trace, *, snapshot_interval_hours=48.0,
                 include_censored=True, censored_tbni="remaining"):
    """One Python iteration per snapshot, one ``np.sum`` per row."""
    attribute_names = ()
    if trace.node_attributes:
        keys = {k for attrs in trace.node_attributes.values() for k in attrs}
        attribute_names = tuple(sorted(keys))
    rows, durations, events = [], [], []
    for node_id in trace.node_ids:
        attrs = trace.node_attributes.get(node_id, {})
        attribute_row = [float(attrs.get(name, 0.0))
                         for name in attribute_names]
        incidents = trace.for_node(node_id)
        observation_hours = set(np.arange(0.0, trace.horizon_hours,
                                          snapshot_interval_hours).tolist())
        observation_hours.update(r.end_hour for r in incidents
                                 if r.end_hour < trace.horizon_hours)
        starts = np.array([r.start_hour for r in incidents])
        ends = np.array([r.end_hour for r in incidents])
        categories = [r.category for r in incidents]
        for observe in sorted(observation_hours):
            if incidents and np.any((starts < observe) & (ends > observe)):
                continue
            resolved = np.flatnonzero(ends <= observe)
            counts = {}
            for idx in resolved:
                counts[categories[idx]] = counts.get(categories[idx], 0) + 1
            downtime = float(np.sum(ends[resolved] - starts[resolved]))
            up_time = max(observe - downtime, 0.0)
            last_end = float(ends[resolved].max()) if resolved.size else None
            upcoming = starts[starts >= observe]
            if upcoming.size:
                durations.append(float(upcoming.min() - observe))
                events.append(1.0)
            else:
                censor_time = trace.horizon_hours - observe
                if not include_censored or censor_time <= 0:
                    continue
                durations.append(float(trace.horizon_hours)
                                 if censored_tbni == "horizon"
                                 else float(censor_time))
                events.append(0.0)
            rows.append(loop_snapshot(observe, up_time, last_end, counts)
                        + attribute_row)
    return rows, durations, events, STATUS_FEATURES + attribute_names


def assert_matches_loop(trace, **kwargs):
    rows, durations, events, names = loop_extract(trace, **kwargs)
    ds = extract_status_samples(trace, **kwargs)
    assert ds.feature_names == names
    assert np.array_equal(ds.covariates, np.asarray(rows, dtype=float))
    assert np.array_equal(ds.durations, np.asarray(durations, dtype=float))
    assert np.array_equal(ds.events, np.asarray(events, dtype=float))


@st.composite
def incident_traces(draw):
    """Small traces, partly on a quarter-hour lattice so resolutions
    land on grid instants, on other incidents' starts and on the
    horizon, partly off it so sums round.  There is always a node with
    no incident and one with 8 or more (numpy's ``np.sum`` goes
    pairwise from 8 terms), incidents overlap freely, and resolutions
    run up to and past the horizon."""
    horizon = float(draw(st.integers(10, 1200)))
    quarter = st.integers(0, int(horizon * 4)).map(lambda q: q / 4.0)
    times = st.one_of(quarter, st.floats(0.0, horizon))
    lengths = st.one_of(st.just(0.0),
                        st.integers(1, 600).map(lambda q: q / 4.0),
                        st.floats(0.0, 150.0))
    category = st.sampled_from(CATEGORIES + ("firmware",))
    sizes = [0, draw(st.integers(8, 16))] + draw(
        st.lists(st.integers(0, 10), max_size=3))
    node_ids = tuple(f"node-{index}" for index in range(len(sizes)))
    records = []
    for node_id, size in zip(node_ids, sizes):
        for _ in range(size):
            start = draw(times)
            records.append(IncidentRecord(node_id, start,
                                          start + draw(lengths),
                                          draw(category)))
    attributes = draw(st.dictionaries(
        st.sampled_from(node_ids),
        st.dictionaries(st.sampled_from(["ecc_rate", "thermal_margin"]),
                        st.floats(-5.0, 5.0)),
        max_size=len(node_ids)))
    return IncidentTrace(records=tuple(records), horizon_hours=horizon,
                         node_ids=node_ids, node_attributes=attributes)


class TestMatchesThePerSnapshotLoop:
    """The array extractor returns exactly the loop's arrays: the same
    rows, in the same order, with equal floats."""

    @settings(max_examples=150, deadline=None)
    @given(trace=incident_traces(),
           interval=st.one_of(st.sampled_from([10.0, 48.0, 100.0]),
                              st.floats(3.0, 300.0)),
           include_censored=st.booleans(),
           censored_tbni=st.sampled_from(["remaining", "horizon"]))
    def test_generated_traces(self, trace, interval, include_censored,
                              censored_tbni):
        assert_matches_loop(trace, snapshot_interval_hours=interval,
                            include_censored=include_censored,
                            censored_tbni=censored_tbni)

    @pytest.mark.parametrize("kwargs", [
        {}, {"include_censored": False}, {"censored_tbni": "horizon"}])
    def test_benchmark_sized_trace(self, kwargs):
        trace = generate_incident_trace(256, 2400.0, seed=1)
        busy = sum(len(trace.for_node(node_id)) >= 8
                   for node_id in trace.node_ids)
        assert busy >= 8
        assert_matches_loop(trace, **kwargs)


class TestTbniAccuracy:
    def test_perfect_prediction(self):
        assert tbni_accuracy([100.0], [100.0]) == pytest.approx(1.0)

    def test_capping(self):
        # Both sides capped at the horizon -> perfect despite huge raw values.
        assert tbni_accuracy([9999.0], [5000.0]) == pytest.approx(1.0)

    def test_worst_case_zero(self):
        assert tbni_accuracy([0.0], [2400.0]) == pytest.approx(0.0)

    def test_average_over_samples(self):
        acc = tbni_accuracy([0.0, 2400.0], [2400.0, 2400.0])
        assert acc == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tbni_accuracy([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tbni_accuracy([], [])
