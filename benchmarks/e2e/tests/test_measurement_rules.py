"""The measurement rules: minimum timed work, percentile tails, and
reference-speed normalisation."""

import time

import pytest

import calibrate
import pacing
import stats


def canned(durations):
    remaining = list(durations)
    return lambda: remaining.pop(0)


def test_short_repetitions_continue_until_the_minimum_is_reached():
    durations = stats.repeat_timed(canned([0.5] * 20), min_seconds=3.0)
    assert len(durations) == 6 and sum(durations) >= 3.0


def test_at_least_three_repetitions_even_when_two_suffice():
    assert len(stats.repeat_timed(canned([2.0] * 5), min_seconds=3.0)) == 3


def test_two_repetitions_when_one_exceeds_the_minimum():
    assert stats.repeat_timed(canned([3.5, 3.4, 3.6]),
                              min_seconds=3.0) == [3.5, 3.4]


def test_one_long_repetition_is_never_enough():
    assert len(stats.repeat_timed(canned([10.0, 10.0]), min_seconds=3.0)) == 2


def test_percentile_is_refused_with_fewer_than_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(199), 95.0)         # 9.95 beyond
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(500), 99.0)         # 5 beyond
    assert stats.percentile(range(200), 95.0) == pytest.approx(189.05)
    assert stats.percentile(range(1000), 99.0) == pytest.approx(989.01)


def test_the_median_needs_no_tail():
    assert stats.percentile([3, 1, 2], 50.0) == 2
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50.0)


def test_spread_is_the_interquartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.spread([7.0]) == 0.0


def test_normaliser_returns_the_raw_value_at_speed_index_one():
    assert calibrate.normalise_time(1.2345, 1.0) == 1.2345


def test_a_faster_machine_reads_longer_at_reference_speed():
    assert calibrate.normalise_time(2.0, 1.5) == pytest.approx(3.0)


def fake_meter(rates):
    """A SpeedMeter whose slices take exactly as long as the given
    rates say, without running anything."""
    rates = iter(rates)
    return calibrate.SpeedMeter(
        slice_ops=1000, slice_fn=lambda ops: ops / next(rates))


def test_speed_index_is_one_when_slices_run_at_the_reference_rate():
    meter = fake_meter([calibrate.REFERENCE_RATE] * 3)
    meter.begin()
    raw, normalised, index = meter.end()
    assert index == pytest.approx(1.0)
    assert normalised == pytest.approx(raw)
    assert meter.speed_index == pytest.approx(1.0)


def test_a_chunk_is_scaled_by_the_slices_on_either_side_of_it():
    reference = calibrate.REFERENCE_RATE
    meter = fake_meter([reference, 2.0 * reference])
    meter.begin()
    raw, normalised, index = meter.end()
    assert index == pytest.approx(1.5)
    assert normalised == pytest.approx(1.5 * raw)


def test_checkpoint_leaves_a_short_chunk_open():
    meter = fake_meter([calibrate.REFERENCE_RATE] * 2)
    meter.begin()
    assert meter.checkpoint() is None
    assert meter.calibration_ops == 1000          # only the bracket before


@pytest.fixture
def pacer(monkeypatch):
    monkeypatch.setattr(pacing, "HOOKED", ())       # wrap nothing here
    return pacing.Pacer()


def long_call(meter=None):
    def call():
        time.sleep(0.05)
        if meter is not None:
            meter.checkpoint()
        time.sleep(12 * calibrate.SpeedMeter.CHUNK_SECONDS)
    return call


def test_a_long_call_in_which_no_hook_fired_is_refused(pacer):
    meter = fake_meter([calibrate.REFERENCE_RATE] * 2)
    with pytest.raises(pacing.Unpaced):
        pacer.timed(meter, long_call())


def test_one_checkpoint_inside_the_call_is_enough(pacer):
    meter = fake_meter([calibrate.REFERENCE_RATE] * 3)
    raw, index = pacer.timed(meter, long_call(meter))
    assert meter.chunks == 2
    assert index == pytest.approx(1.0)


def test_a_call_blocked_on_other_processes_has_no_hooks_to_lose(pacer):
    meter = fake_meter([calibrate.REFERENCE_RATE] * 2)
    raw, index = pacer.timed(meter, long_call(), blocked=True)
    assert raw >= 12 * calibrate.SpeedMeter.CHUNK_SECONDS


def test_a_short_call_needs_no_checkpoint(pacer):
    meter = fake_meter([calibrate.REFERENCE_RATE] * 2)
    pacer.timed(meter, lambda: None)
