"""Span self-time arithmetic."""

import threading

import pytest

from spans import Recorder, Span, attribute, covered


def span(layer, start, end, parent=None):
    return Span(layer, start, end, parent=parent)


def test_covered_is_the_union_clipped_to_the_parent():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_nested_children_leave_the_parent_its_self_time():
    tick = span("tick", 0.0, 10.0)
    validate = span("validate", 2.0, 8.0, parent=tick)
    append = span("append", 8.5, 9.5, parent=tick)
    score = span("score", 3.0, 4.0, parent=validate)
    times, roots = attribute([tick, validate, append, score])
    assert roots == pytest.approx(10.0)
    assert times == pytest.approx(
        {"tick": 3.0, "validate": 5.0, "append": 1.0, "score": 1.0})
    assert sum(times.values()) == pytest.approx(roots)


def test_cross_thread_children_are_not_charged_twice():
    # Two pool threads ran benchmarks in parallel under one validate
    # span: 4 s of wall is covered, by 6 s of child durations.
    validate = span("validate", 0.0, 5.0)
    first = span("run", 1.0, 4.0, parent=validate)
    second = span("run", 2.0, 5.0, parent=validate)
    times, roots = attribute([validate, first, second])
    assert times["validate"] == pytest.approx(1.0)
    assert times["run"] == pytest.approx(4.0)
    assert sum(times.values()) == pytest.approx(roots) == pytest.approx(5.0)


def test_scaling_carries_down_to_grandchildren():
    validate = span("validate", 0.0, 4.0)
    first = span("run", 0.0, 4.0, parent=validate)
    second = span("run", 0.0, 4.0, parent=validate)
    inner = span("sanitize", 1.0, 3.0, parent=first)
    times, roots = attribute([validate, first, second, inner])
    # Each run is worth half the covered 4 s; half of the first is inner.
    assert times == pytest.approx(
        {"validate": 0.0, "run": 3.0, "sanitize": 1.0})
    assert sum(times.values()) == pytest.approx(roots)


def test_a_span_whose_parent_is_outside_the_window_is_a_root():
    outside = span("setup", 0.0, 100.0)
    inside = span("tick", 10.0, 12.0, parent=outside)
    times, roots = attribute([inside])
    assert times == {"tick": pytest.approx(2.0)} and roots == pytest.approx(2.0)


def test_recorder_nests_on_one_thread_and_adopts_across_threads():
    recorder = Recorder()

    def run():
        return "ran"

    wrapped_run = recorder.wrap("run", run, count=lambda args, result: 7)

    def validate():
        worker = threading.Thread(target=wrapped_run)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return recorder.wrap("score", lambda: None)()

    recorder.wrap("tick", recorder.wrap("validate", validate, adopts=True),
                  causes=True)()
    by_layer = {s.layer: s for s in recorder.spans}
    assert by_layer["validate"].parent is by_layer["tick"]
    assert by_layer["score"].parent is by_layer["validate"]   # same thread
    assert by_layer["run"].parent is by_layer["validate"]     # pool thread
    assert by_layer["run"].n == 7
    assert {s.cause for s in recorder.spans} == {"tick#1"}
    assert recorder.cause is None and recorder.adopter is None


def test_worker_dump_round_trips(tmp_path):
    from spans import load_worker_spans
    recorder = Recorder()
    recorder.cause = "w1.1"
    recorder.wrap("outer", recorder.wrap("inner", lambda: None,
                                         count=lambda a, r: 3))()
    recorder.dump(tmp_path / "worker-1.json")
    loaded = load_worker_spans(tmp_path)
    assert [s.layer for s in loaded] == ["outer", "inner"]
    assert loaded[1].parent is loaded[0] and loaded[0].parent is None
    assert loaded[1].n == 3 and loaded[1].cause == "w1.1"
