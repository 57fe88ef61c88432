"""The traced pass: per-layer attribution from spans, counts and journals.

The workload runs twice at a third of its events, on fresh deployments
over the same inputs: once untraced, once with :mod:`spans` wrapped
around the program's public calls.  The traced drive gives every
``_share`` (self time / traced drive wall time) and per-call cost; the
ratio of the two drives' ``events_per_s`` is the tracing overhead.
Legs the drive does not exercise -- recovery replay, one live
``SIGKILL``, the report, fsync'd appends, the frame codec over the
drive's own frames -- run once each afterwards.

Every metric is reported for every workload; a layer a workload does
not have (the supervisor under ``fleet-learn``, the process fabric
under the thread workloads) reads 0.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from collections import defaultdict

import calibrate
import pacing
import stats

__all__ = ["LAYER_METRICS", "run_traced", "UNATTRIBUTED_LIMIT"]

#: name, unit, better.  BENCHMARK.json's ``per_layer`` is this list.
LAYER_METRICS = (
    # Demoted from the end-to-end list: across ten seeds its spread was
    # 13-36 % (the tail of a priority queue under a closed loop belongs
    # to whichever low-risk event starved), more than any bound allows.
    ("verdict_latency_p95_ms", "ms", "lower"),
    ("service.supervisor.submit_us", "us", "lower"),
    ("service.supervisor.tick_self_share", "share", "lower"),
    ("service.procfabric.rpc_roundtrip_us", "us", "lower"),
    ("service.procfabric.frame_encode_us", "us", "lower"),
    ("service.procfabric.frame_decode_us", "us", "lower"),
    ("service.procfabric.frames_per_event", "count", "lower"),
    ("service.procfabric.frame_bytes_per_event", "B", "lower"),
    ("service.procfabric.parent_wait_share", "share", "lower"),
    ("service.procfabric.spawn_s_per_worker", "s", "lower"),
    ("service.procfabric.sigkill_recover_s", "s", "lower"),
    ("service.controlplane.submit_us", "us", "lower"),
    ("service.controlplane.tick_self_share", "share", "lower"),
    ("service.controlplane.tick_p99_ms", "ms", "lower"),
    ("service.queue.push_pop_us", "us", "lower"),
    ("service.queue.wait_p50_ms", "ms", "lower"),
    ("service.queue.coalesce_ratio", "ratio", "higher"),
    ("service.pool.validate_share", "share", "lower"),
    ("service.pool.validate_ms_per_event", "ms", "lower"),
    ("service.store.append_us", "us", "lower"),
    ("service.store.append_share", "share", "lower"),
    ("service.store.records_per_event", "count", "lower"),
    ("service.store.replay_records_per_s", "1/s", "higher"),
    ("service.store.append_fsync_us", "us", "lower"),
    ("benchsuite.run_us_per_window", "us", "lower"),
    ("benchsuite.run_share", "share", "lower"),
    ("benchsuite.windows_per_event", "count", "lower"),
    ("quality.sanitize_us_per_window", "us", "lower"),
    ("quality.sanitize_share", "share", "lower"),
    ("quality.quarantine_ratio", "ratio", "lower"),
    ("quality.rollout_eval_ms_per_key", "ms", "lower"),
    ("core.selector.select_us", "us", "lower"),
    ("core.selector.skip_ratio", "ratio", "higher"),
    ("core.validator.score_us_per_window", "us", "lower"),
    ("core.validator.score_share", "share", "lower"),
    ("core.validator.verdict_precision", "ratio", "higher"),
    ("core.validator.verdict_recall", "ratio", "higher"),
    ("core.incremental.learn_ms_per_key", "ms", "lower"),
    ("core.incremental.delta_key_ratio", "ratio", "higher"),
    ("core.persistence.snapshot_bytes", "B", "lower"),
    ("analytics.reader.read_records_per_s", "1/s", "higher"),
    ("analytics.reader.read_mb_per_s", "MB/s", "higher"),
    ("analytics.report.build_ms", "ms", "lower"),
    ("analytics.report.render_ms", "ms", "lower"),
    ("hardware.build_fleet_s", "s", "lower"),
    ("survival.fit_s", "s", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("machine.speed_index", "ratio", "higher"),
)

#: Closure: on the thread and inline workloads no more than this share
#: of the traced drive may fall outside every wrapped call.
UNATTRIBUTED_LIMIT = 0.15

FSYNC_APPENDS = 100


class _Layers:
    """Durations and counts per layer over a set of spans."""

    def __init__(self, spans):
        self.by_layer: dict[str, list] = defaultdict(list)
        for span in spans:
            self.by_layer[span.layer].append(span)

    def durations(self, *layers) -> list[float]:
        return [span.duration for layer in layers
                for span in self.by_layer.get(layer, ())]

    def total_s(self, *layers) -> float:
        return sum(self.durations(*layers))

    def calls(self, *layers) -> int:
        return sum(len(self.by_layer.get(layer, ())) for layer in layers)

    def work(self, *layers) -> int:
        """Sum of the spans' boundary counts (``Span.n``)."""
        return sum(span.n for layer in layers
                   for span in self.by_layer.get(layer, ()))

    def mean_us(self, *layers) -> float:
        durations = self.durations(*layers)
        return statistics.fmean(durations) * 1e6 if durations else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(m) -> None:
    """Fill ``m.rows`` with every per-layer metric (``m`` is the
    :class:`run.Measurement`)."""
    import spans
    from drive import build_target, drive, settle
    from harness import Deployment, Row

    workload = m.workload
    inline = workload.target == "inline"
    count = max(m.event_floor, m.event_count // 3)
    values = {name: 0.0 for name, _unit, _better in LAYER_METRICS}

    # -- the untraced pass ----------------------------------------------
    m.pacer = pacing.Pacer()
    m.notes.extend(m.pacer.notes)
    setup_meter = calibrate.SpeedMeter()
    m.deployment = plain = Deployment(workload, m.args.seed, m.scale,
                                      m.work / "untraced", setup_meter)
    env = plain.env
    nodes = env.learn_nodes
    if inline:
        m.count_learn(plain.learner.learn_criteria(nodes))
        plain.warm_up()
    events = plain.events(count, "drive")
    untraced = drive(plain.target, events, calibrate.SpeedMeter())
    settle(plain.target)
    plain.completed_parts += untraced.completed_parts
    plain_report = m.check_outputs()
    if workload.target == "process":
        m.cross_check_transport(plain_report, count)

    # -- the traced pass: the same events on a fresh deployment -----------
    recorder = spans.Recorder()
    spans.install(recorder)
    m.notes.extend(recorder.notes)
    trace_dir = m.work / "worker-spans"
    trace_dir.mkdir()
    m.deployment = traced_dep = Deployment(
        workload, m.args.seed, m.scale, m.work / "traced",
        calibrate.SpeedMeter(), trace_dir=trace_dir, recorder=recorder,
        env=env)
    if inline:
        m.count_learn(traced_dep.learner.learn_criteria(nodes))
        traced_dep.warm_up()
    first, opened = len(recorder.spans), time.perf_counter()
    first_frame = len(traced_dep.target.frames)
    traced = drive(traced_dep.target, events, calibrate.SpeedMeter())
    closed = time.perf_counter()
    main_spans = recorder.spans[first:]
    frames = traced_dep.target.frames[first_frame:]
    settle(traced_dep.target)
    traced_dep.completed_parts += traced.completed_parts
    m.attempted += 2 * len(events)
    m.count_learn(traced_dep.learner.learn_criteria(nodes))   # a re-learn

    # -- legs the drive does not exercise ------------------------------------
    if workload.target == "process":
        # Drive spans live in the workers until they exit cleanly.
        traced_dep.target.shutdown()
        started = time.perf_counter()
        traced_dep.target = fabric = build_target(
            env, traced_dep.root / "journal", traced_dep.criteria_path,
            trace_dir=trace_dir, recorder=recorder)
        values["service.procfabric.spawn_s_per_worker"] = (
            (time.perf_counter() - started) / len(fabric.journal_dirs))
        settle(fabric)
        started = time.perf_counter()
        fabric.kill(0)
        ticks = 0
        while not fabric.recovered(0):
            fabric.tick()
            ticks += 1
            if ticks > 10_000:
                m.problems.append("killed worker never recovered")
                break
        values["service.procfabric.sigkill_recover_s"] = (
            time.perf_counter() - started)
    else:
        traced_dep.recover()
    m.attempted += 1
    m.report(recorder)
    values["service.store.append_fsync_us"] = _fsync_leg(m)
    values.update(_frame_leg(m, frames, traced.completed_parts))
    report = m.check_outputs()

    # -- attribution of the traced drive ------------------------------------
    values.update(_drive_attribution(
        m, env, report, recorder.spans, main_spans,
        spans.load_worker_spans(trace_dir), (opened, closed), traced,
        untraced))
    for name, unit, _better in LAYER_METRICS:
        m.rows.append(Row(name, unit, values[name],
                          samples=traced.completed_parts))


def _drive_attribution(m, env, report, all_main, main_spans, worker_spans,
                       window, traced, untraced) -> dict[str, float]:
    """Per-layer values from the traced drive's spans (``main_spans``
    here, ``worker_spans`` inside ``window`` in the workers), the whole
    run's spans (``all_main``) for the legs outside the drive, and the
    journals' audit ``report``."""
    import spans

    opened, closed = window
    in_drive = [span for span in worker_spans
                if opened <= span.start <= closed]
    wall = traced.raw_s
    parts = traced.completed_parts
    main_time, main_roots = spans.attribute(main_spans)
    worker_time, worker_roots = spans.attribute(in_drive)
    rpc_wait = main_time.pop("service.procfabric.rpc", 0.0)
    unexplained_wait = max(0.0, rpc_wait - worker_roots)
    layer_time = defaultdict(float, main_time)
    for layer, seconds in worker_time.items():
        layer_time[layer] += seconds
    unattributed = (wall - main_roots) + unexplained_wait
    drive_layers = _Layers(main_spans + in_drive)
    everything = _Layers(all_main + worker_spans)

    def share(*layers) -> float:
        return sum(layer_time.get(layer, 0.0) for layer in layers) / wall

    v: dict[str, float] = {}
    v["verdict_latency_p95_ms"] = stats.percentile(
        untraced.latencies_s, 95.0,
        min_beyond=1 if m.quick else stats.MIN_BEYOND) * 1e3
    v["service.supervisor.submit_us"] = drive_layers.mean_us(
        "service.supervisor.submit")
    v["service.supervisor.tick_self_share"] = share("service.supervisor.tick")
    v["service.procfabric.rpc_roundtrip_us"] = drive_layers.mean_us(
        "service.procfabric.rpc")
    v["service.procfabric.parent_wait_share"] = rpc_wait / wall
    v["service.controlplane.submit_us"] = drive_layers.mean_us(
        "service.controlplane.submit")
    v["service.controlplane.tick_self_share"] = share(
        "service.controlplane.tick")
    tick_durations = drive_layers.durations("service.controlplane.tick")
    # A layer percentile, not a gate: reported with whatever tail the
    # traced pass has.
    v["service.controlplane.tick_p99_ms"] = stats.percentile(
        tick_durations, 99.0, min_beyond=0) * 1e3
    v["service.queue.push_pop_us"] = drive_layers.mean_us(
        "service.queue.push", "service.queue.pop")
    v["service.queue.wait_p50_ms"] = stats.percentile(
        report.queue_latencies_s, 50.0) * 1e3
    v["service.queue.coalesce_ratio"] = _ratio(
        report.coalesced, report.coalesced + report.enqueued)
    v["service.pool.validate_share"] = share("service.pool.validate")
    v["service.pool.validate_ms_per_event"] = _ratio(
        drive_layers.total_s("service.pool.validate") * 1e3, parts)
    v["service.store.append_us"] = drive_layers.mean_us(
        "service.store.append")
    v["service.store.append_share"] = share("service.store.append")
    v["service.store.records_per_event"] = _ratio(
        drive_layers.calls("service.store.append"), parts)
    v["service.store.replay_records_per_s"] = _ratio(
        everything.work("service.store.replay"),
        everything.total_s("service.store.replay"))
    windows = drive_layers.work("benchsuite.run")
    v["benchsuite.run_us_per_window"] = _ratio(
        drive_layers.total_s("benchsuite.run") * 1e6, windows)
    v["benchsuite.run_share"] = share("benchsuite.run")
    v["benchsuite.windows_per_event"] = _ratio(windows, parts)
    sanitized = drive_layers.work("quality.sanitize")
    v["quality.sanitize_us_per_window"] = _ratio(
        drive_layers.total_s("quality.sanitize") * 1e6, sanitized)
    v["quality.sanitize_share"] = share("quality.sanitize")
    v["quality.quarantine_ratio"] = _ratio(report.quarantined_windows,
                                           report.provenance_windows)
    v["quality.rollout_eval_ms_per_key"] = everything.mean_us(
        "quality.rollout_eval") / 1e3
    v["core.selector.select_us"] = drive_layers.mean_us(
        "core.selector.select")
    v["core.selector.skip_ratio"] = _ratio(report.gated_skipped,
                                           report.gated_completed)
    scored = drive_layers.work("core.validator.score")
    v["core.validator.score_us_per_window"] = _ratio(
        drive_layers.total_s("core.validator.score") * 1e6, scored)
    v["core.validator.score_share"] = share("core.validator.score")
    defective = {node.node_id for node in env.fleet.defective_nodes}
    flagged, validated = report.flagged_nodes(), report.validated_nodes()
    v["core.validator.verdict_precision"] = _ratio(
        len(flagged & defective), len(flagged))
    v["core.validator.verdict_recall"] = _ratio(
        len(flagged & defective), len(validated & defective))
    v["core.incremental.learn_ms_per_key"] = _ratio(
        everything.total_s("core.validator.learn") * 1e3,
        everything.work("core.validator.learn"))
    learned = sum(report.learned_paths.values())
    v["core.incremental.delta_key_ratio"] = _ratio(
        report.learned_paths["delta"] + report.learned_paths["cached"],
        learned)
    v["core.persistence.snapshot_bytes"] = _ratio(
        report.bytes_by_kind["criteria-snapshot"],
        report.by_kind["criteria-snapshot"])
    read_s = everything.total_s("analytics.reader.read")
    v["analytics.reader.read_records_per_s"] = _ratio(
        everything.work("analytics.reader.read"), read_s)
    v["analytics.reader.read_mb_per_s"] = _ratio(report.bytes / 1e6, read_s)
    v["analytics.report.build_ms"] = everything.mean_us(
        "analytics.report.build") / 1e3
    v["analytics.report.render_ms"] = everything.mean_us(
        "analytics.report.render") / 1e3
    v["hardware.build_fleet_s"] = env.build_fleet_s
    v["survival.fit_s"] = env.fit_s
    v["trace.unattributed_share"] = unattributed / wall
    v["trace.overhead_ratio"] = (
        (untraced.completed_parts / untraced.normalised_s)
        / (traced.completed_parts / traced.normalised_s))
    v["machine.speed_index"] = traced.normalised_s / traced.raw_s

    if (m.workload.target != "process"
            and v["trace.unattributed_share"] > UNATTRIBUTED_LIMIT):
        m.problems.append(
            f"{v['trace.unattributed_share']:.3f} of the traced drive is "
            f"outside every wrapped call (limit {UNATTRIBUTED_LIMIT})")
    return v


def _frame_leg(m, frames, parts: int) -> dict[str, float]:
    """Micro-leg: every frame the traced drive exchanged with its
    workers, through the program's public ``write_frame`` and
    ``read_frame`` over a scratch file (the parent's end of the pipe is
    private to the fabric; the codec is the same)."""
    from repro.service import procfabric
    if not frames:
        return {}
    try:
        write_frame, read_frame = procfabric.write_frame, procfabric.read_frame
    except AttributeError as error:
        m.notes.append(f"not measured: the frame codec ({error})")
        return {}
    encode_s = decode_s = 0.0
    size = 0
    with tempfile.TemporaryFile(dir=m.work) as scratch:
        fd = scratch.fileno()
        for frame in frames:
            os.lseek(fd, 0, os.SEEK_SET)
            started = time.perf_counter()
            write_frame(fd, frame)
            encode_s += time.perf_counter() - started
            size += os.lseek(fd, 0, os.SEEK_CUR)
            os.lseek(fd, 0, os.SEEK_SET)
            started = time.perf_counter()
            read_frame(fd)
            decode_s += time.perf_counter() - started
    return {
        "service.procfabric.frame_encode_us": encode_s / len(frames) * 1e6,
        "service.procfabric.frame_decode_us": decode_s / len(frames) * 1e6,
        "service.procfabric.frames_per_event": len(frames) / parts,
        "service.procfabric.frame_bytes_per_event": size / parts}


def _fsync_leg(m) -> float:
    """Micro-leg: mean microseconds per ``JournalStore.append`` with
    fsync on (the program's default is off)."""
    from repro.service.store import JournalStore, RecordKind
    store = JournalStore(m.fresh_dir("fsync"), fsync=True)
    payload = {"shard": 0, "tick": 0, "progress": 0, "queue_depth": 0,
               "restarts": 0, "stalled_ticks": 0}
    started = time.perf_counter()
    for _ in range(FSYNC_APPENDS):
        store.append(RecordKind.SHARD_HEARTBEAT, payload)
    return (time.perf_counter() - started) / FSYNC_APPENDS * 1e6
