"""The process-isolated shard fabric under real OS-level faults.

Everything the thread fabric proves against :class:`SimulatedKill`,
proven here against the operating system: workers are genuine child
processes, ``kill -9`` is a genuine ``SIGKILL`` between two journal
appends (injected by the worker against itself via
:class:`ChaosPlan`), hangs are genuine ``SIGSTOP`` freezes,
and graceful drain is a genuine ``SIGTERM`` against a live
``python -m repro serve`` parent.

The acceptance invariant throughout: **zero events lost, zero events
duplicated** -- every part the parent delivered lands in exactly one
shard journal and completes exactly once, no matter where a child
died.  Tier-1 runs a sampled kill-prefix sweep plus the signal
scenarios; the exhaustive every-prefix sweep and the mixed-fault
storm are ``-m soak``.
"""

import atexit
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analytics import JournalReader
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.persistence import save_criteria
from repro.core.selector import NodeStatus
from repro.core.system import EventKind, ValidationEvent
from repro.core.validator import Validator
from repro.hardware.fleet import build_fleet
from repro.service import (
    PARENT_ORIGIN,
    ChaosPlan,
    ProcessFabric,
    SupervisorConfig,
)
from repro.service import store as store_module
from repro.service.procfabric import (
    STATUS_LOST,
    ShardWorker,
    WorkerFault,
    _WorkerHandle,
    default_builder,
)
from repro.service.shard import HashRing, ShardState
from repro.service.store import JournalStore, RecordKind

REPO = Path(__file__).resolve().parents[2]
SUITE_NAMES = ["ib-loopback", "mem-bw"]
FLEET_SIZE = 12
FLEET_SEED = 5
SHARDS = 2
POOL = {"max_workers": 2, "benchmark_timeout_seconds": 2.0,
        "max_attempts": 1, "backoff_base_seconds": 0.0,
        "poll_interval_seconds": 0.005}


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(FLEET_SIZE, seed=FLEET_SEED)


@pytest.fixture(scope="module")
def criteria_path(tmp_path_factory, fleet):
    """Criteria learned once and persisted; every worker loads them
    instead of paying the learn cost per spawn."""
    suite = tuple(suite_by_name(name) for name in SUITE_NAMES)
    validator = Validator(suite, runner=SuiteRunner(seed=9))
    validator.learn_criteria(fleet.nodes[:6])
    path = tmp_path_factory.mktemp("criteria") / "criteria.json"
    save_criteria(validator, path)
    return path


def builder_args(criteria_path) -> dict:
    return {"fleet_size": FLEET_SIZE, "fleet_seed": FLEET_SEED,
            "suite": SUITE_NAMES, "runner_seed": 9,
            "criteria_path": str(criteria_path), "pool": POOL}


def make_fabric(root, criteria_path, *, chaos=None, shards=SHARDS,
                **kwargs) -> ProcessFabric:
    kwargs.setdefault("status_deadline_seconds", 30.0)
    kwargs.setdefault("tick_deadline_seconds", 60.0)
    kwargs.setdefault("spawn_deadline_seconds", 120.0)
    return ProcessFabric(
        builder="repro.service.procfabric:default_builder",
        builder_args=builder_args(criteria_path),
        journal_root=root,
        config=SupervisorConfig(shard_count=shards),
        chaos=chaos, **kwargs)


def make_events(fleet, count, *, width=2, seed=0):
    """``count`` events over distinct node sets, so no two coalesce
    and per-event accounting is exact."""
    rng = np.random.default_rng(seed)
    events = []
    for _ in range(count):
        picks = rng.choice(FLEET_SIZE, size=width, replace=False)
        members = tuple(fleet.nodes[int(p)] for p in picks)
        statuses = tuple(NodeStatus(node_id=n.node_id,
                                    covariates=np.zeros(3))
                         for n in members)
        events.append(ValidationEvent(kind=EventKind.JOB_ALLOCATION,
                                      nodes=members, statuses=statuses,
                                      duration_hours=24.0 + len(events)))
    # Distinct (kind, node-set) keys are what make "exactly once"
    # checkable; a duplicate key would legitimately coalesce.
    keys = [frozenset(n.node_id for n in e.nodes) for e in events]
    assert len(set(keys)) == len(keys)
    return events


def expected_parts(events, *, shards=SHARDS):
    """The (shard, node-set) parts a healthy fabric would create."""
    ring = HashRing(shards, virtual_nodes=SupervisorConfig().virtual_nodes)
    parts = set()
    for event in events:
        groups = {}
        for node in event.nodes:
            groups.setdefault(ring.owner(node.node_id), []).append(
                node.node_id)
        for index, ids in groups.items():
            parts.add((index, frozenset(ids)))
    return parts


def journal_accounting(root, *, shards=SHARDS):
    """Reduce every shard journal to enqueue/complete/origin facts."""
    facts = {"parts": set(), "origins": [], "completed": {},
             "enqueued": {}, "restarts": 0, "sealed": {}}
    for index in range(shards):
        directory = Path(root) / f"shard-{index:02d}"
        records = list(JournalStore(directory).replay())
        enq, done = {}, set()
        last_kind = None
        for record in records:
            last_kind = record.kind
            if record.kind == RecordKind.EVENT_ENQUEUED:
                nodes = frozenset(record.payload["event"]["nodes"])
                enq[int(record.payload["event_id"])] = nodes
                facts["parts"].add((index, nodes))
                origin = record.payload.get("origin")
                if origin is not None:
                    facts["origins"].append(tuple(origin))
            elif record.kind == RecordKind.EVENT_COMPLETED:
                done.add(int(record.payload["event_id"]))
            elif record.kind == RecordKind.PROC_RESTART:
                facts["restarts"] += 1
        facts["enqueued"][index] = enq
        facts["completed"][index] = done
        facts["sealed"][index] = last_kind == RecordKind.FABRIC_DRAIN
    return facts


def assert_exactly_once(root, events, *, shards=SHARDS):
    facts = journal_accounting(root, shards=shards)
    # Every expected part enqueued in exactly its owner's journal, and
    # nothing else: no losses, no cross-shard duplicates.
    assert facts["parts"] == expected_parts(events, shards=shards)
    # Every enqueued event completed, every completion has an enqueue.
    for index in range(shards):
        assert set(facts["enqueued"][index]) == facts["completed"][index]
    # Each delivery origin accepted at most once across the fabric.
    assert len(facts["origins"]) == len(set(facts["origins"]))
    assert all(origin[0] == PARENT_ORIGIN for origin in facts["origins"])
    return facts


class TestProcessFabricBasics:
    def test_submit_drain_shutdown_exactly_once(self, tmp_path, fleet,
                                                criteria_path):
        events = make_events(fleet, 4, seed=1)
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            for event in events:
                fabric.submit(event)
            results = fabric.drain(max_ticks=300)
            assert len(results) == len(expected_parts(events))
        finally:
            sealed = fabric.shutdown()
        assert all(sealed.values())
        facts = assert_exactly_once(tmp_path / "j", events)
        # Graceful shutdown leaves every journal sealed with the
        # fabric-drain marker as its final record.
        assert all(facts["sealed"].values())
        assert fabric.metrics.shard_restarts == 0
        assert fabric.metrics.shard_crashes == 0

    def test_shutdown_is_idempotent(self, tmp_path, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        first = fabric.shutdown()
        assert all(first.values())
        assert fabric.shutdown() == {}

    def test_summary_reports_live_workers(self, tmp_path, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            summary = fabric.summary()
            assert summary["shard_restarts"] == 0
            for entry in summary["shards"].values():
                assert entry["state"] == "running"
                assert entry["pid"] is not None
                assert entry["queue_depth"] == 0
        finally:
            fabric.shutdown()


def own_shard_index() -> int:
    """The shard of the worker a builder runs in (a builder is handed
    only its args)."""
    frame = sys._getframe()
    while not isinstance(frame.f_locals.get("self"), ShardWorker):
        frame = frame.f_back
    return frame.f_locals["self"].spec.shard_index


def staged_builder(args: dict):
    """:func:`default_builder` behind a scripted start-up.

    Each worker touches ``started-<shard>`` under ``args["markers"]``,
    then does what ``args["stages"][shard]`` says: ``"build"`` at
    once, ``"rendezvous"`` once every shard has started, ``"block"``
    never, ``"raise"`` fail.  A waiting worker gives up after two
    minutes, so none outlives a broken test for long."""
    index = own_shard_index()
    markers, stages = Path(args["markers"]), args["stages"]
    (markers / f"started-{index}").touch()
    stage = stages[index]
    if stage == "raise":
        raise RuntimeError(f"shard {index} cannot build")
    give_up = time.monotonic() + 120.0
    while stage != "build" and not (
            stage == "rendezvous"
            and all((markers / f"started-{other}").exists()
                    for other in range(len(stages)))):
        if time.monotonic() > give_up:
            raise RuntimeError(f"shard {index} waited in vain")
        time.sleep(0.02)
    return default_builder(args["default"])


class TestStartUp:
    """Construction starts every worker before it awaits any, each
    spawn deadline runs from its own worker's start, and a start-up
    failure without fault injection leaves no process behind."""

    @pytest.fixture
    def staged_fabric(self, tmp_path, criteria_path, monkeypatch):
        # Workers resolve the builder by module name.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            [str(REPO), os.environ.get("PYTHONPATH", "")]))
        markers = tmp_path / "markers"
        markers.mkdir()

        def make(stages, **kwargs):
            return ProcessFabric(
                builder="tests.integration.test_process_fabric:"
                        "staged_builder",
                builder_args={"markers": str(markers), "stages": stages,
                              "default": builder_args(criteria_path)},
                journal_root=tmp_path / "j",
                config=SupervisorConfig(shard_count=len(stages)),
                **kwargs)

        return make

    def test_workers_boot_side_by_side(self, staged_fabric):
        # Every builder waits until every worker has started: awaiting
        # shard 0 before starting shard 1 would never see it ready.
        fabric = staged_fabric(["rendezvous"] * SHARDS,
                               spawn_deadline_seconds=20.0)
        try:
            assert all(handle.alive() for handle in fabric.workers)
            assert fabric.metrics.shard_crashes == 0
        finally:
            sealed = fabric.shutdown()
        assert all(sealed.values())

    def test_spawn_deadline_counts_from_each_workers_own_start(
            self, staged_fabric):
        # No worker ever gets ready.  A plan that injects nothing still
        # makes start-up faults contained, so both are awaited, one
        # after the other, on deadlines that ran side by side: one
        # deadline in all, not one per shard.
        deadline = 4.0
        started = time.monotonic()
        fabric = staged_fabric(["block"] * SHARDS,
                               chaos=ChaosPlan(seed=0),
                               spawn_deadline_seconds=deadline)
        elapsed = time.monotonic() - started
        try:
            assert fabric.metrics.rpc_timeouts == SHARDS
            assert all(handle.state is ShardState.RESTARTING
                       for handle in fabric.workers)
            assert deadline <= elapsed < 1.5 * deadline
        finally:
            fabric.shutdown()

    def test_start_up_failure_fails_fast_and_reaps_every_worker(
            self, staged_fabric, tmp_path, monkeypatch):
        # Shard 1 fails; shard 0 is ready by then and shard 2 is still
        # booting.  A booting worker is signalled: a `seal` RPC would
        # wait out the drain timeout for a reply it never sends.
        handles = []
        start = _WorkerHandle.start

        def recording_start(handle):
            handles.append(handle)
            start(handle)

        monkeypatch.setattr(_WorkerHandle, "start", recording_start)
        drain = 30.0
        started = time.monotonic()
        with pytest.raises(WorkerFault):
            staged_fabric(["build", "raise", "block"],
                          drain_timeout_seconds=drain)
        assert time.monotonic() - started < drain
        assert [handle.shard_index for handle in handles] == [0, 1, 2]
        for handle in handles:
            assert handle.proc.returncode is not None
            with pytest.raises(ProcessLookupError):
                os.kill(handle.proc.pid, 0)
        assert last_kind(tmp_path / "j" / "shard-00") == \
            RecordKind.FABRIC_DRAIN


class TestExternalSigkill:
    """A kill the worker does NOT inject itself: the test SIGKILLs a
    live child PID mid-run, exactly as an OOM killer would."""

    def test_killed_worker_restarts_without_loss(self, tmp_path, fleet,
                                                 criteria_path):
        events = make_events(fleet, 5, seed=2)
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            for event in events:
                fabric.submit(event)
            victim = fabric.workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            results = fabric.drain(max_ticks=300)
            assert len(results) == len(expected_parts(events))
            assert fabric.metrics.shard_crashes == 1
            assert fabric.metrics.shard_restarts == 1
            assert victim.incarnation == 1
            assert victim.state is ShardState.RUNNING
        finally:
            fabric.shutdown()
        facts = assert_exactly_once(tmp_path / "j", events)
        assert facts["restarts"] == 1


class TestDegradeWithLostAck:
    """Regression: a part durably journaled by a shard whose delivery
    ACK was lost must fail over under its ORIGINAL parent origin when
    the shard degrades.  The bug was two deliveries to the sibling --
    one from the failover under ``(shard, event_id)``, one from the
    undelivered-retry path under ``(-1, n)`` -- whose differing
    origins defeated the worker's dedupe."""

    def test_parked_delivery_not_duplicated_on_degrade(
            self, tmp_path, fleet, criteria_path):
        root = tmp_path / "j"
        fabric = make_fabric(root, criteria_path)
        try:
            groups = {}
            for node in fleet.nodes:
                groups.setdefault(fabric.route(node.node_id),
                                  []).append(node)
            victim, members = max(groups.items(),
                                  key=lambda kv: len(kv[1]))
            nodes = tuple(members[:2])
            statuses = tuple(NodeStatus(node_id=n.node_id,
                                        covariates=np.zeros(3))
                             for n in nodes)
            event = ValidationEvent(kind=EventKind.JOB_ALLOCATION,
                                    nodes=nodes, statuses=statuses,
                                    duration_hours=24.0)
            replies = fabric.submit(event)
            assert replies[victim]["ok"]
            # Simulate the lost ACK: the part sits in the victim's
            # journal, but the parent still believes it undelivered.
            origin = (PARENT_ORIGIN, fabric._origin_seq)
            fabric._undelivered[origin] = {"target": victim,
                                           "event": event.to_payload()}
            handle = fabric.workers[victim]
            handle.restarts = fabric.config.max_shard_restarts
            os.kill(handle.proc.pid, signal.SIGKILL)
            results = fabric.drain(max_ticks=300)
            assert handle.state is ShardState.DEGRADED
            assert origin not in fabric._undelivered
            assert fabric.metrics.events_failed_over == 1
            assert len(results) == 1
        finally:
            fabric.shutdown()
        sibling = next(i for i in range(SHARDS) if i != victim)
        records = list(JournalStore(Path(root) / f"shard-{sibling:02d}")
                       .replay())
        part = frozenset(n.node_id for n in nodes)
        enqueues = [r for r in records
                    if r.kind == RecordKind.EVENT_ENQUEUED
                    and frozenset(r.payload["event"]["nodes"]) == part]
        assert len(enqueues) == 1
        assert tuple(enqueues[0].payload["origin"]) == origin
        # The retry path must not have delivered a second copy: a
        # duplicate while the first is still queued shows up as a
        # coalesce rather than a second enqueue.
        assert not [r for r in records
                    if r.kind == RecordKind.EVENT_COALESCED]
        handoffs = [r for r in JournalStore(
                        Path(root) / f"shard-{victim:02d}").replay()
                    if r.kind == RecordKind.SHARD_HANDOFF]
        assert len(handoffs) == 1
        assert tuple(handoffs[0].payload["origin"]) == origin


def run_kill_prefix(root, fleet, criteria_path, cut: int, shard: int):
    """One fabric run where ``shard`` SIGKILLs itself before its
    journal append number ``cut``."""
    events = make_events(fleet, 4, seed=3)
    plan = ChaosPlan(seed=7, target_shards=(shard,),
                     kill_after_appends=cut - 1)
    fabric = make_fabric(root, criteria_path, chaos=plan)
    try:
        for event in events:
            fabric.submit(event)
        results = fabric.drain(max_ticks=300)
        assert len(results) == len(expected_parts(events))
    finally:
        fabric.shutdown()
    facts = assert_exactly_once(root, events)
    return fabric, facts


def baseline_appends(tmp_path, fleet, criteria_path, shard: int) -> int:
    """Journal length of ``shard`` after one healthy run -- the space
    of possible kill points."""
    events = make_events(fleet, 4, seed=3)
    fabric = make_fabric(tmp_path / "baseline", criteria_path)
    try:
        for event in events:
            fabric.submit(event)
        fabric.drain(max_ticks=300)
    finally:
        fabric.shutdown()
    store = JournalStore(Path(tmp_path / "baseline")
                         / f"shard-{shard:02d}")
    return len(list(store.replay()))


class TestKillNineAtSampledPrefixes:
    """Tier-1 sampling of the every-prefix property: SIGKILL the child
    before journal appends spread across the run.  The exhaustive
    sweep is the soak twin below."""

    def test_sampled_prefix_kills_lose_nothing(self, tmp_path, fleet,
                                               criteria_path):
        total = baseline_appends(tmp_path, fleet, criteria_path, 0)
        assert total >= 4
        cuts = sorted({1, 2, total // 2, total})
        for cut in cuts:
            fabric, facts = run_kill_prefix(
                tmp_path / f"cut-{cut:03d}", fleet, criteria_path,
                cut, shard=0)
            # A kill during the run is observed as a worker death and
            # drives a journaled restart; a kill landing on the very
            # last append (the shutdown seal itself) kills a worker
            # the supervisor is done with -- the only trace is the
            # missing drain marker, and no event was at risk.
            killed_mid_run = fabric.metrics.shard_crashes >= 1
            killed_at_seal = not facts["sealed"][0]
            assert killed_mid_run or killed_at_seal, f"cut {cut}"
            if killed_mid_run:
                assert facts["restarts"] >= 1, f"cut {cut}"


@pytest.mark.soak
class TestKillNineAtEveryPrefixSoak:
    def test_every_prefix_both_shards(self, tmp_path, fleet,
                                      criteria_path):
        for shard in range(SHARDS):
            total = baseline_appends(tmp_path / f"s{shard}", fleet,
                                     criteria_path, shard)
            for cut in range(1, total + 1):
                run_kill_prefix(
                    tmp_path / f"s{shard}" / f"cut-{cut:03d}",
                    fleet, criteria_path, cut, shard=shard)


#: Journal records between checkpoints in the soak below: a four-event
#: run crosses several.
SOAK_CHECKPOINT_EVERY = 8


def checkpointing_builder(args: dict):
    """:func:`default_builder` with a checkpoint every
    ``args["every"]`` records.  With ``args["tear"] = n``, shard
    ``args["shard"]`` writes half of its ``n``-th checkpoint line and
    SIGKILLs itself -- once: ``args["marker"]`` records that it did,
    so the restarted worker checkpoints whole."""
    from repro.service import controlplane
    controlplane.CHECKPOINT_EVERY = int(args["every"])
    marker = Path(args["marker"])
    if (args.get("tear") is not None and not marker.exists()
            and own_shard_index() == args["shard"]):
        append, seen = JournalStore.append, []

        def tearing_append(store, kind, payload, **kwargs):
            if kind == RecordKind.CHECKPOINT:
                seen.append(kind)
                if len(seen) == args["tear"]:
                    marker.touch()
                    line = store_module._encode_record(
                        store.next_seq, kind, payload)
                    with store.path.open("a") as handle:
                        handle.write(line[:len(line) // 2])
                    os.kill(os.getpid(), signal.SIGKILL)
            return append(store, kind, payload, **kwargs)

        JournalStore.append = tearing_append
    return default_builder(args["default"])


def run_checkpoint_kill(root, fleet, criteria_path, *, cut=None, tear=None,
                        shard=0):
    """One run with checkpoints every :data:`SOAK_CHECKPOINT_EVERY`
    records, where ``shard`` SIGKILLs itself before its journal append
    number ``cut``, or halfway through writing its ``tear``-th
    checkpoint; the accounting must hold from the journals alone.

    Unlike :func:`run_kill_prefix` this does not count the parts the
    drain reported: a checkpoint is appended after the tick's
    ``event-completed`` record, so a kill before it loses that tick's
    reply -- the completion is durable and is not re-run -- as any
    kill between a worker's last append and its reply does."""
    events = make_events(fleet, 4, seed=3)
    plan = (None if cut is None else
            ChaosPlan(seed=7, target_shards=(shard,),
                      kill_after_appends=cut - 1))
    fabric = ProcessFabric(
        builder="tests.integration.test_process_fabric:"
                "checkpointing_builder",
        builder_args={"every": SOAK_CHECKPOINT_EVERY, "tear": tear,
                      "shard": shard, "marker": f"{root}.torn",
                      "default": builder_args(criteria_path)},
        journal_root=root, config=SupervisorConfig(shard_count=SHARDS),
        chaos=plan, status_deadline_seconds=30.0,
        tick_deadline_seconds=60.0, spawn_deadline_seconds=120.0)
    try:
        for event in events:
            fabric.submit(event)
        fabric.drain(max_ticks=300)
    finally:
        fabric.shutdown()
    return assert_exactly_once(root, events)


@pytest.mark.soak
class TestKillNineAcrossCheckpointsSoak:
    """SIGKILL before, inside (a torn line) and after every checkpoint
    append of a run that writes several."""

    def test_every_prefix_across_checkpoints(self, tmp_path, fleet,
                                             criteria_path, monkeypatch):
        # Workers resolve the builder by module name.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            [str(REPO), os.environ.get("PYTHONPATH", "")]))
        run_checkpoint_kill(tmp_path / "baseline", fleet, criteria_path)
        records = JournalStore(tmp_path / "baseline" / "shard-00").replay()
        checkpoints = [record.seq for record in records
                       if record.kind == RecordKind.CHECKPOINT]
        assert len(checkpoints) >= 2
        for cut in range(1, len(records) + 1):
            run_checkpoint_kill(tmp_path / f"cut-{cut:03d}", fleet,
                                criteria_path, cut=cut)
        for tear in range(1, len(checkpoints) + 1):
            root = tmp_path / f"tear-{tear}"
            facts = run_checkpoint_kill(root, fleet, criteria_path,
                                        tear=tear)
            assert facts["restarts"] >= 1, f"tear {tear}"
            reader = JournalReader(root / "shard-00")
            reader.read_all()
            assert reader.health()["corrupt_lines"] == 1, f"tear {tear}"


class TestSigstopHang:
    def test_frozen_worker_trips_deadline_and_restarts(self, tmp_path,
                                                       fleet,
                                                       criteria_path):
        events = make_events(fleet, 4, seed=4)
        plan = ChaosPlan(seed=5, target_shards=(0,),
                         hang_after_ticks=1)
        fabric = make_fabric(tmp_path / "j", criteria_path, chaos=plan,
                             status_deadline_seconds=20.0,
                             tick_deadline_seconds=5.0)
        try:
            for event in events:
                fabric.submit(event)
            results = fabric.drain(max_ticks=300)
            assert len(results) == len(expected_parts(events))
            # The freeze is invisible to PID liveness; only the RPC
            # deadline can have caught it.
            assert fabric.metrics.rpc_timeouts >= 1
            assert fabric.metrics.shard_crashes >= 1
            assert fabric.metrics.shard_restarts >= 1
        finally:
            fabric.shutdown()
        assert_exactly_once(tmp_path / "j", events)


def tap_requests(fabric):
    """Log ``(shard, cmd, incarnation)`` for every parent->worker RPC,
    at the seam the end-to-end benchmark counts frames at:
    ``handle.request``, reassigned on the instance."""
    log = []

    def tap(handle):
        request = handle.request

        def tapped(message, deadline_seconds):
            log.append((handle.shard_index, message["cmd"],
                        handle.incarnation))
            return request(message, deadline_seconds)

        handle.request = tapped

    for handle in fabric.workers:
        tap(handle)
    return log


def sent(log, shard, cmd):
    return sum(1 for index, command, _inc in log
               if index == shard and command == cmd)


def owned_events(fabric, fleet, shard, *, limit=None):
    """Distinct-key events (single nodes, then pairs) whose every node
    ``shard`` owns, so each is exactly one part on that shard."""
    owned = [node for node in fleet.nodes
             if fabric.route(node.node_id) == shard]
    groups = [(node,) for node in owned] + [
        (a, b) for i, a in enumerate(owned) for b in owned[i + 1:]]
    events = []
    for nodes in groups[:limit]:
        statuses = tuple(NodeStatus(node_id=n.node_id,
                                    covariates=np.zeros(3)) for n in nodes)
        events.append(ValidationEvent(kind=EventKind.JOB_ALLOCATION,
                                      nodes=nodes, statuses=statuses,
                                      duration_hours=24.0))
    return events


class TestStatusRidesReplies:
    """Every submit / tick / advance_repairs reply carries the shard's
    sample, so a round's liveness sample of a worker the parent just
    spoke to costs no frame -- and an idle, fresh or frozen worker is
    still asked.  Pinned by frame counts, not by time."""

    def test_status_frames_go_only_to_workers_nobody_spoke_to(
            self, tmp_path, fleet, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            log = tap_requests(fabric)
            busy, idle = 0, 1
            event, = owned_events(fabric, fleet, busy, limit=1)
            # An incarnation's first sample is always asked for.
            fabric.tick()
            assert sent(log, busy, "status") == 1
            assert sent(log, idle, "status") == 1

            mark = len(log)
            fabric.submit(event)            # the reply carries a sample
            assert fabric.tick()            # ... this round runs on
            assert sent(log[mark:], busy, "status") == 0
            assert sent(log[mark:], busy, "tick") == 1
            assert sent(log[mark:], idle, "status") == 1

            mark = len(log)
            fabric.tick()                   # sampled from the tick reply
            assert sent(log[mark:], busy, "status") == 0
            assert sent(log[mark:], idle, "status") == 1

            mark = len(log)
            fabric.tick()                   # nobody spoke to it: asked
            assert sent(log[mark:], busy, "status") == 1
            assert sent(log[mark:], idle, "status") == 1
            assert fabric.quiescent()       # tick-less: always asked
            assert sent(log[mark:], busy, "status") == 2
        finally:
            fabric.shutdown()
        # A proc-heartbeat is journaled per status RPC *answered* (and
        # for the ready frame and the constructor's state RPC, both
        # before the tap); a carried sample is not a heartbeat.
        for shard in (busy, idle):
            beats = [r for r in JournalStore(
                         tmp_path / "j" / f"shard-{shard:02d}").replay()
                     if r.kind == RecordKind.PROC_HEARTBEAT]
            assert len(beats) == 2 + sent(log, shard, "status"), shard
        assert sent(log, busy, "status") == 3
        assert sent(log, idle, "status") == 5

    def test_carried_sample_is_what_a_status_rpc_would_answer(
            self, tmp_path, fleet, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            log = tap_requests(fabric)
            handle = fabric.workers[0]
            first, second = owned_events(fabric, fleet, 0, limit=2)
            for speak in (lambda: fabric.submit(first),
                          lambda: fabric.submit(second),
                          handle.tick, handle.advance_repairs, handle.tick):
                speak()
                del log[:]
                carried = handle.status(fabric.tick_index)
                assert log == []            # no frame: it rode the reply
                asked = handle.status()     # without a tick: a real RPC
                assert sent(log, 0, "status") == 1
                assert carried == asked
                # Consumed: the same round number asks the worker now.
                assert handle.status(fabric.tick_index) == asked
                assert sent(log, 0, "status") == 2
            assert asked.queue_depth == 0 and asked.progress == 2
        finally:
            fabric.shutdown()

    def test_first_sample_after_a_restart_is_a_real_rpc(
            self, tmp_path, fleet, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            log = tap_requests(fabric)
            victim = fabric.workers[0]
            event, = owned_events(fabric, fleet, 0, limit=1)
            fabric.submit(event)            # leaves a carried sample
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.wait(timeout=30)
            results = fabric.drain(max_ticks=50)
            assert len(results) == 1 and victim.incarnation == 1
            reborn = [cmd for index, cmd, incarnation in log
                      if index == 0 and incarnation == 1]
            # The dead incarnation's sample was dropped with it: the
            # replacement is asked before it is scheduled.
            assert "status" in reborn
            assert reborn.index("status") < reborn.index("tick")
        finally:
            fabric.shutdown()
        assert_exactly_once(tmp_path / "j", [event])

    def test_idle_worker_frozen_by_sigstop_trips_status_deadline(
            self, tmp_path, criteria_path):
        deadline = 1.5
        fabric = make_fabric(tmp_path / "j", criteria_path,
                             status_deadline_seconds=deadline)
        try:
            fabric.tick()
            victim = fabric.workers[1]
            os.kill(victim.proc.pid, signal.SIGSTOP)
            started = time.monotonic()
            fabric.tick()                   # nobody spoke to it: probed
            elapsed = time.monotonic() - started
            assert fabric.metrics.rpc_timeouts == 1
            assert victim.state is ShardState.RESTARTING
            assert deadline <= elapsed < deadline + 5.0
            fabric.drain(max_ticks=50)
            assert victim.state is ShardState.RUNNING
            assert victim.incarnation == 1
        finally:
            fabric.shutdown()

    def test_dropped_heartbeat_round_cannot_serve_a_stale_sample(
            self, tmp_path, fleet, criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            log = tap_requests(fabric)
            handle = fabric.workers[0]
            first, second = owned_events(fabric, fleet, 0, limit=2)
            fabric.tick()
            fabric.submit(first)            # carried: one pending
            fabric.heartbeat_filter = lambda t: t.index != 0
            assert fabric.tick() == []      # its sample dropped: no tick
            fabric.heartbeat_filter = None
            fabric.submit(second)           # a later reply: two pending
            samples = []
            status = handle.status
            handle.status = lambda tick=None: (
                samples.append(status(tick)) or samples[-1])
            del log[:]
            assert len(fabric.tick()) == 1
            assert sent(log, 0, "status") == 0
            assert samples[0].queue_depth == 2
        finally:
            fabric.shutdown()


class TestFailoverReadsTheJournalOnce:
    """Handing off N pending entries appends N ``shard-handoff``
    records to the dead shard's journal; the parent must not re-open
    (and so re-replay) the journal for each."""

    def test_degrade_replays_the_dead_journal_a_constant_number_of_times(
            self, tmp_path, fleet, criteria_path, monkeypatch):
        root = tmp_path / "j"
        fabric = make_fabric(root, criteria_path)
        try:
            victim = max(range(SHARDS), key=lambda index: len(
                owned_events(fabric, fleet, index)))
            events = owned_events(fabric, fleet, victim, limit=12)
            assert len(events) >= 10
            for event in events:
                fabric.submit(event)
            handle = fabric.workers[victim]
            handle.restarts = fabric.config.max_shard_restarts
            os.kill(handle.proc.pid, signal.SIGKILL)
            handle.proc.wait(timeout=30)

            journal = handle.journal_dir / "journal.jsonl"
            lines_at_death = len(journal.read_text().splitlines())
            replays = []
            replay = JournalStore.replay
            decoded = []
            decode = store_module.decode_journal_line

            def counting_replay(store, **kwargs):
                if store.directory == handle.journal_dir:
                    replays.append(store)
                return replay(store, **kwargs)

            def counting_decode(line, *, path="", **kwargs):
                if path == journal:
                    decoded.append(line)
                return decode(line, path=path, **kwargs)

            monkeypatch.setattr(JournalStore, "replay", counting_replay)
            monkeypatch.setattr(store_module, "decode_journal_line",
                                counting_decode)
            fabric.tick()
            assert handle.state is ShardState.DEGRADED
            assert fabric.metrics.events_failed_over == len(events)
            # One store and one read of the dead journal -- the
            # queue-state replay, which also tells the store its next
            # seq -- whatever the number handed off.
            assert len(replays) == 1
            assert 0 < len(decoded) <= lines_at_death
            monkeypatch.undo()
            results = fabric.drain(max_ticks=300)
            assert len(results) == len(events)
        finally:
            fabric.shutdown()
        handoffs = [r for r in JournalStore(
                        root / f"shard-{victim:02d}").replay()
                    if r.kind == RecordKind.SHARD_HANDOFF]
        assert len(handoffs) == len(events)
        assert [r.seq for r in handoffs] == list(
            range(handoffs[0].seq, handoffs[0].seq + len(events)))


@pytest.mark.soak
class TestProcessChaosStormSoak:
    """Mixed probabilistic SIGKILL/SIGSTOP storm; accounting must
    still balance, shard by shard, whatever fired."""

    def test_storm_accounting_balances(self, tmp_path, fleet,
                                       criteria_path):
        events = make_events(fleet, 10, seed=6)
        plan = ChaosPlan(seed=13, kill_rate=0.02, hang_rate=0.01)
        fabric = make_fabric(tmp_path / "j", criteria_path, chaos=plan,
                             tick_deadline_seconds=10.0)
        try:
            for event in events:
                fabric.submit(event)
            fabric.drain(max_ticks=2000)
        finally:
            fabric.shutdown()
        facts = journal_accounting(tmp_path / "j")
        for index in range(SHARDS):
            assert set(facts["enqueued"][index]) == facts[
                "completed"][index]
        assert len(facts["origins"]) == len(set(facts["origins"]))


def wait_for(predicate, *, timeout=180.0, interval=0.25):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def journal_has_enqueue(path: Path) -> bool:
    if not path.exists():
        return False
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return False
    return any(line_kind(line) == "event-enqueued" for line in lines)


def line_kind(line: str) -> str | None:
    """The decoded ``kind`` of one line of a journal being written (a
    torn last line has none)."""
    try:
        return json.loads(line).get("kind")
    except (ValueError, AttributeError):
        return None


def last_kind(directory: Path) -> str | None:
    records = list(JournalStore(directory).replay())
    return records[-1].kind if records else None


def spawn_serve(tmp_path, *extra):
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    argv = [sys.executable, "-m", "repro", "serve", "--nodes", "8",
            "--events", "300", "--learn-on", "3", "--workers", "2",
            "--seed", "1", *extra]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def ppid(pid: int) -> int:
    """The parent pid of a live process, from ``/proc``."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("PPid:")[1].split()[0])


def probe_builder(args: dict):
    """:func:`default_builder` that first reports what its worker sees.

    It writes ``probe-<tag>-<shard>.json`` under ``args["out"]`` with
    the worker's cwd and its value of the ``args["var"]`` environment
    variable, prints one line to stderr, and registers an ``atexit``
    handler that touches ``atexit-<tag>-<shard>``."""
    index, tag = own_shard_index(), args["tag"]
    out = Path(args["out"])
    (out / f"probe-{tag}-{index}.json").write_text(json.dumps(
        {"cwd": os.getcwd(), "var": os.environ.get(args["var"])}))
    print(f"probe {tag} builder of shard {index}", file=sys.stderr)
    atexit.register((out / f"atexit-{tag}-{index}").touch)
    return default_builder(args["default"])


class TestZygote:
    """Workers are forked from one import-only zygote per parent, and
    still see what a fresh interpreter saw: the parent's environment,
    cwd and stderr at start, a real exit status, and normal interpreter
    shutdown."""

    @pytest.fixture
    def probe_fabric(self, tmp_path, criteria_path, monkeypatch):
        # Workers resolve the builder by module name.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            [str(REPO), os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "probes"
        out.mkdir()

        def make(tag, root):
            return ProcessFabric(
                builder="tests.integration.test_process_fabric:"
                        "probe_builder",
                builder_args={"out": str(out), "tag": tag,
                              "var": "REPRO_ZYGOTE_PROBE",
                              "default": builder_args(criteria_path)},
                journal_root=root,
                config=SupervisorConfig(shard_count=SHARDS),
                status_deadline_seconds=30.0, tick_deadline_seconds=60.0)

        def probe(tag, index=0):
            return json.loads(
                (out / f"probe-{tag}-{index}.json").read_text())

        return make, probe, out

    def test_fabrics_built_one_after_the_other_share_one_zygote(
            self, tmp_path, criteria_path):
        root = tmp_path / "j"
        fabrics = [make_fabric(root, criteria_path)]
        try:
            zygotes = {ppid(h.proc.pid) for h in fabrics[0].workers}
            assert len(zygotes) == 1
            # Dropped the way a crash drops it, without shutdown(): the
            # zygote stays for the fabric that recovers the journals.
            for handle in fabrics[0].workers:
                os.kill(handle.proc.pid, signal.SIGKILL)
                handle.ensure_dead()
            fabrics.append(make_fabric(root, criteria_path))
            assert {ppid(h.proc.pid) for h in fabrics[1].workers} == zygotes
        finally:
            for fabric in reversed(fabrics):
                fabric.shutdown()
        # The last fabric shut down stopped the zygote and reaped it.
        with pytest.raises(ProcessLookupError):
            os.kill(zygotes.pop(), 0)

    def test_sigkilled_zygote_is_replaced_at_the_next_restart(
            self, tmp_path, fleet, criteria_path):
        events = make_events(fleet, 5, seed=3)
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            for event in events:
                fabric.submit(event)
            victim, sibling = fabric.workers
            dead = victim.proc
            zygote = ppid(dead.pid)
            os.kill(zygote, signal.SIGKILL)
            # Its orphans are re-parented once it has exited.
            assert wait_for(lambda: ppid(dead.pid) != zygote, timeout=30)
            os.kill(dead.pid, signal.SIGKILL)
            results = fabric.drain(max_ticks=300)
            assert len(results) == len(expected_parts(events))
            assert victim.incarnation == 1
            assert victim.state is ShardState.RUNNING
            assert ppid(victim.proc.pid) not in (zygote, os.getpid())
            # The status died with the zygote: not a clean exit.  The
            # sibling kept its process, pipes and pidfd.
            assert dead.returncode == STATUS_LOST != 0
            assert sibling.incarnation == 0 and sibling.alive()
        finally:
            sealed = fabric.shutdown()
        assert all(sealed.values())
        facts = assert_exactly_once(tmp_path / "j", events)
        assert facts["restarts"] == 1

    def test_exit_status_is_reported_by_the_zygote(self, tmp_path,
                                                   criteria_path):
        fabric = make_fabric(tmp_path / "j", criteria_path)
        try:
            killed = fabric.workers[0].proc
            os.kill(killed.pid, signal.SIGKILL)
            assert killed.wait(timeout=30) == -signal.SIGKILL
        finally:
            sealed = fabric.shutdown()
        assert sealed == {0: False, 1: True}
        assert fabric.workers[1].proc.returncode == 0

    def test_worker_sees_cwd_and_environment_as_they_are_at_start(
            self, probe_fabric, tmp_path, monkeypatch):
        make, probe, _ = probe_fabric
        fabrics = [make("first", tmp_path / "j1")]
        try:
            zygote = ppid(fabrics[0].workers[0].proc.pid)
            elsewhere = tmp_path / "elsewhere"
            elsewhere.mkdir()
            monkeypatch.chdir(elsewhere)
            fabrics.append(make("moved", tmp_path / "j2"))
            # Forked by the same zygote, which never moved.
            assert ppid(fabrics[1].workers[0].proc.pid) == zygote
            assert probe("first")["cwd"] != str(elsewhere.resolve())
            assert probe("moved")["cwd"] == str(elsewhere.resolve())
            monkeypatch.setenv("REPRO_ZYGOTE_PROBE", "set-after-start")
            fabrics.append(make("set", tmp_path / "j3"))
            # A zygote started for another environment is not reused.
            assert ppid(fabrics[2].workers[0].proc.pid) != zygote
            assert probe("moved")["var"] is None
            assert probe("set")["var"] == "set-after-start"
        finally:
            for fabric in reversed(fabrics):
                fabric.shutdown()

    def test_builder_stderr_reaches_the_current_capture(
            self, probe_fabric, tmp_path, criteria_path, capfd):
        make, _, _ = probe_fabric
        # The zygote starts while the test's capture is off, so its own
        # fd 2 is not the capture the next worker must write to.
        with capfd.disabled():
            fabrics = [make_fabric(tmp_path / "j1", criteria_path)]
        try:
            fabrics.append(make("captured", tmp_path / "j2"))
            assert (ppid(fabrics[1].workers[0].proc.pid)
                    == ppid(fabrics[0].workers[0].proc.pid))
        finally:
            for fabric in reversed(fabrics):
                fabric.shutdown()
        err = capfd.readouterr().err
        for index in range(SHARDS):
            assert f"probe captured builder of shard {index}" in err

    def test_atexit_handlers_run_when_a_worker_is_sealed(
            self, probe_fabric, tmp_path):
        make, _, out = probe_fabric
        fabric = make("atexit", tmp_path / "j")
        assert not list(out.glob("atexit-*"))
        sealed = fabric.shutdown()
        assert all(sealed.values())
        assert sorted(path.name for path in out.glob("atexit-*")) == [
            f"atexit-atexit-{index}" for index in range(SHARDS)]


class TestServeGracefulDrain:
    """Satellite: SIGTERM against a live ``repro serve`` must drain,
    seal and fsync the journal, and exit 0 -- in both modes."""

    def test_sigterm_seals_thread_serve(self, tmp_path):
        journal = tmp_path / "journal"
        # In-thread, the default 300 events are done ~0.2 s after the
        # first enqueue -- inside one poll below -- and a serve that has
        # finished has restored the default handler.  30 000 keep it
        # busy for seven polls; the signal arrives during the first.
        proc = spawn_serve(tmp_path, "--journal", str(journal),
                           "--events", "30000")
        try:
            # The enqueue loop runs strictly after the drain handlers
            # are installed, so one enqueued record means SIGTERM now
            # lands in the graceful path (the kill-during-drain case).
            assert wait_for(lambda: journal_has_enqueue(
                journal / "journal.jsonl")), "serve never started enqueuing"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "journal sealed" in out
        records = list(JournalStore(journal).replay())
        assert records[-1].kind == RecordKind.FABRIC_DRAIN
        assert records[-1].payload["reason"] == f"signal-{signal.SIGTERM}"

    def test_sigterm_drains_process_serve(self, tmp_path):
        journal = tmp_path / "journal"
        proc = spawn_serve(tmp_path, "--journal", str(journal),
                           "--processes", "--shards", "2")
        try:
            assert wait_for(
                lambda: any(journal_has_enqueue(
                    journal / f"shard-{i:02d}" / "journal.jsonl")
                    for i in range(2)),
                timeout=240.0), "workers never started enqueuing"
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=240)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "drained" in out
        for index in range(2):
            directory = journal / f"shard-{index:02d}"
            assert last_kind(directory) == RecordKind.FABRIC_DRAIN, (
                f"shard {index} journal not sealed:\n{out}")
        # No orphaned workers: every child was reaped by the parent.
        remaining = subprocess.run(
            ["pgrep", "-f", "repro.service.procfabric"],
            capture_output=True, text=True)
        assert remaining.returncode != 0, remaining.stdout
