"""Recovery from the newest checkpoint, held against the full fold.

A service appends a ``checkpoint`` every ``CHECKPOINT_EVERY`` journal
records and recovery replays only the records from the newest valid
one on.  The reference here is :class:`FoldOracle`: the recovery fold
as it was before checkpoints existed -- every record from the first
line, every criteria snapshot built, latencies kept as lists -- which
ignores checkpoint records altogether.  Against it:

* every checkpoint a fault-free service writes (inline, thread and
  process fabric) carries exactly the state that folding the records
  before it gives -- by this oracle, and by :class:`JournalState`'s
  own fold run two ways (from the checkpoint on, and over every
  record with the checkpoints stripped);
* the checkpoint format round-trips any state;
* recovering from checkpoint plus tail gives exactly the state the
  full fold gives, whatever the deployment;
* a torn or checksum-failed newest checkpoint falls back to the one
  before it, a checkpoint as the last line is a tail of one, and a
  journal without one replays from its first line;
* the number of lines a recovery decodes does not grow with uptime.
"""

import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.report import build_report, render_json, render_markdown
from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import suite_by_name
from repro.core.persistence import (
    criteria_fingerprint,
    criteria_from_payload,
    load_criteria,
    save_criteria,
)
from repro.core.selector import NodeStatus, Selector
from repro.core.system import Anubis, EventKind, ValidationEvent
from repro.core.validator import ValidationReport, Validator, Violation
from repro.hardware.fleet import build_fleet
from repro.quality.rollout import RolloutConfig
from repro.service import (
    PoolConfig,
    ProcessFabric,
    ServiceConfig,
    ShardSupervisor,
    SupervisorConfig,
    ValidationService,
)
from repro.service import controlplane
from repro.service import store as store_module
from repro.service.controlplane import _LIVE_ONLY_FIELDS, ServiceMetrics
from repro.service.lifecycle import NodeLifecycle, NodeState
from repro.service.queue import (
    AGGREGATE_FIELDS,
    COUNTER_FIELDS,
    Aggregate,
    JournalState,
    as_origin,
    decode_origins,
    unpack_entries,
)
from repro.service.store import JournalStore, RecordKind
from repro.simulation import analytic_coverage_table, suite_durations
from repro.simulation.generator import generate_incident_trace
from repro.survival import extract_status_samples
from repro.survival.exponential import ExponentialModel

REPO = Path(__file__).resolve().parents[1]
SUITE_NAMES = ("ib-loopback", "mem-bw")
MIX = {"A100": 0.5, "H100": 0.25, "MI250X": 0.25}
FLEET_SIZE = 16
#: Records between checkpoints in these tests: small enough that a
#: short run writes several.
EVERY = 40
POOL = {"max_workers": 2, "benchmark_timeout_seconds": 2.0,
        "max_attempts": 1, "backoff_base_seconds": 0.0,
        "poll_interval_seconds": 0.005}


# ----------------------------------------------------------------------
# The deployment every test builds
# ----------------------------------------------------------------------

def build_world():
    fleet = build_fleet(FLEET_SIZE, seed=2, sku_mix=MIX)
    dataset = extract_status_samples(
        generate_incident_trace(50, 800.0, seed=11))
    return fleet, dataset


def build_worker(args: dict):
    """``(anubis, nodes, service_config)``: resolved by name inside
    process-fabric workers (where it also sets the checkpoint cadence,
    ``args["every"]``), called directly everywhere else."""
    if args.get("every") is not None:
        controlplane.CHECKPOINT_EVERY = int(args["every"])
    fleet, dataset = build_world()
    suite = tuple(suite_by_name(name) for name in SUITE_NAMES)
    validator = Validator(suite, runner=SuiteRunner(seed=9))
    if args.get("criteria_path"):
        load_criteria(validator, args["criteria_path"])
    selector = Selector(ExponentialModel().fit(dataset),
                        analytic_coverage_table(suite),
                        suite_durations(suite), p0=0.05)
    config = ServiceConfig(
        pool=PoolConfig(**POOL),
        rollout=RolloutConfig() if args.get("rollout") else None)
    return Anubis(validator, selector), fleet.nodes, config


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    fleet, dataset = build_world()
    suite = tuple(suite_by_name(name) for name in SUITE_NAMES)
    validator = Validator(suite, runner=SuiteRunner(seed=9))
    validator.learn_criteria(fleet.nodes)
    path = tmp_path_factory.mktemp("criteria") / "criteria.json"
    save_criteria(validator, path)
    return fleet, dataset, str(path)


@pytest.fixture
def every(monkeypatch):
    monkeypatch.setattr(controlplane, "CHECKPOINT_EVERY", EVERY)
    return EVERY


def make_events(fleet, dataset, count, *, seed=0):
    """Seeded events over 1-3 nodes: mostly job allocations (the
    selector decides), some incidents (always validated), and repeats
    of recent node sets, which coalesce while still pending."""
    rng = random.Random(seed)
    events, recent = [], []
    for _ in range(count):
        if recent and rng.random() < 0.15:
            kind, indices, _hours = rng.choice(recent)
        else:
            kind = (EventKind.INCIDENT_REPORTED if rng.random() < 0.2
                    else EventKind.JOB_ALLOCATION)
            indices = rng.sample(range(len(fleet.nodes)), rng.randint(1, 3))
        hours = round(rng.uniform(1.0, 48.0), 3)
        recent = (recent + [(kind, indices, hours)])[-6:]
        nodes = tuple(fleet.nodes[i] for i in indices)
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=dataset.covariates[
                           rng.randrange(len(dataset.covariates))])
            for node in nodes)
        events.append(ValidationEvent(kind=kind, nodes=nodes,
                                      statuses=statuses,
                                      duration_hours=hours))
    return events


def drive(target, events, *, window=4):
    """Submit ``events`` keeping about ``window`` outstanding, then
    drain: pending entries exist at every checkpoint."""
    for index, event in enumerate(events, start=1):
        target.submit(event)
        if index % window == 0:
            for _ in range(window - 1):
                target.tick()
    target.drain()


def journal_dirs(root):
    return sorted(path for path in Path(root).iterdir()
                  if (path / "journal.jsonl").exists())


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------

@dataclass
class ListMetrics:
    """:class:`ServiceMetrics` as it was with one list entry per
    completed event: the oracle for :class:`Aggregate`."""

    counters: dict = field(default_factory=lambda: dict.fromkeys(
        COUNTER_FIELDS, 0))
    queue_latencies: list = field(default_factory=list)
    validation_seconds: list = field(default_factory=list)

    def summary(self) -> dict:
        latencies = self.queue_latencies
        walls = self.validation_seconds
        return {
            **self.counters,
            "journal_compactions": 0,
            "defect_rate": (self.counters["nodes_quarantined"]
                            / max(self.counters["nodes_validated"], 1)),
            "queue_latency_mean_s": (sum(latencies) / len(latencies)
                                     if latencies else 0.0),
            "queue_latency_max_s": max(latencies, default=0.0),
            "validation_mean_s": (sum(walls) / len(walls) if walls else 0.0),
            "validation_total_s": sum(walls),
        }


class FoldOracle:
    """Recovery as a fold of every record from the first line, with
    every criteria snapshot built -- the fold that predates
    checkpoints, which it skips as an unknown kind."""

    def __init__(self, anubis, nodes):
        self.anubis = anubis
        self.fleet = {node.node_id: node for node in nodes}
        self.lifecycle = NodeLifecycle()
        self.damper = ServiceConfig().build_damper()
        self.metrics = ListMetrics()
        self.dead_letters = []
        self.state = JournalState()
        self.journaled = None

    def fold(self, records) -> "FoldOracle":
        validator = self.anubis.validator
        counters = self.metrics.counters
        for record in records:
            if record.kind == RecordKind.CHECKPOINT:
                continue
            self.state.apply(record)
            kind, payload = record.kind, record.payload
            if kind == RecordKind.CRITERIA_SNAPSHOT:
                restored = criteria_from_payload(validator, payload)
                validator.criteria.update(restored)
                self.journaled = criteria_fingerprint(restored)
            elif kind == RecordKind.TRANSITION:
                new = NodeState(payload["new"])
                self.lifecycle.transition(payload["node_id"], new,
                                          force=True)
                if new is NodeState.QUARANTINED:
                    self.damper.record_quarantine(payload["node_id"])
            elif kind == RecordKind.EVENT_DEAD_LETTERED:
                self.dead_letters.append((payload["event_id"],
                                          payload.get("reason", "")))
                counters["events_dead_lettered"] += 1
            elif kind == RecordKind.EVENT_COMPLETED:
                self._completed(payload)
            elif kind == RecordKind.LOAD_SHED:
                counters["events_shed"] += 1
        return self

    def _completed(self, payload):
        counters = self.metrics.counters
        counters["events_processed"] += 1
        self.metrics.queue_latencies.append(
            float(payload["queue_latency_seconds"]))
        if payload["skipped"]:
            counters["policy_skips"] += 1
            return
        self.anubis.selector.record_validation(ValidationReport(
            validated_nodes=list(payload["validated_nodes"]),
            benchmarks_run=list(payload["benchmarks_run"]),
            violations=[Violation(node_id=v[0], benchmark=v[1], metric=v[2],
                                  similarity=0.0, reason=v[3], sku=v[4])
                        for v in payload["violations"]]))
        counters["validations_run"] += 1
        counters["nodes_validated"] += len(payload["validated_nodes"])
        counters["nodes_quarantined"] += len(payload["defective"])
        self.metrics.validation_seconds.append(
            float(payload["validation_seconds"]))

    def reset_interrupted(self) -> "FoldOracle":
        """What recovery does after the fold: free nodes a crash left
        mid-validation or scheduled for nothing, re-arm hold-downs."""
        covered = {node_id for info in self.state.pending.values()
                   for node_id in info["event"]["nodes"]}
        for node_id, state in self.lifecycle.states().items():
            if state is NodeState.VALIDATING or (
                    state is NodeState.SCHEDULED and node_id not in covered):
                self.lifecycle.transition(node_id, NodeState.HEALTHY)
        for node_id, state in self.lifecycle.states().items():
            if state is NodeState.QUARANTINED:
                self.damper.arm(node_id)
            else:
                self.damper.release(node_id)
        return self

    def view(self) -> dict:
        state = self.state
        return {
            "states": {node_id: self.lifecycle.state(node_id).value
                       for node_id in self.fleet},
            "flap_counts": self.damper.flap_counts(),
            "metrics": self.metrics.summary(),
            "dead_letters": self.dead_letters,
            "handed_off": dict(state.handed_off),
            "origins_seen": set(state.origins_seen),
            "pending": sorted(
                (event_id, info["priority"], info["attempts"],
                 info["origin"], info["event"])
                for event_id, info in state.pending.items()),
            "last_event_id": state.last_event_id,
            "coverage": self.anubis.selector.coverage.found,
            "criteria": self.journaled,
        }


def service_view(service) -> dict:
    """The state recovery rebuilt, in :meth:`FoldOracle.view`'s terms."""
    return {
        "states": {node_id: service.lifecycle.state(node_id).value
                   for node_id in service.fleet_index},
        "flap_counts": service.damper.flap_counts(),
        "metrics": service.metrics.summary(),
        "dead_letters": [(letter.event_id, letter.reason)
                         for letter in service.dead_letters()],
        "handed_off": dict(service.handed_off),
        "origins_seen": set(service.origins_seen),
        "pending": sorted(
            (entry.event_id, entry.priority, entry.attempts, entry.origin,
             entry.event.to_payload())
            for entry in service.queue.pending()),
        "last_event_id": service.queue.last_event_id,
        "coverage": service.anubis.selector.coverage.found,
        "criteria": service._journaled_criteria,
    }


def checkpoint_view(payload: dict, fleet, factory_coverage) -> dict:
    """What one checkpoint record says, in :meth:`FoldOracle.view`'s
    terms, decoded here rather than by the service."""
    metrics = ServiceMetrics(
        **{name: int(payload["metrics"][name])
           for name in COUNTER_FIELDS},
        **{name: Aggregate.from_payload(payload["metrics"][name])
           for name in AGGREGATE_FIELDS})
    coverage = {benchmark: set(found)
                for benchmark, found in factory_coverage.found.items()}
    for benchmark, node_ids in payload["coverage"].items():
        coverage.setdefault(benchmark, set()).update(node_ids)
    assert NodeState.HEALTHY.value not in payload["states"].values()
    return {
        "states": {node.node_id: payload["states"].get(
            node.node_id, NodeState.HEALTHY.value) for node in fleet},
        "flap_counts": payload["flap_counts"],
        "metrics": metrics.summary(),
        "dead_letters": [(letter["event_id"], letter["reason"])
                         for letter in payload["dead_letters"]],
        "handed_off": {int(handoff["event_id"]): handoff
                       for handoff in payload["handed_off"]},
        "origins_seen": decode_origins(payload["origins_seen"]),
        "pending": sorted(
            (entry["event_id"], entry["priority"], entry["attempts"],
             None if entry.get("origin") is None
             else as_origin(entry["origin"]), entry["event"])
            for entry in unpack_entries(payload["pending"])),
        "last_event_id": payload["last_event_id"],
        "coverage": coverage,
        "criteria": (None if payload["criteria"] is None
                     else bytes.fromhex(payload["criteria"])),
    }


def unpacked(state: JournalState) -> dict:
    """``state.to_payload()`` with its pending entries unpacked: an
    event read back from the journal lists its keys sorted, a live one
    in schema order, so the packed bytes of equal entries may differ."""
    payload = state.to_payload()
    return {**payload, "pending": unpack_entries(payload["pending"])}


def assert_one_fold_two_ways(records, where):
    """At every checkpoint, :class:`JournalState` folded from it on
    equals the fold of every record with the checkpoints stripped, and
    the checkpoint itself equals that fold of the records before it."""
    at = [index for index, record in enumerate(records)
          if record.kind == RecordKind.CHECKPOINT]
    stripped = [record for record in records
                if record.kind != RecordKind.CHECKPOINT]
    whole = unpacked(JournalState.fold(stripped))
    for earlier, index in enumerate(at):
        checkpoint = records[index]
        before = JournalState.fold(stripped[:index - earlier])
        assert unpacked(JournalState.from_payload(checkpoint.payload)) \
            == unpacked(before), f"{where} seq {checkpoint.seq}"
        assert unpacked(JournalState.fold(records[index:])) == whole, \
            f"{where} seq {checkpoint.seq}"


def assert_checkpoints_are_folds(directory, args, *, at_least=1):
    """Every checkpoint in ``directory`` equals the fold of the records
    before it."""
    anubis, nodes, _config = build_worker(args)
    factory_coverage = build_worker(args)[0].selector.coverage
    oracle = FoldOracle(anubis, nodes)
    records = JournalStore(directory).replay()
    assert_one_fold_two_ways(records, directory)
    done = 0
    for index, record in enumerate(records):
        if record.kind != RecordKind.CHECKPOINT:
            continue
        oracle.fold(records[done:index])
        done = index
        assert checkpoint_view(record.payload, nodes, factory_coverage) \
            == oracle.view(), f"{directory} seq {record.seq}"
        at_least -= 1
    assert at_least <= 0, f"{directory} holds too few checkpoints"


def assert_recovery_is_the_fold(directory, args, monkeypatch) -> int:
    """Checkpoint-plus-tail recovery over ``directory`` equals the full
    fold; returns how many criteria snapshots recovery built."""
    anubis, nodes, _config = build_worker(args)
    oracle = FoldOracle(anubis, nodes).fold(
        JournalStore(directory).replay()).reset_interrupted()
    expected = oracle.view()
    in_force = criteria_fingerprint(anubis.validator.criteria)
    anubis, nodes, config = build_worker(args)
    builds = []
    with monkeypatch.context() as patch:
        patch.setattr(controlplane, "criteria_from_payload",
                      lambda *a, **k: builds.append(1)
                      or criteria_from_payload(*a, **k))
        service = ValidationService(anubis, nodes, journal_dir=directory,
                                    config=config)
    assert service_view(service) == expected
    assert criteria_fingerprint(anubis.validator.criteria) == in_force
    service.pool.close()
    service.store.close()
    return len(builds)


# ----------------------------------------------------------------------
# Every checkpoint and every recovery against the fold, fault-free
# ----------------------------------------------------------------------

class TestCheckpointIsTheFold:
    def test_inline(self, tmp_path, world, every, monkeypatch):
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        anubis, nodes, config = build_worker(args)
        service = ValidationService(anubis, nodes,
                                    journal_dir=tmp_path / "journal",
                                    config=config)
        drive(service, make_events(fleet, dataset, 90, seed=1))
        for event in make_events(fleet, dataset, 3, seed=2):
            service.submit(event)     # pending at the crash
        service.pool.close()
        service.store.close()
        assert_checkpoints_are_folds(tmp_path / "journal", args,
                                     at_least=5)
        assert JournalStore(tmp_path / "journal").checkpoint_offset() > 0
        # The checkpoint's criteria are the ones the service was built
        # with: nothing to build.
        assert assert_recovery_is_the_fold(tmp_path / "journal", args,
                                           monkeypatch) == 0

    def test_relearn_between_checkpoints(self, tmp_path, world, every,
                                         monkeypatch):
        """Criteria snapshots land before and after checkpoints; only
        the newest is built, however far back it lies."""
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path, "rollout": True}
        anubis, nodes, config = build_worker(args)
        journal = tmp_path / "journal"
        service = ValidationService(anubis, nodes, journal_dir=journal,
                                    config=config)
        for segment in range(3):
            service.learn_criteria(fleet.nodes[segment:])
            if segment == 2:
                shutil.copytree(journal, tmp_path / "relearned")
            drive(service, make_events(fleet, dataset, 30, seed=segment))
        service.pool.close()
        service.store.close()

        def newest(kinds, kind):
            return len(kinds) - 1 - kinds[::-1].index(kind)

        for directory, snapshot_in_tail in ((tmp_path / "relearned", True),
                                            (journal, False)):
            kinds = [r.kind for r in JournalStore(directory).replay()]
            assert kinds.count(RecordKind.CRITERIA_SNAPSHOT) >= 2
            assert snapshot_in_tail == (
                newest(kinds, RecordKind.CHECKPOINT)
                < newest(kinds, RecordKind.CRITERIA_SNAPSHOT))
            assert_checkpoints_are_folds(directory, args, at_least=2)
            assert assert_recovery_is_the_fold(directory, args,
                                               monkeypatch) == 1

    def test_compaction(self, tmp_path, world, every, monkeypatch):
        """A compacted journal starts at its checkpoint: recovery from
        it and the records after it equals the fold of the history it
        replaced plus those records."""
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        anubis, nodes, config = build_worker(args)
        journal = tmp_path / "journal"
        service = ValidationService(anubis, nodes, journal_dir=journal,
                                    config=config)
        drive(service, make_events(fleet, dataset, 60, seed=4))
        for event in make_events(fleet, dataset, 3, seed=5):
            service.submit(event)     # pending at the compaction
        shutil.copytree(journal, tmp_path / "history")
        live_only = {name: getattr(service.metrics, name)
                     for name in _LIVE_ONLY_FIELDS}
        service.compact_journal()
        drive(service, make_events(fleet, dataset, 12, seed=6))
        for event in make_events(fleet, dataset, 2, seed=7):
            service.submit(event)     # pending at the crash
        service.pool.close()
        service.store.close()

        records = JournalStore(journal).replay()
        assert [record.kind for record in records[:3]] == [
            RecordKind.CRITERIA_SNAPSHOT, RecordKind.PIPELINE_STATS,
            RecordKind.CHECKPOINT]
        anubis, nodes, _config = build_worker(args)
        expected = FoldOracle(anubis, nodes).fold(
            JournalStore(tmp_path / "history").replay()
            + records[3:]).reset_interrupted().view()
        # No record moves these counters; the compacted journal holds
        # them at their values when it was written.
        expected["metrics"].update(live_only)
        anubis, nodes, config = build_worker(args)
        service = ValidationService(anubis, nodes, journal_dir=journal,
                                    config=config)
        assert service_view(service) == expected
        assert service.queue.pending()
        service.pool.close()
        service.store.close()

    def test_thread_fabric(self, tmp_path, world, every, monkeypatch):
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        _anubis, nodes, config = build_worker(args)
        supervisor = ShardSupervisor(
            lambda: build_worker(args)[0], nodes,
            journal_root=tmp_path / "j",
            config=SupervisorConfig(shard_count=2, service=config))
        drive(supervisor, make_events(fleet, dataset, 100, seed=3))
        supervisor.seal(reason="test-done")
        for directory in journal_dirs(tmp_path / "j"):
            assert_checkpoints_are_folds(directory, args, at_least=3)
            assert_recovery_is_the_fold(directory, args, monkeypatch)

    def test_process_fabric(self, tmp_path, world, monkeypatch):
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        # Workers resolve the builder by module name.
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            [str(REPO), os.environ.get("PYTHONPATH", "")]))
        fabric = ProcessFabric(
            builder="tests.test_checkpoint_recovery:build_worker",
            builder_args={**args, "every": EVERY},
            journal_root=tmp_path / "j",
            config=SupervisorConfig(shard_count=2),
            status_deadline_seconds=30.0, tick_deadline_seconds=60.0)
        try:
            drive(fabric, make_events(fleet, dataset, 60, seed=4))
        finally:
            fabric.shutdown()
        for directory in journal_dirs(tmp_path / "j"):
            assert_checkpoints_are_folds(directory, args, at_least=2)
            assert_recovery_is_the_fold(directory, args, monkeypatch)


# ----------------------------------------------------------------------
# The report over a journal with checkpoints
# ----------------------------------------------------------------------

class TestCheckpointsLeaveTheReport:
    def test_report_without_checkpoints_is_the_same(self, tmp_path, world,
                                                    every):
        """The reducers that read a checkpoint find in it what they
        already folded: dropping every checkpoint changes only the
        journal section's count of them."""
        fleet, dataset, criteria_path = world
        anubis, nodes, config = build_worker({"criteria_path": criteria_path})
        runner = anubis.validator.runner
        run, broken = runner.run, nodes[3].node_id

        def crash_on_broken(spec, node):
            # A crashing benchmark counts as a defect: quarantine.
            if node.node_id == broken:
                raise RuntimeError("simulated hardware fault")
            return run(spec, node)

        runner.run = crash_on_broken
        service = ValidationService(anubis, nodes,
                                    journal_dir=tmp_path / "journal",
                                    config=config)
        events = make_events(fleet, dataset, 90, seed=8)
        poison = (events[5].kind, events[5].nodes)

        def fail_poison(entry):
            if (entry.event.kind, entry.event.nodes) == poison:
                raise RuntimeError("poison event")

        service.tick_hook = fail_poison
        drive(service, events)
        for event in make_events(fleet, dataset, 2, seed=9):
            service.submit(event)     # the journal ends on no checkpoint
        service.pool.close()
        service.store.close()

        records = JournalStore(tmp_path / "journal").replay()
        kinds = Counter(record.kind for record in records)
        assert kinds[RecordKind.CHECKPOINT] >= 2
        assert kinds[RecordKind.EVENT_DEAD_LETTERED] >= 1
        assert any(record.payload["new"] == NodeState.QUARANTINED.value
                   for record in records
                   if record.kind == RecordKind.TRANSITION)
        checkpoints = [record for record in records
                       if record.kind == RecordKind.CHECKPOINT]
        assert any(checkpoint.payload["dead_letters"]
                   for checkpoint in checkpoints)
        assert any(checkpoint.payload["states"]
                   for checkpoint in checkpoints)
        full = build_report(records)
        bare = build_report([record for record in records
                             if record.kind != RecordKind.CHECKPOINT])
        full["journal"]["records"] -= len(checkpoints)
        del full["journal"]["by_kind"][RecordKind.CHECKPOINT.value]
        assert render_json(full) == render_json(bare)
        assert render_markdown(full) == render_markdown(bare)


# ----------------------------------------------------------------------
# Where recovery starts when the newest checkpoint is not whole
# ----------------------------------------------------------------------

class TestFallback:
    @pytest.fixture
    def journal(self, tmp_path, world, every):
        fleet, dataset, criteria_path = world
        anubis, nodes, config = build_worker({"criteria_path": criteria_path})
        service = ValidationService(anubis, nodes,
                                    journal_dir=tmp_path / "journal",
                                    config=config)
        drive(service, make_events(fleet, dataset, 40, seed=5))
        service.pool.close()
        service.store.close()
        return tmp_path / "journal"

    @staticmethod
    def checkpoint_lines(path):
        lines = path.read_bytes().split(b"\n")[:-1]
        return lines, [index for index, line in enumerate(lines)
                       if b'"kind":"checkpoint"' in line]

    def start_seq(self, directory):
        store = JournalStore(directory)
        return store.replay(offset=store.checkpoint_offset())[0].seq

    def test_torn_newest_checkpoint_falls_back(self, journal, world, monkeypatch):
        path = journal / "journal.jsonl"
        lines, at = self.checkpoint_lines(path)
        assert len(at) >= 2
        # A kill mid-append: the newest checkpoint is the torn last line.
        torn = lines[at[-1]]
        path.write_bytes(b"\n".join(lines[:at[-1]] + [torn[:len(torn) // 2]]))
        assert self.start_seq(journal) == json.loads(lines[at[-2]])["seq"]
        assert_recovery_is_the_fold(journal, {"criteria_path": world[2]},
                                    monkeypatch)

    def test_checksum_failed_checkpoint_falls_back(self, journal, world, monkeypatch):
        path = journal / "journal.jsonl"
        lines, at = self.checkpoint_lines(path)
        record = json.loads(lines[at[-1]])
        record["crc"] ^= 1
        lines[at[-1]] = json.dumps(record, separators=(",", ":")).encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert self.start_seq(journal) == json.loads(lines[at[-2]])["seq"]
        assert_recovery_is_the_fold(journal, {"criteria_path": world[2]},
                                    monkeypatch)

    def test_checkpoint_as_the_last_line(self, journal, world, monkeypatch):
        path = journal / "journal.jsonl"
        lines, at = self.checkpoint_lines(path)
        path.write_bytes(b"\n".join(lines[:at[-1] + 1]) + b"\n")
        store = JournalStore(journal)
        tail = store.replay(offset=store.checkpoint_offset())
        assert [record.kind for record in tail] == [RecordKind.CHECKPOINT]
        assert_recovery_is_the_fold(journal, {"criteria_path": world[2]},
                                    monkeypatch)

    def test_no_checkpoint_replays_from_the_first_line(self, tmp_path, world,
                                                       monkeypatch):
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        anubis, nodes, config = build_worker(args)
        service = ValidationService(anubis, nodes,
                                    journal_dir=tmp_path / "journal",
                                    config=config)
        drive(service, make_events(fleet, dataset, 20, seed=6))
        service.pool.close()
        service.store.close()
        store = JournalStore(tmp_path / "journal")
        assert store.find_last(RecordKind.CHECKPOINT) is None
        assert store.checkpoint_offset() == 0
        assert_recovery_is_the_fold(tmp_path / "journal", args, monkeypatch)


# ----------------------------------------------------------------------
# Recovery reads a bounded tail, whatever the uptime
# ----------------------------------------------------------------------

class TestRecoveryCostIsBounded:
    def test_lines_decoded_do_not_grow_with_uptime(self, tmp_path, world,
                                                   monkeypatch):
        fleet, dataset, criteria_path = world
        args = {"criteria_path": criteria_path}
        journal = tmp_path / "journal"
        decoded = []
        decode = store_module.decode_journal_line

        def counting(line, **kwargs):
            decoded.append(line)
            return decode(line, **kwargs)

        def recover() -> int:
            anubis, nodes, config = build_worker(args)
            del decoded[:]
            with monkeypatch.context() as patch:
                patch.setattr(store_module, "decode_journal_line", counting)
                service = ValidationService(anubis, nodes,
                                            journal_dir=journal,
                                            config=config)
            count = len(decoded)
            service.pool.close()
            service.store.close()
            return count

        anubis, nodes, config = build_worker(args)
        service = ValidationService(anubis, nodes, journal_dir=journal,
                                    config=config)
        events = make_events(fleet, dataset, 4000, seed=7)
        drive(service, events[:1000])
        service.store.close()
        after_1000 = recover()
        drive(service, events[1000:])
        service.pool.close()
        service.store.close()
        after_4000 = recover()
        lines = len((journal / "journal.jsonl").read_bytes().splitlines())
        bound = controlplane.CHECKPOINT_EVERY + 50
        assert lines > 4 * bound
        assert 0 < after_1000 <= bound
        assert 0 < after_4000 <= bound


# ----------------------------------------------------------------------
# The checkpoint format round-trips any state
# ----------------------------------------------------------------------

_NODE_IDS = st.sampled_from([f"node-{index:04d}" for index in range(8)])
_EVENT_IDS = st.integers(1, 10**6)
_FLOATS = st.floats(-1e9, 1e9, allow_nan=False)
_EVENTS = st.fixed_dictionaries({
    "kind": st.sampled_from([kind.value for kind in EventKind]),
    "nodes": st.lists(_NODE_IDS, min_size=1, max_size=3, unique=True),
    "statuses": st.lists(st.fixed_dictionaries({
        "node_id": _NODE_IDS, "covariates": st.lists(_FLOATS, max_size=3)}),
        max_size=2),
    "duration_hours": st.floats(0.5, 500.0)})
#: Dense ids per source (the bitmap encoding) and sparse ones (pairs).
_ORIGINS = st.tuples(st.integers(-1, 3),
                     st.integers(1, 64) | _EVENT_IDS)


@st.composite
def journal_states(draw):
    entry = st.fixed_dictionaries({
        "event": _EVENTS, "priority": st.floats(0.0, 2.0),
        "attempts": st.integers(0, 5), "origin": st.none() | _ORIGINS})
    handed_off = draw(st.dictionaries(_EVENT_IDS, st.fixed_dictionaries({
        "to_shard": st.integers(0, 3), "event": _EVENTS}), max_size=3))
    letters = draw(st.lists(st.tuples(_EVENT_IDS, entry, st.text()),
                            max_size=3))
    return JournalState(
        pending=draw(st.dictionaries(_EVENT_IDS, entry, max_size=6)),
        origins_seen=draw(st.sets(_ORIGINS, max_size=40)),
        handed_off={event_id: {"event_id": event_id, **handoff}
                    for event_id, handoff in handed_off.items()},
        last_event_id=draw(_EVENT_IDS),
        # HEALTHY is the default a checkpoint leaves out.
        states=draw(st.dictionaries(_NODE_IDS, st.sampled_from(
            [state for state in NodeState
             if state is not NodeState.HEALTHY]))),
        flap_counts=draw(st.dictionaries(_NODE_IDS, st.integers(1, 9))),
        dead_letters=[{"event_id": event_id, **info,
                       "origin": (None if info["origin"] is None
                                  else list(info["origin"])),
                       "reason": reason}
                      for event_id, info, reason in letters],
        metrics={**{name: draw(st.integers(0, 10**9))
                    for name in COUNTER_FIELDS},
                 **{name: Aggregate(draw(st.integers(0, 10**6)),
                                    draw(_FLOATS), draw(_FLOATS),
                                    draw(_FLOATS))
                    for name in AGGREGATE_FIELDS}},
        coverage=draw(st.dictionaries(st.sampled_from(SUITE_NAMES),
                                      st.sets(_NODE_IDS))),
        criteria=draw(st.none() | st.binary(min_size=16, max_size=16)))


class TestJournalStatePayload:
    @settings(max_examples=200, deadline=None)
    @given(journal_states())
    def test_from_payload_inverts_to_payload(self, state):
        # Through JSON, as the journal and the worker pipe carry it.
        payload = json.loads(json.dumps(state.to_payload()))
        assert JournalState.from_payload(payload) == state


# ----------------------------------------------------------------------
# ServiceMetrics: constant memory, the same summary
# ----------------------------------------------------------------------

class TestAggregate:
    @pytest.mark.parametrize("values", [
        [],
        [0.0],
        [0.25],
        [1e-9, 1e9, 1e-9, 3.0, 1e9],
        [0.1] * 1000,
        [random.Random(seed).expovariate(50.0) for seed in range(2000)],
        [random.Random(seed).uniform(0, 1e-3) * 10 ** (seed % 7)
         for seed in range(500)],
    ])
    def test_summary_is_bit_identical_to_the_lists(self, values):
        metrics, lists = ServiceMetrics(), ListMetrics()
        for value in values:
            metrics.queue_latency.add(value)
            lists.queue_latencies.append(value)
        for value in values[::3]:
            metrics.validation.add(value)
            lists.validation_seconds.append(value)
        # json.dumps tells 0 from 0.0 and prints every float exactly.
        assert json.dumps(metrics.summary()) == json.dumps(lists.summary())

    def test_round_trips_its_payload_mid_stream(self):
        values = [random.Random(seed).expovariate(3.0) for seed in range(300)]
        whole, resumed = Aggregate(), Aggregate()
        for value in values[:100]:
            whole.add(value)
            resumed.add(value)
        resumed = Aggregate.from_payload(
            json.loads(json.dumps(resumed.to_payload())))
        for value in values[100:]:
            whole.add(value)
            resumed.add(value)
        assert resumed == whole
        assert resumed.total == sum(values)
        assert resumed.peak == max(values)
