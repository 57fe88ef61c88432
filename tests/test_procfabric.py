"""Unit tests for the process-fabric building blocks.

Everything here runs in-process: the frame codec, the JSON specs that
cross the spawn boundary, the offline journal reduction the parent
uses on dead shards, the torn-tail heal, the drain seal, and the
config validation surface.  Tests that spawn real worker processes
live in ``tests/integration/test_process_fabric.py``.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import JournalError, ReproError, ServiceError
from repro.service.chaos import ChaosPlan, SimulatedKill
from repro.service.procfabric import (
    ProcessFabric,
    ShardWorker,
    WorkerFault,
    WorkerSpec,
    read_frame,
    write_frame,
)
from repro.service.queue import JournalState
from repro.service.store import JournalStore, RecordKind
from repro.service.supervisor import PARENT_ORIGIN, SupervisorConfig


def make_pipe_frame(message: dict) -> bytes:
    body = json.dumps(message).encode()
    return len(body).to_bytes(4, "big") + body


class TestFrameCodec:
    def test_round_trip(self):
        r, w = os.pipe()
        try:
            write_frame(w, {"cmd": "status", "n": 3})
            os.close(w)
            assert read_frame(r) == {"cmd": "status", "n": 3}
            assert read_frame(r) is None  # clean EOF
        finally:
            os.close(r)

    def test_multiple_frames_in_order(self):
        r, w = os.pipe()
        try:
            for i in range(5):
                write_frame(w, {"i": i})
            os.close(w)
            assert [read_frame(r)["i"] for _ in range(5)] == list(range(5))
        finally:
            os.close(r)

    def test_unicode_payload_survives(self):
        r, w = os.pipe()
        try:
            write_frame(w, {"node": "gpu-ü17", "reason": "✓"})
            os.close(w)
            assert read_frame(r)["node"] == "gpu-ü17"
        finally:
            os.close(r)

    def test_truncated_frame_reads_as_eof(self):
        r, w = os.pipe()
        try:
            os.write(w, make_pipe_frame({"x": 1})[:-2])
            os.close(w)
            assert read_frame(r) is None
        finally:
            os.close(r)

    def test_oversized_frame_is_a_protocol_fault(self):
        r, w = os.pipe()
        try:
            os.write(w, (1 << 30).to_bytes(4, "big"))
            os.close(w)
            with pytest.raises(WorkerFault):
                read_frame(r)
        finally:
            os.close(r)

    def test_write_to_closed_pipe_raises_worker_fault(self):
        r, w = os.pipe()
        os.close(r)
        try:
            with pytest.raises(WorkerFault):
                write_frame(w, {"cmd": "status"})
        finally:
            os.close(w)


class TestWorkerSpec:
    def test_payload_round_trip(self):
        spec = WorkerSpec(shard_index=3, journal_dir="/tmp/j",
                          builder="mod:fn", builder_args={"a": 1},
                          incarnation=2, heartbeat_every=4,
                          chaos={"seed": 7})
        clone = WorkerSpec.from_payload(
            json.loads(json.dumps(spec.to_payload())))
        assert clone == spec

    def test_defaults_survive_sparse_payload(self):
        spec = WorkerSpec.from_payload({"shard_index": 0,
                                        "journal_dir": "d",
                                        "builder": "m:f"})
        assert spec.incarnation == 0
        assert spec.chaos is None


class TestProcessChaosPlan:
    def test_payload_round_trip(self):
        plan = ChaosPlan(seed=11, target_shards=(0, 2),
                         kill_after_appends=5, incarnation=1,
                         kill_rate=0.25, hang_after_ticks=3,
                         hang_rate=0.1)
        clone = ChaosPlan.from_payload(
            json.loads(json.dumps(plan.to_payload())))
        assert clone.seed == plan.seed
        assert clone.targets(0) and clone.targets(2) and not clone.targets(1)
        assert clone.kill_after_appends == 5
        assert clone.incarnation == 1

    def test_deterministic_kill_fires_once_per_incarnation(self):
        plan = ChaosPlan(seed=1, kill_after_appends=2)
        assert not plan.should_kill(0, 0, 1)
        assert not plan.should_kill(0, 0, 2)
        assert plan.should_kill(0, 0, 3)
        # The respawned incarnation must not deterministically die at
        # the same append again, or restart could never make progress.
        assert not plan.should_kill(0, 1, 3)

    def test_deterministic_stop_gated_by_incarnation(self):
        plan = ChaosPlan(seed=1, hang_after_ticks=1, incarnation=2)
        assert not plan.should_stop(0, 0, 2)
        assert plan.should_stop(0, 2, 2)

    def test_target_scoping(self):
        plan = ChaosPlan(seed=1, target_shards=(1,),
                         kill_after_appends=0)
        assert plan.should_kill(1, 0, 1)
        assert not plan.should_kill(0, 0, 1)

    def test_probabilistic_draws_are_reproducible(self):
        a = ChaosPlan(seed=9, kill_rate=0.5)
        b = ChaosPlan(seed=9, kill_rate=0.5)
        draws = [(s, i, n) for s in range(2) for i in range(2)
                 for n in range(1, 20)]
        assert ([a.should_kill(*d) for d in draws]
                == [b.should_kill(*d) for d in draws])
        assert any(a.should_kill(*d) for d in draws)

    def test_rate_validation(self):
        with pytest.raises(ServiceError):
            ChaosPlan(seed=1, kill_rate=1.5)
        with pytest.raises(ServiceError):
            ChaosPlan(seed=1, hang_rate=-0.1)
        with pytest.raises(ServiceError):
            ChaosPlan(seed=1, kill_after_appends=-1)

    @pytest.mark.parametrize("shard", [0, 1])
    def test_worker_journal_dies_where_should_kill_says(self, tmp_path,
                                                        monkeypatch, shard):
        # The worker arms its own journal: its SIGKILLs must land on
        # exactly the appends the plan's process decision names, and
        # never on an untargeted shard.
        plan = ChaosPlan(seed=1, target_shards=(1,), kill_rate=0.3)
        spec = WorkerSpec(
            shard_index=shard, journal_dir=str(tmp_path),
            builder="repro.service.procfabric:default_builder",
            builder_args={"fleet_size": 6, "suite": ["ib-loopback"],
                          "learn_on": 3, "trace_nodes": 10,
                          "trace_hours": 200.0},
            incarnation=2, chaos=plan.to_payload())
        signals = []

        def fake_kill(pid, signum):
            signals.append(signum)
            raise SimulatedKill

        monkeypatch.setattr(os, "kill", fake_kill)
        worker = ShardWorker(spec, -1, -1)
        worker.build()
        store = worker.service.store
        first = len(store.replay()) + 1   # construction's appends landed
        killed = set()
        for n in range(first, first + 20):
            try:
                store.append(RecordKind.PROC_HEARTBEAT, {})
            except SimulatedKill:
                killed.add(n)
        expected = {n for n in range(1, first + 20)
                    if plan.should_kill(shard, 2, n)}
        assert killed == expected
        assert bool(expected) == (shard == 1)
        assert signals == [signal.SIGKILL] * len(killed)

    def test_fabric_refuses_faults_it_cannot_inject(self, tmp_path):
        # Refused at construction, before any worker spawns.
        with pytest.raises(ServiceError, match="process transport cannot "
                                               "inject heartbeat_loss_rate"):
            ProcessFabric(builder="repro.service.procfabric:default_builder",
                          journal_root=tmp_path / "j",
                          chaos=ChaosPlan(seed=1, heartbeat_loss_rate=0.1))
        assert not (tmp_path / "j").exists()


class TestJournalStateFold:
    def journal(self, tmp_path) -> JournalStore:
        return JournalStore(tmp_path / "journal")

    def enqueue(self, store, event_id, *, origin=None, priority=0.5):
        payload = {"event_id": event_id, "priority": priority,
                   "attempts": 0,
                   "event": {"kind": "job-allocation", "nodes": ["n1"],
                             "statuses": [], "duration_hours": 24.0}}
        if origin is not None:
            payload["origin"] = list(origin)
        store.append(RecordKind.EVENT_ENQUEUED, payload)

    def test_pending_reflects_enqueue_minus_terminal(self, tmp_path):
        store = self.journal(tmp_path)
        self.enqueue(store, 1)
        self.enqueue(store, 2)
        self.enqueue(store, 3)
        store.append(RecordKind.EVENT_COMPLETED, {"event_id": 1})
        store.append(RecordKind.LOAD_SHED, {"event_id": 2})
        state = JournalState.fold(store.replay())
        assert set(state.pending) == {3}
        assert state.last_event_id == 3
        assert not state.sealed

    def test_origins_collected_from_enqueue_and_coalesce(self, tmp_path):
        store = self.journal(tmp_path)
        self.enqueue(store, 1, origin=(PARENT_ORIGIN, 7))
        store.append(RecordKind.EVENT_COALESCED,
                     {"event_id": 1, "priority": 0.9,
                      "origin": [0, 12]})
        state = JournalState.fold(store.replay())
        assert state.origins_seen == {(PARENT_ORIGIN, 7), (0, 12)}

    def test_coalesce_and_failure_records_merge_into_the_entry(self,
                                                               tmp_path):
        """What a dead shard's journal hands a sibling is the entry as
        it stood at death -- the same reduction a restart performs."""
        store = self.journal(tmp_path)
        self.enqueue(store, 1, priority=0.2)
        store.append(RecordKind.EVENT_COALESCED,
                     {"event_id": 1, "priority": 0.7,
                      "duration_hours": 240.0})
        store.append(RecordKind.EVENT_COALESCED,
                     {"event_id": 1, "priority": 0.4,
                      "duration_hours": 48.0})
        store.append(RecordKind.EVENT_FAILED,
                     {"event_id": 1, "attempts": 2, "error": "boom"})
        store.append(RecordKind.EVENT_FAILED,
                     {"event_id": 9, "attempts": 1, "error": "stale"})
        entry = JournalState.fold(store.replay()).pending[1]
        assert entry["priority"] == 0.7
        assert entry["event"]["duration_hours"] == 240.0
        assert entry["attempts"] == 2

    def test_handoff_moves_entry_out_of_pending(self, tmp_path):
        store = self.journal(tmp_path)
        self.enqueue(store, 1)
        store.append(RecordKind.SHARD_HANDOFF, {
            "event_id": 1, "priority": 0.5, "attempts": 0, "to_shard": 2,
            "event": {"kind": "job-allocation", "nodes": ["n1"],
                      "statuses": [], "duration_hours": 24.0}})
        state = JournalState.fold(store.replay())
        assert not state.pending
        assert state.handed_off[1]["to_shard"] == 2

    def test_handoff_origin_rides_through_replay(self, tmp_path):
        """The origin _degrade stamps on a handoff must survive replay
        verbatim: reconcile_handoffs re-delivers under that origin, so
        losing it would re-introduce the double-delivery bug."""
        store = self.journal(tmp_path)
        self.enqueue(store, 1, origin=(-1, 7))
        store.append(RecordKind.SHARD_HANDOFF, {
            "event_id": 1, "priority": 0.5, "attempts": 0, "to_shard": 2,
            "origin": [-1, 7],
            "event": {"kind": "job-allocation", "nodes": ["n1"],
                      "statuses": [], "duration_hours": 24.0}})
        state = JournalState.fold(store.replay())
        assert state.handed_off[1]["origin"] == [-1, 7]
        assert (-1, 7) in state.origins_seen

    def test_snapshot_merges_origins_and_handoffs(self, tmp_path):
        """A checkpoint installs its origins and handoffs; the records
        after it add theirs."""
        store = self.journal(tmp_path)
        store.append(RecordKind.CHECKPOINT, JournalState(
            last_event_id=9,
            origins_seen={(1, 4)},
            handed_off={5: {"event_id": 5, "to_shard": 1,
                            "event": {"kind": "periodic", "nodes": ["n2"],
                                      "statuses": [],
                                      "duration_hours": 24.0}}},
        ).to_payload())
        self.enqueue(store, 10, origin=(-1, 7))
        state = JournalState.fold(store.replay())
        assert state.last_event_id == 10
        assert state.origins_seen == {(1, 4), (-1, 7)}
        assert 5 in state.handed_off
        assert list(state.pending) == [10]

    def test_sealed_only_when_drain_is_final(self, tmp_path):
        store = self.journal(tmp_path)
        self.enqueue(store, 1)
        store.append(RecordKind.FABRIC_DRAIN, {"reason": "drain"})
        assert JournalState.fold(store.replay()).sealed
        self.enqueue(store, 2)
        assert not JournalState.fold(store.replay()).sealed


class TestTornTailHeal:
    """A real SIGKILL can cut the final journal line before its
    newline; a later appender must not merge two records."""

    def test_missing_final_newline_is_healed_on_open(self, tmp_path):
        store = JournalStore(tmp_path / "journal")
        store.append(RecordKind.EVENT_COMPLETED, {"event_id": 1})
        with open(store.path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.truncate()  # kill the trailing newline
        healed = JournalStore(tmp_path / "journal")
        healed.append(RecordKind.EVENT_COMPLETED, {"event_id": 2})
        records = list(healed.replay())
        assert [r.payload["event_id"] for r in records] == [1, 2]

    def test_torn_partial_line_still_skips_cleanly(self, tmp_path):
        store = JournalStore(tmp_path / "journal")
        store.append(RecordKind.EVENT_COMPLETED, {"event_id": 1})
        with open(store.path, "ab") as handle:
            handle.write(b'{"seq": 2, "kind": "event-comp')  # torn write
        healed = JournalStore(tmp_path / "journal")
        healed.append(RecordKind.EVENT_COMPLETED, {"event_id": 3})
        payloads = [r.payload["event_id"] for r in healed.replay()]
        assert payloads == [1, 3]

    def test_empty_and_missing_files_are_untouched(self, tmp_path):
        JournalStore(tmp_path / "a")  # missing file: no error
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "journal.jsonl").write_bytes(b"")
        JournalStore(tmp_path / "b")  # empty file: no error


@pytest.fixture(scope="module")
def service_parts():
    """One tiny control-plane build, shared by the seal tests."""
    from repro.service.procfabric import default_builder

    return default_builder({
        "fleet_size": 6, "suite": ["ib-loopback"], "learn_on": 3,
        "pool": {"max_workers": 2, "benchmark_timeout_seconds": 2.0,
                 "max_attempts": 1, "backoff_base_seconds": 0.0,
                 "poll_interval_seconds": 0.005}})


class TestDefaultBuilder:
    def test_builds_the_sku_mix_it_is_given(self):
        from repro.hardware.fleet import build_fleet
        from repro.service.procfabric import default_builder

        mix = {"A100": 0.5, "H100": 0.5}
        _anubis, nodes, _config = default_builder({
            "fleet_size": 16, "fleet_seed": 3, "sku_mix": mix,
            "suite": ["ib-loopback"], "learn_on": 2})
        expected = build_fleet(16, seed=3, sku_mix=mix)
        assert [node.sku for node in nodes] == [
            node.sku for node in expected.nodes]
        assert {node.sku for node in nodes} == {"A100", "H100"}

    def test_unknown_key_is_refused(self):
        from repro.service.procfabric import default_builder

        with pytest.raises(ServiceError, match="sku_mixx"):
            default_builder({"fleet_size": 4, "sku_mixx": {"H100": 1.0}})


class TestSealAndSync:
    def test_sync_flushes_without_appending(self, tmp_path):
        store = JournalStore(tmp_path / "journal")
        store.append(RecordKind.EVENT_COMPLETED, {"event_id": 1})
        before = store.path.read_bytes()
        store.sync()
        assert store.path.read_bytes() == before

    def test_sync_on_virgin_store_is_a_noop(self, tmp_path):
        JournalStore(tmp_path / "journal").sync()

    def test_service_seal_journals_drain_marker(self, tmp_path,
                                                service_parts):
        from repro.service.controlplane import ValidationService

        anubis, nodes, config = service_parts
        service = ValidationService(anubis, nodes,
                                    journal_dir=tmp_path / "journal",
                                    config=config)
        service.seal(reason="test-drain", extra={"shard": 4})
        last = list(service.store.replay())[-1]
        assert last.kind == RecordKind.FABRIC_DRAIN
        assert last.payload["reason"] == "test-drain"
        assert last.payload["shard"] == 4
        assert "pending" in last.payload

    def test_seal_without_journal_is_a_noop(self, service_parts):
        from repro.service.controlplane import ValidationService

        anubis, nodes, config = service_parts
        service = ValidationService(anubis, nodes, journal_dir=None,
                                    config=config)
        service.seal()  # must not raise

    def test_seal_releases_the_pool_threads(self, service_parts):
        from repro.service.controlplane import ValidationService

        anubis, nodes, config = service_parts
        service = ValidationService(anubis, nodes, journal_dir=None,
                                    config=config)
        validator = anubis.validator
        service.pool.run_benchmarks(validator.resolve(None)[:1], nodes[:1],
                                    validator.runner)
        assert service.pool._executor is not None
        service.seal()
        assert service.pool._executor is None


class TestConfigValidation:
    """The knob-validation surface: every config error is a
    :class:`ServiceError`, and a :class:`ServiceError` is a
    :class:`ValueError` -- callers may catch either."""

    def test_service_error_is_a_value_error(self):
        error = ServiceError("bad knob")
        assert isinstance(error, ValueError)
        assert isinstance(error, ReproError)
        assert isinstance(JournalError("x"), ValueError)

    def test_pool_knobs(self):
        from repro.service.pool import PoolConfig
        with pytest.raises(ValueError):
            PoolConfig(max_workers=0)
        with pytest.raises(ValueError):
            PoolConfig(max_attempts=0)
        with pytest.raises(ValueError):
            PoolConfig(poll_interval_seconds=0.0)

    def test_service_knobs(self):
        from repro.service.controlplane import ServiceConfig
        with pytest.raises(ValueError):
            ServiceConfig(max_queue_depth=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_event_attempts=0)
        with pytest.raises(ValueError):
            ServiceConfig(snapshot_every=0)

    def test_supervisor_knobs(self):
        with pytest.raises(ValueError):
            SupervisorConfig(shard_count=0)
        with pytest.raises(ValueError):
            SupervisorConfig(watchdog_stall_ticks=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_backoff_base_ticks=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            SupervisorConfig(max_shard_restarts=0)

    def test_process_fabric_requires_journal_root(self):
        with pytest.raises(ValueError):
            ProcessFabric(builder="m:f", journal_root=None)

    @pytest.mark.parametrize("knob", ["status_deadline_seconds",
                                      "tick_deadline_seconds",
                                      "spawn_deadline_seconds",
                                      "drain_timeout_seconds"])
    def test_process_fabric_deadlines_must_be_positive(self, tmp_path,
                                                       knob):
        with pytest.raises(ValueError):
            ProcessFabric(builder="m:f", journal_root=tmp_path,
                          **{knob: 0.0})

    def test_builder_reference_must_be_module_colon_function(self):
        from repro.service.procfabric import _resolve_builder
        with pytest.raises(ValueError):
            _resolve_builder("no-colon-here")
        fn = _resolve_builder("repro.service.procfabric:default_builder")
        from repro.service.procfabric import default_builder
        assert fn is default_builder


def run_probe(probe: str) -> subprocess.CompletedProcess:
    """``probe`` in a fresh interpreter that imports from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else []))}
    return subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)


class TestWorkerImportCost:
    def test_worker_entrypoint_does_not_import_networkx(self):
        """Every worker spawn, set-up probe and CLI start imports this
        module; only topology code, when it builds a tree, may pay for
        networkx."""
        done = run_probe("import sys; import repro.service.procfabric; "
                         "assert 'networkx' not in sys.modules, 'eager'; "
                         "from repro.topology import FatTree; FatTree(); "
                         "assert 'networkx' in sys.modules, 'never'")
        assert done.returncode == 0, done.stderr

    def test_worker_entrypoint_does_not_import_scipy(self):
        """Nor does the worker entrypoint import scipy: a worker's boot
        is its builder and journal recovery, not library imports."""
        done = run_probe("import sys; import repro.service.procfabric; "
                         "assert 'scipy' not in sys.modules, 'eager'")
        assert done.returncode == 0, done.stderr
