"""The three deployments behind one small interface, and the closed-loop
driver that feeds them.

A *part* is what one shard sees of an event: the supervisor splits an
event along shard ownership, each part gets its own per-shard event id,
and an event's verdict is complete when its last part is.  Parts are
identified by ``(shard index, event id)``; repeat submissions that the
queue coalesces share a part.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WINDOW, Env, make_anubis, new_service, service_config

__all__ = ["InlineTarget", "ThreadTarget", "ProcessTarget", "build_target",
           "DriveResult", "drive", "settle"]


class InlineTarget:
    """One ``ValidationService``, no supervisor (a single journal)."""

    frames = ()     # exchanged with worker processes: there are none

    def __init__(self, env: Env, journal_root, criteria_path=None):
        self.journal_dirs = [Path(journal_root)]
        self.service = new_service(env, journal_root, criteria_path)

    def submit(self, event) -> list:
        return [(0, self.service.submit(event).event_id)]

    def tick(self) -> list:
        result = self.service.tick()
        if result is None or result.failed:
            return []
        return [(0, result.event_id)]

    def quiescent(self) -> bool:
        return (len(self.service.queue) == 0
                and not self.service.repairs_in_flight())

    def crash(self) -> None:
        self.service = None

    def shutdown(self) -> bool:
        self.service.seal(reason="benchmark-done")
        return True

    def worker_rss_kb(self) -> int:
        return 0


class ThreadTarget:
    """``ShardSupervisor``: shards as objects in this process."""

    frames = ()

    def __init__(self, env: Env, journal_root, criteria_path):
        """``journal_root=None`` runs in memory (the transport
        cross-check's reference fabric)."""
        from repro.service import ShardSupervisor, SupervisorConfig

        shards = min(2, os.cpu_count() or 1)
        self.journal_dirs = ([] if journal_root is None else
                             [Path(journal_root) / f"shard-{index:02d}"
                              for index in range(shards)])
        self.supervisor = ShardSupervisor(
            lambda: make_anubis(env, criteria_path), env.fleet.nodes,
            journal_root=journal_root,
            config=SupervisorConfig(
                shard_count=shards,
                service=service_config(env, max_workers=2)))

    def submit(self, event) -> list:
        return [(index, entry.event_id)
                for index, entry in self.supervisor.submit(event).items()]

    def tick(self) -> list:
        done = []
        for result in self.supervisor.tick():
            if not result.failed:
                # A TickResult does not say which shard produced it;
                # its nodes do.
                node_id = result.outcome.event.nodes[0].node_id
                done.append((self.supervisor.route(node_id),
                             result.event_id))
        return done

    def quiescent(self) -> bool:
        return self.supervisor.quiescent()

    def crash(self) -> None:
        self.supervisor = None

    def shutdown(self) -> bool:
        self.supervisor.seal(reason="benchmark-done")
        return True

    def worker_rss_kb(self) -> int:
        return 0


class ProcessTarget:
    """``ProcessFabric``: one OS worker process per shard.

    The fabric's tick results carry a per-shard event id but not the
    shard, so each worker handle's ``request`` is tapped to note which
    shard was last sent a ``tick``; with ``recorder`` set the same tap
    records the RPC round trip as a span and keeps both frames of it
    in ``frames`` (for the codec leg of the traced pass).
    """

    def __init__(self, env: Env, journal_root, criteria_path, *,
                 trace_dir=None, recorder=None):
        from repro.service import ProcessFabric, SupervisorConfig

        shards = min(2, os.cpu_count() or 1)
        self.journal_dirs = [Path(journal_root) / f"shard-{index:02d}"
                             for index in range(shards)]
        self.fabric = ProcessFabric(
            builder="workloads:build_worker",
            builder_args={"workload": env.workload.name,
                          "criteria_path": str(criteria_path),
                          "trace_dir": (None if trace_dir is None
                                        else str(trace_dir))},
            journal_root=journal_root,
            config=SupervisorConfig(shard_count=shards))
        self._ticked = None
        self._peak_rss_kb: dict[int, int] = {}
        self.frames: list[dict] = []
        for handle in self.fabric.workers:
            handle.request = self._tap(handle, recorder)

    def _tap(self, handle, recorder):
        request = handle.request
        sent: dict[int, int] = {}

        def tapped(message, deadline_seconds):
            if message.get("cmd") == "tick":
                self._ticked = handle.shard_index
            if recorder is None:
                return request(message, deadline_seconds)
            # Number requests per worker pid the way the worker numbers
            # the frames it reads, so both sides label one request alike;
            # the fabric's constructor already sent incarnation 0 one.
            pid = handle.proc.pid
            sent[pid] = sent.get(pid, int(handle.incarnation == 0)) + 1
            previous, recorder.cause = recorder.cause, f"w{pid}.{sent[pid]}"
            try:
                reply = recorder.call("service.procfabric.rpc", request,
                                      message, deadline_seconds)
            finally:
                recorder.cause = previous
            self.frames += (message, reply)
            return reply

        return tapped

    def submit(self, event) -> list:
        return [(index, reply["event_id"])
                for index, reply in self.fabric.submit(event).items()]

    def tick(self) -> list:
        return [(self._ticked, result["event_id"])
                for result in self.fabric.tick() if not result["failed"]]

    def quiescent(self) -> bool:
        return self.fabric.quiescent()

    def worker_rss_kb(self) -> int:
        """Sum over shards of the largest ``VmHWM`` seen for the shard's
        worker; sampled while workers are alive, kept after they die."""
        for handle in self.fabric.workers:
            if not handle.alive():
                continue
            try:
                status = Path(f"/proc/{handle.proc.pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    self._peak_rss_kb[handle.shard_index] = max(
                        self._peak_rss_kb.get(handle.shard_index, 0),
                        int(line.split()[1]))
        return sum(self._peak_rss_kb.values())

    def kill(self, shard_index: int) -> None:
        """One real ``SIGKILL`` against a live worker."""
        os.kill(self.fabric.workers[shard_index].proc.pid, signal.SIGKILL)

    def recovered(self, shard_index: int) -> bool:
        from repro.service.shard import ShardState
        handle = self.fabric.workers[shard_index]
        return (handle.state is ShardState.RUNNING and handle.alive()
                and handle.incarnation > 0 and self.fabric.quiescent())

    def crash(self) -> None:
        self.worker_rss_kb()
        for handle in self.fabric.workers:
            if handle.alive():
                os.kill(handle.proc.pid, signal.SIGKILL)
        for handle in self.fabric.workers:
            handle.ensure_dead()    # reap the corpse, close the pipes
        self.fabric = None

    def shutdown(self) -> bool:
        self.worker_rss_kb()
        return all(self.fabric.shutdown(reason="benchmark-done").values())


def build_target(env: Env, journal_root, criteria_path, *, trace_dir=None,
                 recorder=None):
    """The workload's deployment over ``journal_root``; an existing
    journal there is recovered from."""
    kind = env.workload.target
    if kind == "inline":
        return InlineTarget(env, journal_root, criteria_path)
    if kind == "thread":
        return ThreadTarget(env, journal_root, criteria_path)
    return ProcessTarget(env, journal_root, criteria_path,
                         trace_dir=trace_dir, recorder=recorder)


@dataclass
class DriveResult:
    """Both clocks of a drive: raw seconds (calibration excluded) and
    the same normalised chunk by chunk to reference speed."""

    raw_s: float = 0.0
    normalised_s: float = 0.0
    completed_parts: int = 0
    latencies_raw_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)   # normalised

    def merge(self, other: "DriveResult") -> None:
        self.raw_s += other.raw_s
        self.normalised_s += other.normalised_s
        self.completed_parts += other.completed_parts
        self.latencies_raw_s.extend(other.latencies_raw_s)
        self.latencies_s.extend(other.latencies_s)


#: Consecutive ticks without a completion before the driver gives up:
#: a dead-lettered or lost part would otherwise hang the closed loop.
STALL_TICKS = 20_000


def drive(target, events, meter) -> DriveResult:
    """Closed loop: keep ``WINDOW`` events outstanding until all are done.

    The next event is submitted when every part of an outstanding one
    has completed.  Latency runs from ``submit()`` returning to the
    ``tick()`` that returned the event's last part, on ``meter``'s
    clock, which stands still during calibration slices; it is
    normalised by the speed index of the chunk it completed in.
    """
    clock = meter.clock
    result = DriveResult()
    waiting: dict[tuple, list[int]] = {}
    open_parts: dict[int, set] = {}
    submitted_at: dict[int, float] = {}
    chunk_latencies: list[float] = []
    upcoming = 0
    stalled = 0

    def chunk_closed(index: float) -> None:
        result.latencies_raw_s.extend(chunk_latencies)
        result.latencies_s.extend(l * index for l in chunk_latencies)
        chunk_latencies.clear()

    meter.begin()
    while upcoming < len(events) or open_parts:
        while upcoming < len(events) and len(open_parts) < WINDOW:
            parts = target.submit(events[upcoming])
            open_parts[upcoming] = set(parts)
            for part in parts:
                waiting.setdefault(part, []).append(upcoming)
            submitted_at[upcoming] = clock()
            upcoming += 1
        done = target.tick()
        now = clock()
        stalled = 0 if done else stalled + 1
        if stalled > STALL_TICKS:
            raise RuntimeError(
                f"no part completed in {STALL_TICKS} ticks with "
                f"{len(open_parts)} events outstanding")
        for part in done:
            result.completed_parts += 1
            for index in waiting.pop(part, ()):
                parts = open_parts[index]
                parts.discard(part)
                if not parts:
                    del open_parts[index]
                    chunk_latencies.append(now - submitted_at.pop(index))
        closed = meter.checkpoint()
        if closed is not None:
            chunk_closed(closed)
    result.raw_s, result.normalised_s, last = meter.end()
    chunk_closed(last)
    return result


def settle(target) -> None:
    """Tick until quiescent (repairs drained)."""
    for _ in range(STALL_TICKS):
        if target.quiescent():
            return
        target.tick()
    raise RuntimeError(f"target not quiescent after {STALL_TICKS} ticks")
