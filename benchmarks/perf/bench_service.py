"""Tracked perf-bench harness for the supervised shard fabric.

The single-service write path (``bench_core.py``) and the analytics
read path (``bench_analytics.py``) have measured ceilings; this gives
the *control plane itself* one.  A seeded synthetic load generator
submits risk-weighted validation events against a
:class:`~repro.service.supervisor.ShardSupervisor` over real journals,
then the harness measures:

* ``throughput``   -- events fully processed per second of supervised
  draining (submit -> tick loop -> quiescent),
* ``tick_latency`` -- p50/p99 of individual supervisor tick latency
  (the fabric's scheduling + heartbeat overhead per round),
* ``recovery``     -- time for a cold :class:`ShardSupervisor` to
  rebuild every shard from its journal, against the total journal
  size it replayed -- the robustness tax, measured.

A second leg (``fabric_processes``) measures the process-isolated
fabric on the same load shape: worker-process spawn cost, RPC-driven
drain throughput and tick latency, and the wall-clock cost of
recovering from a real ``SIGKILL`` against a live worker (detect,
respawn, re-reach quiescence) -- what OS-level containment costs over
threads.

Before timing, the harness asserts the accounting invariant the chaos
soak relies on: every submitted per-shard event is completed, shed,
dead-lettered or handed off -- no silent loss under load.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_service.py \
        --out BENCH_service.json

CI runs the small smoke configuration::

    PYTHONPATH=src python benchmarks/perf/bench_service.py \
        --events 30 --nodes 12 --shards 3 --out /tmp/BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.benchsuite.runner import SuiteRunner  # noqa: E402
from repro.benchsuite.suite import suite_by_name  # noqa: E402
from repro.core.selector import NodeStatus, Selector  # noqa: E402
from repro.core.system import Anubis, EventKind, ValidationEvent  # noqa: E402
from repro.core.validator import Validator  # noqa: E402
from repro.hardware.fleet import build_fleet  # noqa: E402
from repro.service import (  # noqa: E402
    PoolConfig,
    ServiceConfig,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.simulation import analytic_coverage_table, suite_durations  # noqa: E402
from repro.simulation.generator import generate_incident_trace  # noqa: E402
from repro.survival import extract_status_samples  # noqa: E402
from repro.survival.exponential import ExponentialModel  # noqa: E402

SUITE = (suite_by_name("ib-loopback"), suite_by_name("mem-bw"))
FAST_POOL = PoolConfig(max_workers=4, benchmark_timeout_seconds=2.0,
                       max_attempts=1, backoff_base_seconds=0.0,
                       poll_interval_seconds=0.005)
#: Event kinds the generator cycles through (weighted toward the
#: selector-gated kinds so ticks exercise the policy path too).
_KINDS = (EventKind.JOB_ALLOCATION, EventKind.JOB_ALLOCATION,
          EventKind.INCIDENT_REPORTED, EventKind.NODE_ADDED,
          EventKind.SOFTWARE_UPGRADED)


def build_supervisor(journal_root, *, nodes: int, shards: int,
                     max_queue_depth: int | None = None):
    """A full fabric over a simulated fleet, plus its event fixtures."""
    fleet = build_fleet(nodes, seed=5)
    trace = generate_incident_trace(50, 800.0, seed=11)
    dataset = extract_status_samples(trace)
    model = ExponentialModel().fit(dataset)

    def anubis_factory():
        validator = Validator(SUITE, runner=SuiteRunner(seed=9))
        validator.learn_criteria(fleet.nodes[:min(6, nodes)])
        selector = Selector(model, analytic_coverage_table(SUITE),
                            suite_durations(SUITE), p0=0.05)
        return Anubis(validator, selector)

    config = SupervisorConfig(
        shard_count=shards,
        service=ServiceConfig(pool=FAST_POOL,
                              max_queue_depth=max_queue_depth))
    supervisor = ShardSupervisor(anubis_factory, fleet.nodes,
                                 journal_root=journal_root, config=config)
    return supervisor, fleet, dataset


def generate_load(supervisor, fleet, dataset, *, events: int,
                  seed: int = 23) -> int:
    """Submit ``events`` seeded synthetic events; return parts accepted.

    Each event touches 2-4 random nodes (so most events split across
    shard boundaries) with trace-derived covariates -- the same shape
    the chaos soak and the CLI ``serve`` driver produce.
    """
    rng = np.random.default_rng(seed)
    accepted = 0
    for sequence in range(events):
        count = int(rng.integers(2, 5))
        indices = rng.choice(len(fleet.nodes), size=count, replace=False)
        nodes = tuple(fleet.nodes[int(i)] for i in indices)
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=dataset.covariates[int(i) % len(dataset)])
            for i, node in zip(indices, nodes))
        event = ValidationEvent(kind=_KINDS[sequence % len(_KINDS)],
                                nodes=nodes, statuses=statuses,
                                duration_hours=24.0)
        accepted += len(supervisor.submit(event))
    return accepted


def check_accounting(supervisor, accepted: int) -> tuple[bool, dict]:
    """Every accepted per-shard event must be accounted for."""
    completed = shed = dead = handed = 0
    for shard in supervisor.shards:
        metrics = shard.service.metrics
        completed += metrics.events_processed
        shed += metrics.events_shed
        dead += metrics.events_dead_lettered
        handed += len(shard.service.handed_off)
    # Coalescing merges submissions, so completed covers >= 1 accepted
    # entry each; the invariant is no *loss*, not 1:1.
    counts = {"accepted": accepted, "completed": completed, "shed": shed,
              "dead_lettered": dead, "handed_off": handed}
    remaining = sum(len(s.service.queue) for s in supervisor.shards)
    return remaining == 0 and completed + shed + dead + handed > 0, counts


def percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def journal_bytes(journal_root: Path) -> int:
    return sum(path.stat().st_size
               for path in Path(journal_root).glob("shard-*/journal.jsonl"))


def bench_fabric(journal_root: Path, *, events: int, nodes: int,
                 shards: int) -> dict:
    supervisor, fleet, dataset = build_supervisor(
        journal_root, nodes=nodes, shards=shards)
    accepted = generate_load(supervisor, fleet, dataset, events=events)

    tick_latencies: list[float] = []
    drain_start = time.perf_counter()
    while not supervisor.quiescent():
        tick_start = time.perf_counter()
        supervisor.tick()
        tick_latencies.append(time.perf_counter() - tick_start)
    drain_s = time.perf_counter() - drain_start

    ok, counts = check_accounting(supervisor, accepted)
    if not ok:
        raise SystemExit(f"FAIL: event accounting does not balance: {counts}")

    bytes_replayed = journal_bytes(journal_root)
    recovery_start = time.perf_counter()
    recovered, _fleet, _dataset = build_supervisor(
        journal_root, nodes=nodes, shards=shards)
    recovery_s = time.perf_counter() - recovery_start
    if not recovered.quiescent():
        raise SystemExit("FAIL: recovered fabric is not quiescent")

    processed = counts["completed"]
    return {
        "events_submitted": events,
        "event_parts_accepted": accepted,
        "accounting": counts,
        "journal_bytes": bytes_replayed,
        "throughput": {
            "drain_seconds": drain_s,
            "events_per_s": processed / drain_s if drain_s > 0 else None,
        },
        "tick_latency": {
            "ticks": len(tick_latencies),
            "p50_s": percentile(tick_latencies, 50),
            "p99_s": percentile(tick_latencies, 99),
        },
        "recovery": {
            "seconds": recovery_s,
            "bytes_per_s": (bytes_replayed / recovery_s
                            if recovery_s > 0 else None),
        },
    }


def bench_process_fabric(workdir: Path, *, events: int, nodes: int,
                         shards: int) -> dict:
    """The process-isolated fabric leg: same load, real OS workers."""
    import signal as _signal

    from repro.core.persistence import save_criteria
    from repro.service import ProcessFabric
    from repro.service.queue import JournalState
    from repro.service.shard import ShardState
    from repro.service.store import JournalStore

    fleet = build_fleet(nodes, seed=5)
    trace = generate_incident_trace(50, 800.0, seed=11)
    dataset = extract_status_samples(trace)
    # Learn once in the parent; workers load from disk (the production
    # shape -- per-worker re-learning would just benchmark learning).
    validator = Validator(SUITE, runner=SuiteRunner(seed=9))
    validator.learn_criteria(fleet.nodes[:min(6, nodes)])
    workdir.mkdir(parents=True, exist_ok=True)
    criteria_path = workdir / "criteria.json"
    save_criteria(validator, criteria_path)

    journal_root = workdir / "fabric"
    builder_args = {
        "fleet_size": nodes, "fleet_seed": 5,
        "suite": ["ib-loopback", "mem-bw"], "runner_seed": 9,
        "criteria_path": str(criteria_path),
        "trace_nodes": 50, "trace_hours": 800.0, "trace_seed": 11,
        "p0": 0.05,
        "pool": {"max_workers": 4, "benchmark_timeout_seconds": 2.0,
                 "max_attempts": 1, "backoff_base_seconds": 0.0,
                 "poll_interval_seconds": 0.005},
    }
    spawn_start = time.perf_counter()
    fabric = ProcessFabric(
        builder="repro.service.procfabric:default_builder",
        builder_args=builder_args, journal_root=journal_root,
        config=SupervisorConfig(shard_count=shards))
    spawn_s = time.perf_counter() - spawn_start
    try:
        accepted = generate_load(fabric, fleet, dataset, events=events)

        tick_latencies: list[float] = []
        drain_start = time.perf_counter()
        while not fabric.quiescent():
            tick_start = time.perf_counter()
            fabric.tick()
            tick_latencies.append(time.perf_counter() - tick_start)
        drain_s = time.perf_counter() - drain_start

        # Real-SIGKILL recovery: kill a live worker, measure detect ->
        # respawn -> back to a quiescent fabric.
        victim = fabric.workers[0]
        os.kill(victim.proc.pid, _signal.SIGKILL)
        restart_start = time.perf_counter()
        restart_ticks = 0
        while not (victim.state is ShardState.RUNNING and victim.alive()
                   and fabric.quiescent()):
            fabric.tick()
            restart_ticks += 1
            if restart_ticks > 10_000:
                raise SystemExit("FAIL: killed worker never recovered")
        restart_s = time.perf_counter() - restart_start
    finally:
        sealed = fabric.shutdown()
    if not all(sealed.values()):
        raise SystemExit(f"FAIL: unclean worker drains: {sealed}")

    processed = 0
    for index in range(shards):
        store = JournalStore(journal_root / f"shard-{index:02d}")
        state = JournalState.fold(store.replay())
        if state.pending:
            raise SystemExit(
                f"FAIL: shard {index} left events pending: "
                f"{sorted(state.pending)}")
        if not state.sealed:
            raise SystemExit(f"FAIL: shard {index} journal not sealed")
        processed += state.last_event_id - len(state.handed_off)

    return {
        "events_submitted": events,
        "event_parts_accepted": accepted,
        "journal_bytes": journal_bytes(journal_root),
        "spawn": {
            "workers": shards,
            "seconds": spawn_s,
            "seconds_per_worker": spawn_s / shards,
        },
        "throughput": {
            "drain_seconds": drain_s,
            "events_per_s": processed / drain_s if drain_s > 0 else None,
        },
        "tick_latency": {
            "ticks": len(tick_latencies),
            "p50_s": percentile(tick_latencies, 50),
            "p99_s": percentile(tick_latencies, 99),
        },
        "sigkill_restart": {
            "seconds": restart_s,
            "ticks": restart_ticks,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=80,
                        help="synthetic events to submit")
    parser.add_argument("--nodes", type=int, default=16,
                        help="simulated fleet size")
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count")
    parser.add_argument("--out", default="BENCH_service.json",
                        help="output JSON path")
    args = parser.parse_args(argv)
    if args.events < 1 or args.nodes < 1 or args.shards < 1:
        print("error: --events/--nodes/--shards must be positive",
              file=sys.stderr)
        return 2

    result: dict = {
        "suite": "repro.service supervised shard fabric",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {"events": args.events, "nodes": args.nodes,
                   "shards": args.shards},
    }
    with tempfile.TemporaryDirectory() as tmp:
        print(f"driving {args.events} events over {args.shards} shards "
              f"({args.nodes} nodes) ...", flush=True)
        entry = bench_fabric(Path(tmp) / "fabric", events=args.events,
                             nodes=args.nodes, shards=args.shards)
        result["fabric"] = entry
        print(f"  throughput {entry['throughput']['events_per_s']:8.1f} ev/s  "
              f"tick p50 {entry['tick_latency']['p50_s'] * 1e3:6.1f} ms  "
              f"p99 {entry['tick_latency']['p99_s'] * 1e3:6.1f} ms  "
              f"recovery {entry['recovery']['seconds'] * 1e3:7.1f} ms "
              f"({entry['journal_bytes']} B)")

        print(f"driving {args.events} events over {args.shards} worker "
              f"processes ...", flush=True)
        entry = bench_process_fabric(Path(tmp) / "processes",
                                     events=args.events, nodes=args.nodes,
                                     shards=args.shards)
        result["fabric_processes"] = entry
        print(f"  throughput {entry['throughput']['events_per_s']:8.1f} ev/s  "
              f"tick p50 {entry['tick_latency']['p50_s'] * 1e3:6.1f} ms  "
              f"p99 {entry['tick_latency']['p99_s'] * 1e3:6.1f} ms  "
              f"spawn {entry['spawn']['seconds_per_worker'] * 1e3:7.1f} "
              f"ms/worker  sigkill restart "
              f"{entry['sigkill_restart']['seconds'] * 1e3:7.1f} ms")

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
