"""Command-line interface: ``python -m repro <command>``.

Thin operational wrappers over the library for the three workflows a
downstream operator runs most:

* ``screen``   -- build-out screening of a simulated fleet (Table 6 flow);
* ``simulate`` -- the 30-day policy comparison (Figure 8 / Table 4 flow);
* ``traces``   -- generate and persist incident/allocation traces;
* ``serve``    -- the durable validation control plane over a synthetic
  event stream (the §3.1 service loop);
* ``report``   -- the fleet SLO report (MTBI trend, availability vs.
  validation overhead, breaker/rollback/DLQ counts, sanitization
  rates) rebuilt deterministically from a ``serve`` journal, as
  markdown or JSON, snapshot or ``--follow`` streaming;
* ``quality-report`` -- a dirty-telemetry sweep through the
  sanitization layer: quarantine ledger, clean-vs-dirty eviction
  comparison, and a guarded-rollout demonstration against poisoned
  criteria.

Every command takes ``--seed`` and prints plain-text tables; exit code
is non-zero on invalid arguments only (experiments that merely show
bad hardware still exit 0 -- finding defects is the point).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SuperBench/ANUBIS reproduction: proactive GPU-fleet validation",
    )
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print the "
                             "top-25 cumulative functions (put it before "
                             "the subcommand: repro --profile serve ...)")
    parser.add_argument("--profile-out", metavar="PATH",
                        default="repro-profile.pstats",
                        help="where --profile dumps the pstats file "
                             "(default repro-profile.pstats)")
    sub = parser.add_subparsers(dest="command", required=True)

    screen = sub.add_parser("screen", help="screen a simulated fleet "
                                           "with the full benchmark set")
    screen.add_argument("--nodes", type=int, default=120,
                        help="fleet size (default 120)")
    screen.add_argument("--learn-on", type=int, default=60,
                        help="nodes used for offline criteria learning")
    screen.add_argument("--alpha", type=float, default=0.95,
                        help="similarity threshold (default 0.95)")
    screen.add_argument("--seed", type=int, default=0)
    screen.add_argument("--save-criteria", metavar="PATH", default=None,
                        help="write learned criteria JSON to PATH")

    simulate = sub.add_parser("simulate", help="run the 30-day policy "
                                               "comparison simulation")
    simulate.add_argument("--nodes", type=int, default=48)
    simulate.add_argument("--days", type=int, default=30)
    simulate.add_argument("--p0", type=float, default=0.02,
                          help="Selector residual-probability target")
    simulate.add_argument("--seed", type=int, default=0)

    traces = sub.add_parser("traces", help="generate synthetic incident "
                                           "and allocation traces")
    traces.add_argument("--nodes", type=int, default=200)
    traces.add_argument("--hours", type=float, default=2400.0)
    traces.add_argument("--incidents-out", metavar="PATH", default=None)
    traces.add_argument("--allocations-out", metavar="PATH", default=None)
    traces.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser("serve", help="run the validation control plane "
                                         "against a simulated fleet")
    serve.add_argument("--nodes", type=int, default=64,
                       help="fleet size (default 64)")
    serve.add_argument("--events", type=int, default=200,
                       help="synthetic orchestration events to replay")
    serve.add_argument("--journal", metavar="DIR", default=None,
                       help="journal directory (enables durable state)")
    serve.add_argument("--learn-on", type=int, default=16,
                       help="nodes used for offline criteria learning")
    serve.add_argument("--workers", type=int, default=8,
                       help="parallel validation workers")
    serve.add_argument("--p0", type=float, default=0.10,
                       help="Selector residual-probability target")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       metavar="N",
                       help="bound the event queue at N entries; overload "
                            "sheds the lowest-risk events (journaled as "
                            "load-shed) instead of growing without bound")
    serve.add_argument("--incremental-criteria", action="store_true",
                       help="learn criteria through the incremental engine "
                            "(sketches + landmark medoids) and run a gated "
                            "re-learn after the event stream, so the "
                            "per-path learn stages (learn-exact/full) show "
                            "up in the pipeline stats and the journal "
                            "report")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--chaos-seed", type=int, default=None, metavar="SEED",
                       help="install the seeded chaos harness (executor "
                            "crashes, journal write faults, tick/repair "
                            "faults, and -- with --journal -- simulated "
                            "process kills with restart-from-journal; with "
                            "--processes, real SIGKILLs against the worker "
                            "processes)")
    serve.add_argument("--processes", action="store_true",
                       help="run the process-isolated shard fabric: one OS "
                            "worker process per shard with real crash "
                            "containment and journaled failover "
                            "(requires --journal)")
    serve.add_argument("--shards", type=int, default=2, metavar="N",
                       help="shard count for --processes (default 2)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="graceful-drain window per worker before "
                            "escalating to SIGKILL (default 10)")
    serve.add_argument("--sku-mix", metavar="SPEC", default=None,
                       help="heterogeneous fleet composition as "
                            "NAME=FRACTION pairs summing to 1.0, e.g. "
                            "'A100=0.5,H100=0.3,MI250X=0.2' (default: "
                            "a homogeneous A100 fleet); criteria are "
                            "learned per SKU namespace")

    report = sub.add_parser(
        "report",
        help="fleet SLO report (MTBI trend, availability vs. validation "
             "overhead, breaker/rollback/DLQ counts, sanitization rates) "
             "rebuilt from a service journal")
    report.add_argument("--journal", metavar="DIR", required=True,
                        help="journal directory written by serve --journal")
    report.add_argument("--format", choices=("markdown", "json"),
                        default="markdown", help="output format "
                        "(default markdown)")
    report.add_argument("--fleet-size", type=int, default=None,
                        help="known fleet size for availability math "
                             "(default: nodes seen in the journal)")
    report.add_argument("--follow", action="store_true",
                        help="keep polling the journal and re-emit the "
                             "report when new records land")
    report.add_argument("--interval", type=float, default=2.0,
                        help="--follow poll interval in seconds "
                             "(default 2.0)")
    report.add_argument("--max-polls", type=int, default=None,
                        help="stop --follow after N polls (default: run "
                             "until interrupted)")
    report.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to PATH")
    report.add_argument("--by-sku", action="store_true",
                        help="emit only the per-SKU fleet-health section "
                             "(per-SKU MTBI, eviction pipeline, rollback "
                             "and sanitization rates; pre-SKU journals "
                             "report one 'unknown' row)")

    quality = sub.add_parser(
        "quality-report",
        help="sweep a fleet through dirty telemetry and report what the "
             "sanitization layer quarantined")
    quality.add_argument("--nodes", type=int, default=32,
                         help="fleet size (default 32)")
    quality.add_argument("--learn-on", type=int, default=16,
                         help="nodes used for offline criteria learning")
    quality.add_argument("--contamination", type=float, default=0.10,
                         help="telemetry fault probability per run "
                              "(default 0.10)")
    quality.add_argument("--alpha", type=float, default=0.95,
                         help="similarity threshold (default 0.95)")
    quality.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_screen(args) -> int:
    from repro.benchsuite.runner import SuiteRunner
    from repro.benchsuite.suite import full_suite
    from repro.core.validator import Validator
    from repro.hardware.fleet import build_fleet

    if args.learn_on < 2 or args.learn_on > args.nodes:
        print("error: --learn-on must be in [2, --nodes]", file=sys.stderr)
        return 2
    fleet = build_fleet(args.nodes, seed=args.seed)
    validator = Validator(full_suite(), runner=SuiteRunner(seed=args.seed),
                          alpha=args.alpha)
    print(f"learning criteria on {args.learn_on} of {args.nodes} nodes...")
    validator.learn_criteria(fleet.nodes[:args.learn_on])
    print("screening the fleet...")
    report = validator.validate(fleet.nodes)

    by_benchmark = report.violations_by_benchmark()
    print(f"\n{'benchmark':<28} defects")
    for name, nodes in sorted(by_benchmark.items(), key=lambda kv: -len(kv[1])):
        print(f"{name:<28} {len(nodes)} "
              f"({100 * len(nodes) / args.nodes:.2f}%)")
    flagged = report.defective_nodes
    print(f"\ntotal: {len(flagged)}/{args.nodes} nodes filtered as defective "
          f"({100 * len(flagged) / args.nodes:.2f}%)")
    if args.save_criteria:
        from repro.core.persistence import save_criteria
        save_criteria(validator, args.save_criteria)
        print(f"criteria written to {args.save_criteria}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.simulation.cluster import SimulationConfig
    from repro.simulation.generator import generate_allocation_trace
    from repro.simulation.metrics import run_policy_comparison

    horizon = 24.0 * args.days
    config = SimulationConfig(n_nodes=args.nodes, horizon_hours=horizon,
                              seed=args.seed)
    trace = generate_allocation_trace(
        horizon, jobs_per_hour=args.nodes / 48.0,
        max_job_nodes=max(2, args.nodes // 4),
        mean_duration_hours=18.0, seed=args.seed + 1)
    print(f"simulating {args.days} days x {args.nodes} nodes "
          f"({len(trace)} jobs) under four policies...")
    comparison = run_policy_comparison(config, trace, p0=args.p0)
    print(f"\n{'policy':<10} {'util':>7} {'MTBI(h)':>9} {'val(h)':>8} "
          f"{'inc/node':>9}")
    for name in ("absence", "full-set", "selector", "ideal"):
        result = comparison.results[name]
        print(f"{name:<10} {100 * result.average_utilization:>6.1f}% "
              f"{result.mtbi_hours:>9.1f} "
              f"{result.average_validation_hours:>8.1f} "
              f"{result.average_incidents:>9.2f}")
    return 0


def _cmd_traces(args) -> int:
    from repro.simulation.generator import (
        generate_allocation_trace,
        generate_incident_trace,
    )

    incidents = generate_incident_trace(args.nodes, args.hours, seed=args.seed)
    allocations = generate_allocation_trace(args.hours, seed=args.seed + 1)
    print(f"generated {len(incidents)} incidents on {args.nodes} nodes and "
          f"{len(allocations)} allocation requests over {args.hours:.0f} h")
    if args.incidents_out:
        incidents.save(args.incidents_out)
        print(f"incident trace written to {args.incidents_out}")
    if args.allocations_out:
        allocations.save(args.allocations_out)
        print(f"allocation trace written to {args.allocations_out}")
    return 0


def _parse_sku_mix(spec: str) -> dict[str, float]:
    """Parse 'A100=0.5,H100=0.5'-style fleet-composition specs."""
    mix: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, fraction = part.partition("=")
        name = name.strip()
        if not name or not fraction:
            raise ValueError(
                f"expected NAME=FRACTION, got {part!r}")
        if name in mix:
            raise ValueError(f"duplicate SKU {name!r}")
        try:
            mix[name] = float(fraction)
        except ValueError:
            raise ValueError(
                f"bad fraction {fraction!r} for SKU {name!r}") from None
    if not mix:
        raise ValueError("empty sku mix")
    return mix


def _learn_subset(nodes, learn_on: int):
    """The first ``learn_on`` nodes, round-robined across SKUs.

    Criteria are learned per SKU namespace, and every namespace needs
    at least two sample nodes -- a contiguous slice of a mixed fleet
    can starve a minority class entirely, so the subset interleaves
    the classes instead.  Homogeneous fleets reduce to the plain
    prefix slice.
    """
    by_sku: dict[str, list] = {}
    for node in nodes:
        by_sku.setdefault(getattr(node, "sku", "unknown"), []).append(node)
    if len(by_sku) == 1:
        return list(nodes)[:learn_on]
    subset: list = []
    pools = [list(group) for _sku, group in sorted(by_sku.items())]
    while len(subset) < learn_on and any(pools):
        for pool in pools:
            if pool:
                subset.append(pool.pop(0))
                if len(subset) >= learn_on:
                    break
    return subset


def _cmd_serve(args) -> int:
    import numpy as np

    from repro.benchsuite.runner import SuiteRunner
    from repro.benchsuite.suite import full_suite
    from repro.core.selector import NodeStatus, Selector
    from repro.core.system import Anubis, EventKind, ValidationEvent
    from repro.core.validator import Validator
    from repro.exceptions import ServiceError
    from repro.hardware.fleet import build_fleet
    from repro.service import (
        PoolConfig,
        ServiceConfig,
        SimulatedKill,
        ValidationService,
    )
    from repro.simulation import analytic_coverage_table, suite_durations
    from repro.simulation.generator import generate_incident_trace
    from repro.survival import extract_status_samples
    from repro.survival.exponential import ExponentialModel

    if args.learn_on < 2 or args.learn_on > args.nodes:
        print("error: --learn-on must be in [2, --nodes]", file=sys.stderr)
        return 2
    if args.events < 1 or args.workers < 1:
        print("error: --events and --workers must be positive", file=sys.stderr)
        return 2
    if args.processes and not args.journal:
        print("error: --processes requires --journal (dead workers are "
              "recovered from their journals)", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be positive", file=sys.stderr)
        return 2
    if args.drain_timeout <= 0:
        print("error: --drain-timeout must be positive", file=sys.stderr)
        return 2
    sku_mix = None
    if args.sku_mix:
        try:
            sku_mix = _parse_sku_mix(args.sku_mix)
        except ValueError as error:
            print(f"error: --sku-mix: {error}", file=sys.stderr)
            return 2

    try:
        fleet = build_fleet(args.nodes, seed=args.seed, sku_mix=sku_mix)
    except ValueError as error:
        print(f"error: --sku-mix: {error}", file=sys.stderr)
        return 2
    if sku_mix is not None:
        counts = ", ".join(f"{sku}={count}" for sku, count
                           in sorted(fleet.sku_counts().items()))
        print(f"fleet composition: {counts}")
    suite = full_suite()
    incremental = None
    if args.incremental_criteria:
        from repro.core.incremental import IncrementalConfig
        incremental = IncrementalConfig()
    validator = Validator(suite, runner=SuiteRunner(seed=args.seed),
                          incremental=incremental)
    print(f"learning criteria on {args.learn_on} of {args.nodes} nodes...")
    validator.learn_criteria(_learn_subset(fleet.nodes, args.learn_on))

    trace = generate_incident_trace(max(args.nodes, 50), 2400.0,
                                    seed=args.seed + 1)
    dataset = extract_status_samples(trace)
    model = ExponentialModel().fit(dataset)
    selector = Selector(model, analytic_coverage_table(suite),
                        suite_durations(suite), p0=args.p0)
    anubis = Anubis(validator, selector)

    # Synthetic orchestration stream: mostly job allocations, plus
    # periodic checks, incident reports and node additions.
    rng = np.random.default_rng(args.seed + 2)
    n_samples = len(dataset)
    kinds = rng.choice(4, size=args.events, p=[0.70, 0.15, 0.10, 0.05])
    events = []
    for kind_index in kinds:
        if kind_index == 0:
            kind = EventKind.JOB_ALLOCATION
            width = 1 + int(rng.integers(0, max(args.nodes // 8, 1)))
            duration = float(rng.lognormal(2.0, 1.0))
        elif kind_index == 1:
            kind = EventKind.PERIODIC
            width, duration = 1 + int(rng.integers(0, 4)), 24.0
        elif kind_index == 2:
            kind = EventKind.INCIDENT_REPORTED
            width, duration = 1, 24.0
        else:
            kind = EventKind.NODE_ADDED
            width, duration = 1 + int(rng.integers(0, 2)), 24.0
        picks = rng.choice(args.nodes, size=min(width, args.nodes),
                           replace=False)
        members = [fleet.nodes[int(i)] for i in picks]
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=dataset.covariates[
                           int(rng.integers(0, n_samples))])
            for node in members
        )
        events.append(ValidationEvent(kind=kind, nodes=tuple(members),
                                      statuses=statuses,
                                      duration_hours=duration))

    if args.processes:
        return _serve_processes(args, validator, events)

    # Approximate criteria only ever go live through the shadow-
    # evaluation gate, so the incremental engine always brings the
    # rollout guard with it.
    rollout = None
    if args.incremental_criteria:
        from repro.quality.rollout import RolloutConfig
        rollout = RolloutConfig()
    config = ServiceConfig(pool=PoolConfig(max_workers=args.workers),
                           max_queue_depth=args.max_queue_depth,
                           rollout=rollout)
    service = ValidationService(anubis, fleet.nodes,
                                journal_dir=args.journal, config=config)

    from collections import Counter

    chaos = None
    restarts = 0
    injections = Counter()

    def install(target):
        nonlocal chaos
        if args.chaos_seed is None:
            return
        from repro.service.chaos import ChaosPlan, install_chaos

        if chaos is not None:
            injections.update(chaos.injections)

        # The seed shifts per incarnation so a restarted service does
        # not deterministically die at the same journal append again.
        chaos = install_chaos(target, ChaosPlan(
            seed=args.chaos_seed + restarts,
            executor_crash_rate=0.02,
            journal_error_rate=0.02,
            tick_error_rate=0.02,
            repair_failure_rate=0.05,
            kill_rate=0.01 if args.journal else 0.0,
        ))

    install(service)
    print(f"submitting {args.events} events over {args.nodes} nodes..."
          + (" (chaos on)" if chaos else ""))
    results = []
    submitted = 0
    dropped = 0
    previous = _install_drain_handlers()
    try:
        while True:
            try:
                while submitted < len(events):
                    try:
                        service.submit(events[submitted])
                    except ServiceError:
                        # Injected journal fault rejected the enqueue;
                        # the entry was rolled back, so the event is
                        # simply lost to this run (a real orchestrator
                        # would retry).
                        dropped += 1
                    submitted += 1
                results.extend(service.drain())
                break
            except SimulatedKill:
                restarts += 1
                if restarts > 50:
                    print("error: chaos kept killing the service",
                          file=sys.stderr)
                    return 1
                print(f"chaos: simulated process kill #{restarts}; "
                      f"restarting from journal...")
                service = ValidationService(anubis, fleet.nodes,
                                            journal_dir=args.journal,
                                            config=config)
                install(service)
        if args.incremental_criteria:
            # Post-stream re-learn: the control plane re-runs the
            # learning nodes, walks the candidates through the rollout
            # gate, and journals each key's engine path, exact or full
            # (criteria-learn record).
            print(f"\nre-learning criteria on {args.learn_on} nodes "
                  f"(incremental engine)...")
            decisions = service.learn_criteria(fleet.nodes[:args.learn_on])
            rejected = sum(1 for d in decisions if not d.accepted)
            if decisions:
                print(f"rollout gate: {len(decisions) - rejected} "
                      f"accepted, {rejected} rolled back")

        quarantined = sorted({n for r in results for n in r.quarantined})
        print(f"\nprocessed {len(results)} events "
              f"({service.queue.coalesced_total} coalesced away)\n")
        print(service.metrics.format_table())
        pipeline = anubis.pipeline_stats()
        if pipeline:
            print("\nmeasurement spine (stage: runs, seconds):")
            for stage, entry in pipeline.items():
                print(f"  {stage:<14} {int(entry['count']):6d} "
                      f"{entry['seconds']:8.3f}s")
        counts = service.lifecycle.counts()
        print("\nlifecycle:",
              " ".join(f"{k}={v}" for k, v in counts.items()))
        if quarantined:
            print(f"quarantined this run: {', '.join(quarantined)}")
        if chaos is not None:
            injections.update(chaos.injections)
            fired = " ".join(f"{k}={v}"
                             for k, v in sorted(injections.items()))
            print(f"chaos injections: {fired or 'none'} "
                  f"(restarts={restarts})")
            if service.dead_letters():
                print(f"dead-lettered events: "
                      f"{len(service.dead_letters())}")
        if args.journal:
            # Run-complete seal: with the drain marker as the
            # journal's final record, the report's clean_shutdown
            # flag reads true.  Sealing happens inside the handler-
            # covered region: a signal landing anywhere between the
            # first submit and this seal still drains cleanly.
            service.seal(reason="run-complete")
            print(f"journal: {service.store.path}")
        return 0
    except _GracefulShutdown as stop:
        # Graceful drain: journal the fabric-drain marker and fsync
        # the journal tail, so ``repro report`` can tell this clean
        # shutdown from a crash.  Handlers are restored first, so a
        # second signal kills immediately instead of re-entering.
        _restore_drain_handlers(previous)
        service.seal(reason=f"signal-{stop.signum}")
        print(f"\nsignal {stop.signum}: journal sealed after "
              f"{submitted}/{len(events)} events "
              f"({service.metrics.events_processed} processed); exiting")
        return 0
    finally:
        _restore_drain_handlers(previous)


class _GracefulShutdown(BaseException):
    """Raised from the serve signal handlers to unwind to a seal.

    A ``BaseException`` so no containment handler between the signal
    and the drain logic can swallow the shutdown request.
    """

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


def _install_drain_handlers():
    """Route SIGTERM/SIGINT into :class:`_GracefulShutdown`."""
    import signal

    def _raise(signum, _frame):
        raise _GracefulShutdown(signum)

    return {signum: signal.signal(signum, _raise)
            for signum in (signal.SIGTERM, signal.SIGINT)}


def _restore_drain_handlers(previous) -> None:
    import signal

    for signum, handler in previous.items():
        signal.signal(signum, handler)


def _serve_processes(args, validator, events) -> int:
    """``serve --processes``: the OS-process shard fabric end to end.

    The parent learns criteria once (already done by the caller) and
    persists them next to the journals, so every worker loads instead
    of re-learning; workers then rebuild the same fleet, suite and
    selector from the JSON builder args.  SIGTERM/SIGINT drain every
    worker gracefully -- each seals its own journal -- and a chaos
    seed arms real ``SIGKILL``/``SIGSTOP`` faults inside the workers.
    """
    from pathlib import Path

    from repro.core.persistence import save_criteria
    from repro.service import ChaosPlan, ProcessFabric, SupervisorConfig

    root = Path(args.journal)
    root.mkdir(parents=True, exist_ok=True)
    criteria_path = root / "criteria.json"
    save_criteria(validator, criteria_path)

    chaos = None
    if args.chaos_seed is not None:
        chaos = ChaosPlan(seed=args.chaos_seed, kill_rate=0.01,
                          hang_rate=0.002)
    builder_args = {
        "fleet_size": args.nodes,
        "fleet_seed": args.seed,
        "suite": None,
        "runner_seed": args.seed,
        "criteria_path": str(criteria_path),
        "trace_nodes": max(args.nodes, 50),
        "trace_hours": 2400.0,
        "trace_seed": args.seed + 1,
        "p0": args.p0,
        "pool": {"max_workers": args.workers},
        "service": {"max_queue_depth": args.max_queue_depth},
    }
    print(f"spawning {args.shards} worker processes..."
          + (" (chaos on)" if chaos else ""))
    fabric = ProcessFabric(
        builder="repro.service.procfabric:default_builder",
        builder_args=builder_args,
        journal_root=root,
        config=SupervisorConfig(shard_count=args.shards),
        chaos=chaos,
        drain_timeout_seconds=args.drain_timeout,
    )
    print(f"submitting {len(events)} events over {args.nodes} nodes...")
    results = []
    submitted = 0
    previous = _install_drain_handlers()
    try:
        for event in events:
            fabric.submit(event)
            submitted += 1
        results = fabric.drain()
        summary = fabric.summary()
        # The run-complete shutdown (seal RPC to every worker) happens
        # inside the handler-covered region: a signal landing after
        # the drain but before the seals would otherwise kill the
        # parent with unsealed journals and orphaned workers.
        sealed = fabric.shutdown(reason="run-complete")
        quarantined = sorted({n for r in results
                              for n in r["quarantined"]})
        print(f"\nprocessed {len(results)} events across {args.shards} "
              f"worker processes\n")
        for key in ("shard_restarts", "shard_crashes", "rpc_timeouts",
                    "watchdog_trips", "shards_degraded",
                    "events_failed_over", "handoffs_reconciled",
                    "deliveries_deduped"):
            print(f"  {key:<22} {summary[key]:6d}")
        if quarantined:
            print(f"\nquarantined this run: {', '.join(quarantined)}")
        clean = sum(1 for ok in sealed.values() if ok)
        print(f"\nclean drains: {clean}/{len(sealed)} workers")
        print(f"journals under: {root}")
        return 0
    except _GracefulShutdown as stop:
        # Restore first: a second signal kills immediately rather
        # than interrupting the seal already in progress.
        _restore_drain_handlers(previous)
        sealed = fabric.shutdown(reason=f"signal-{stop.signum}")
        clean = sum(1 for ok in sealed.values() if ok)
        print(f"\nsignal {stop.signum}: drained {clean}/{len(sealed)} "
              f"workers cleanly after {submitted}/{len(events)} events; "
              f"exiting")
        return 0
    finally:
        _restore_drain_handlers(previous)


def _cmd_report(args) -> int:
    import time as _time

    from repro.analytics import JournalReader, build_report
    from repro.analytics.report import render_json, render_markdown

    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    if args.max_polls is not None and args.max_polls < 1:
        print("error: --max-polls must be at least 1", file=sys.stderr)
        return 2

    reader = JournalReader(args.journal)
    render = render_json if args.format == "json" else render_markdown

    def emit(records) -> str:
        report = build_report(records, fleet_size=args.fleet_size,
                              journal_health=reader.health())
        if args.by_sku:
            report = {"sku": report.get("sku")}
        text = render(report)
        print(text, end="")
        if args.out:
            from pathlib import Path
            Path(args.out).write_text(text)
        return text

    if not args.follow:
        emit(reader.read_all())
        return 0

    # Follow mode: keep the record prefix in memory and rebuild the
    # report whenever a poll delivers news.  A reset (the service
    # compacted the journal under us) drops the prefix and starts
    # over from the rewritten segment -- reducers are cheap enough to
    # re-run; correctness over cleverness.
    records: list = []
    cursor = None
    polls = 0
    while True:
        result = reader.poll(cursor)
        cursor = result.cursor
        if result.reset:
            records = []
        if result.records or polls == 0:
            records.extend(result.records)
            emit(records)
        polls += 1
        if args.max_polls is not None and polls >= args.max_polls:
            return 0
        _time.sleep(args.interval)


def _cmd_quality_report(args) -> int:
    import numpy as np

    from repro.benchsuite.runner import SuiteRunner
    from repro.benchsuite.suite import full_suite
    from repro.core.validator import Validator
    from repro.hardware.fleet import build_fleet
    from repro.quality import RolloutConfig, Sanitizer, evaluate_rollout
    from repro.simulation.dirty import dirty_runner

    if args.learn_on < 2 or args.learn_on > args.nodes:
        print("error: --learn-on must be in [2, --nodes]", file=sys.stderr)
        return 2
    if not 0.0 <= args.contamination <= 1.0:
        print("error: --contamination must be in [0, 1]", file=sys.stderr)
        return 2

    fleet = build_fleet(args.nodes, seed=args.seed)
    suite = full_suite()
    learn_nodes = fleet.nodes[:args.learn_on]

    # Clean reference sweep: same fleet, same seed, no telemetry dirt.
    clean = Validator(suite, runner=SuiteRunner(seed=args.seed),
                      alpha=args.alpha)
    clean.learn_criteria(learn_nodes)
    clean_report = clean.validate(fleet.nodes)

    # Dirty sweep: telemetry faults at the requested rate, sanitized at
    # ingestion, learning trimmed to the same contamination budget.
    sanitizer = Sanitizer.for_suite(suite)
    runner = dirty_runner(contamination=args.contamination, seed=args.seed,
                          sanitizer=sanitizer)
    dirty = Validator(suite, runner=runner, alpha=args.alpha,
                      contamination=min(args.contamination, 0.49))
    print(f"learning criteria on {args.learn_on} of {args.nodes} nodes "
          f"under {100 * args.contamination:.0f}% telemetry contamination...")
    windows = dirty.learn_criteria(learn_nodes)
    dirty_report = dirty.validate(fleet.nodes)

    print("\ntelemetry quarantine ledger:")
    print(sanitizer.ledger.format_table())

    clean_evicted = set(clean_report.defective_nodes)
    dirty_evicted = set(dirty_report.defective_nodes)
    false_evictions = sorted(dirty_evicted - clean_evicted)
    print(f"\nevictions: clean run {len(clean_evicted)}, "
          f"dirty run {len(dirty_evicted)}, "
          f"false (dirty-only) {len(false_evictions)}")
    if false_evictions:
        print("false evictions: " + ", ".join(false_evictions))

    # Guarded rollout against a coherent poisoning of every criteria:
    # the candidate measures 3x too high, fleet-wide.
    guard = RolloutConfig()
    rejected = 0
    for key, shadow in sorted(windows.items()):
        criteria = dirty.criteria[key]
        poisoned = np.asarray(criteria.criteria, dtype=float) * 3.0
        decision = evaluate_rollout(
            shadow, poisoned, criteria.criteria, alpha=criteria.alpha,
            higher_is_better=criteria.higher_is_better, config=guard,
            benchmark=key[1], metric=key[2], sku=key[0])
        if not decision.accepted:
            rejected += 1
    print(f"\nguarded rollout: poisoned criteria rejected for "
          f"{rejected}/{len(windows)} (sku, benchmark, metric) namespaces")
    return 0


def _run_profiled(handler, args) -> int:
    """Run one command under cProfile; dump stats and a top-25 summary."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(handler, args)
    finally:
        profiler.dump_stats(args.profile_out)
        print(f"\nprofile written to {args.profile_out}; "
              "top 25 by cumulative time:", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(25)


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "screen": _cmd_screen,
        "simulate": _cmd_simulate,
        "traces": _cmd_traces,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "quality-report": _cmd_quality_report,
    }
    handler = handlers[args.command]
    if args.profile:
        return _run_profiled(handler, args)
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
