"""The four benchmark workloads: what each deploys and the events it is fed.

A workload fixes the *deployment* (fleet, suite, criteria engine,
transport -- all seeded by constants here, because hardware is
configuration, not input) and a recipe for the *input*: a stream of
orchestration events generated from ``--seed``.  The program under
test receives only the generated events.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field

__all__ = ["Workload", "WORKLOADS", "REFERENCE_SECONDS", "WINDOW",
           "generate_payloads", "events_to_bytes", "materialise", "Env",
           "make_anubis", "service_config", "new_service", "build_worker"]

#: ``--seconds`` at which the sizes below are meant: the wall time of an
#: average run on the machine they were sized on.  Other values scale
#: event counts and the minimum-timed-work floor proportionally.
REFERENCE_SECONDS = 30

#: Closed-loop window: events outstanding at any moment.  Callers of
#: this system (a scheduler placing a job, an operator returning a
#: repaired node) wait for the verdict, so load is a closed loop.
WINDOW = 8

FLEET_SEED = 5
RUNNER_SEED = 9
TRACE_NODES, TRACE_HOURS, TRACE_SEED = 256, 2400.0, 1
SELECTOR_P0 = 0.10

#: ``repro serve``'s event mix.
SERVE_MIX = {"job-allocation": 0.70, "periodic": 0.15,
             "incident-reported": 0.10, "node-added": 0.05}
#: Three quarters full-validation kinds (they bypass the Selector and
#: run the full set).  Not half: the median latency then sat on the
#: boundary between the skipped and the validated mode and moved by a
#: third from seed to seed (and by 100 % with a third).
FULL_MIX = {"job-allocation": 0.15, "periodic": 0.10,
            "incident-reported": 0.35, "node-added": 0.25,
            "software-upgraded": 0.15}
MIXED_SKUS = {"A100": 0.5, "H100": 0.3, "MI250X": 0.2}


@dataclass(frozen=True)
class Workload:
    """One deployment plus its event recipe (sizes at REFERENCE_SECONDS)."""

    name: str
    why: str
    target: str                       # "inline" | "thread" | "process"
    nodes: int
    suite: str                        # "steady" | "full" | "micro5"
    events: int
    width: tuple[int, int]            # nodes per event, inclusive
    mix: dict = field(default_factory=lambda: dict(SERVE_MIX))
    sku_mix: dict | None = None
    learn_per_sku: int | None = None  # None: learn on the whole fleet
    warmup_events: int = 100
    drive_segments: int = 1           # inline: a re-learn follows each
    incremental: bool = False         # IncrementalConfig() + RolloutConfig()
    sanitize: bool = False

    def config(self) -> dict:
        """The workload as plain JSON, for the context of result rows."""
        config = asdict(self)
        del config["name"], config["why"]
        return config


WORKLOADS = {w.name: w for w in (
    Workload(
        name="steady-thread",
        why="cheap 2-benchmark suite over the thread fabric: service "
            "(queue, lifecycle, store append, routing) does most of the work",
        target="thread", nodes=256, suite="steady", events=2000,
        width=(1, 4)),
    Workload(
        name="steady-process",
        why="the same events byte for byte over the process fabric: the gap "
            "to steady-thread is the RPC transport, spawn and kill recovery",
        target="process", nodes=256, suite="steady", events=2000,
        width=(1, 4)),
    Workload(
        name="fullsuite-thread",
        why="full 24-benchmark suite, 3 SKUs, full-validation kinds: "
            "execute, sanitize and scoring dominate and records run to "
            "tens of KB, loading store and analytics by bytes",
        target="thread", nodes=128, suite="full", events=200, width=(1, 3),
        mix=dict(FULL_MIX), sku_mix=dict(MIXED_SKUS), learn_per_sku=3,
        warmup_events=20, sanitize=True),
    Workload(
        name="fleet-learn",
        why="inline service, incremental criteria engine and rollout gate "
            "over a 3-SKU fleet: learning writes the criteria that serving "
            "reads, so a learn speed-up that bloats criteria shows here",
        # 1-3 nodes, not 1-4: with four, 52 % of verdicts took the fast
        # path (selector skip, nothing ahead in the queue), so the median
        # latency sat on the cliff between the two modes (0.7 ms / 2.3 ms)
        # and its ten-seed spread reached 0.26.  With three the cliff is
        # at p57-p62.
        target="inline", nodes=896, suite="micro5", events=1500, width=(1, 3),
        sku_mix={"A100": 0.34, "H100": 0.33, "MI250X": 0.33},
        drive_segments=5, incremental=True),
)}


# ----------------------------------------------------------------------
# Event generation (standard library only: the auditor's tests and the
# byte-identity check run without the program importable)
# ----------------------------------------------------------------------

def _apportion(mix: dict, total: int) -> list[str]:
    """``total`` kind labels in exactly the mix's proportions
    (largest-remainder rounding), unshuffled."""
    exact = {kind: share * total for kind, share in mix.items()}
    counts = {kind: int(value) for kind, value in exact.items()}
    by_remainder = sorted(mix, key=lambda kind: (counts[kind] - exact[kind],
                                                 kind))
    for kind in by_remainder[:total - sum(counts.values())]:
        counts[kind] += 1
    return [kind for kind in sorted(counts) for _ in range(counts[kind])]


def generate_payloads(workload: Workload, seed: int, count: int, *,
                      n_covariates: int, stream: str = "drive") -> list[dict]:
    """``count`` event descriptions for one seed, as plain JSON types.

    Kinds and widths are *stratified* -- exactly the mix's proportions
    and a balanced width cycle, then shuffled -- so two seeds differ in
    which nodes are hit and in what order, not in how much work the
    stream holds; that keeps seed-to-seed spread a property of the
    program.  ``stream`` separates the warm-up stream from the measured
    one.
    """
    rng = random.Random(f"{workload.name}/{stream}/{seed}")
    kinds = _apportion(workload.mix, count)
    rng.shuffle(kinds)
    low, high = workload.width
    widths = [low + index % (high - low + 1) for index in range(count)]
    rng.shuffle(widths)
    payloads = []
    for kind, width in zip(kinds, widths):
        nodes = rng.sample(range(workload.nodes), width)
        payloads.append({
            "kind": kind,
            "nodes": nodes,
            "covariates": [rng.randrange(n_covariates) for _ in nodes],
            "duration_hours": (round(rng.lognormvariate(2.0, 1.0), 6)
                               if kind == "job-allocation" else 24.0),
        })
    return payloads


def events_to_bytes(payloads: list[dict]) -> bytes:
    """Canonical encoding of a generated stream (identity checks)."""
    return json.dumps(payloads, sort_keys=True,
                      separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# Deployment builders (import the program lazily: see above)
# ----------------------------------------------------------------------

class Env:
    """What every incarnation of one workload's deployment shares:
    fleet, survival model, suite and the criteria-learning node set."""

    def __init__(self, workload: Workload):
        from repro.benchsuite.suite import full_suite, micro_suite, suite_by_name
        from repro.hardware.fleet import build_fleet
        from repro.simulation.generator import generate_incident_trace
        from repro.survival import extract_status_samples
        from repro.survival.exponential import ExponentialModel

        self.workload = workload
        started = time.perf_counter()
        self.fleet = build_fleet(workload.nodes, seed=FLEET_SEED,
                                 sku_mix=workload.sku_mix)
        self.build_fleet_s = time.perf_counter() - started
        trace = generate_incident_trace(TRACE_NODES, TRACE_HOURS,
                                        seed=TRACE_SEED)
        self.dataset = extract_status_samples(trace)
        started = time.perf_counter()
        self.model = ExponentialModel().fit(self.dataset)
        self.fit_s = time.perf_counter() - started
        self.suite = {
            "steady": lambda: (suite_by_name("ib-loopback"),
                               suite_by_name("mem-bw")),
            "full": full_suite,
            # The first five micro-benchmarks (12 metrics, one a
            # 60-step series): x 3 SKUs = 36 criteria namespaces.
            "micro5": lambda: micro_suite()[:5],
        }[workload.suite]()
        by_sku: dict[str, list] = {}
        for node in self.fleet.nodes:
            by_sku.setdefault(node.sku, []).append(node)
        self.by_sku = by_sku
        if workload.learn_per_sku is None:
            self.learn_nodes = list(self.fleet.nodes)
        else:
            self.learn_nodes = [node for sku in sorted(by_sku)
                                for node in by_sku[sku][:workload.learn_per_sku]]

    def prewarm(self) -> None:
        """A throwaway one-benchmark learn on one SKU: pays the first-use
        cost of the workload's learning path (``_cmerge`` compile
        included) during set-up, so the first timed learn is like the
        second.  The incremental engine only engages from
        ``exact_below`` windows up, so it gets the SKU's whole class."""
        from repro.benchsuite.runner import SuiteRunner
        from repro.core.incremental import IncrementalConfig
        from repro.core.validator import Validator

        nodes = self.by_sku[sorted(self.by_sku)[0]]
        incremental = IncrementalConfig() if self.workload.incremental else None
        Validator(self.suite[:1], runner=SuiteRunner(seed=RUNNER_SEED),
                  incremental=incremental).learn_criteria(
                      nodes if incremental else nodes[:8])


def materialise(payloads: list[dict], env: Env) -> list:
    """Generated descriptions -> the program's ``ValidationEvent``s."""
    from repro.core.selector import NodeStatus
    from repro.core.system import EventKind, ValidationEvent

    events = []
    for payload in payloads:
        nodes = tuple(env.fleet.nodes[index] for index in payload["nodes"])
        statuses = tuple(
            NodeStatus(node_id=node.node_id,
                       covariates=env.dataset.covariates[cov])
            for node, cov in zip(nodes, payload["covariates"]))
        events.append(ValidationEvent(
            kind=EventKind(payload["kind"]), nodes=nodes, statuses=statuses,
            duration_hours=payload["duration_hours"]))
    return events


def make_anubis(env: Env, criteria_path=None):
    """A fresh Anubis facade; criteria loaded from ``criteria_path``
    when given (loading beats re-learning in every shard)."""
    from repro.benchsuite.runner import SuiteRunner
    from repro.core.incremental import IncrementalConfig
    from repro.core.persistence import load_criteria
    from repro.core.selector import Selector
    from repro.core.system import Anubis
    from repro.core.validator import Validator
    from repro.simulation import analytic_coverage_table, suite_durations

    validator = Validator(
        env.suite, runner=SuiteRunner(seed=RUNNER_SEED),
        incremental=IncrementalConfig() if env.workload.incremental else None)
    if criteria_path is not None:
        load_criteria(validator, criteria_path)
    selector = Selector(env.model, analytic_coverage_table(env.suite),
                        suite_durations(env.suite), p0=SELECTOR_P0)
    return Anubis(validator, selector)


def service_config(env: Env, *, max_workers: int):
    """The per-service config: program defaults except the pool width."""
    from repro.quality.rollout import RolloutConfig
    from repro.quality.sanitize import Sanitizer
    from repro.service import PoolConfig, ServiceConfig

    workload = env.workload
    return ServiceConfig(
        pool=PoolConfig(max_workers=max_workers),
        rollout=RolloutConfig() if workload.incremental else None,
        sanitizer=(Sanitizer.for_suite(env.suite) if workload.sanitize
                   else None))


def new_service(env: Env, journal_dir, criteria_path=None):
    """An inline, journaled ``ValidationService`` over the whole fleet."""
    from repro.service import ValidationService

    return ValidationService(
        make_anubis(env, criteria_path), env.fleet.nodes,
        journal_dir=journal_dir, config=service_config(env, max_workers=2))


def build_worker(args: dict):
    """``ProcessFabric`` builder, resolved inside each worker process.

    Builds the same deployment the thread fabric's factory builds, so
    only the transport differs between ``steady-thread`` and
    ``steady-process``.  With ``trace_dir`` set the worker records spans
    around the same public calls the parent wraps and writes them there
    when it exits.
    """
    env = Env(WORKLOADS[args["workload"]])
    if args.get("trace_dir"):
        import spans
        spans.install_in_worker(args["trace_dir"])
    return (make_anubis(env, args["criteria_path"]), env.fleet.nodes,
            service_config(env, max_workers=1))
