"""Parallel benchmark execution with timeouts, retries and isolation.

The synchronous :class:`~repro.core.validator.Validator` runs one
benchmark on one node at a time; a fleet sweep is a long serial loop
and a single hung execution stalls everything behind it.
:class:`ValidationPool` fans the same work out across a thread pool
with four operational guarantees:

* **per-benchmark timeouts** -- a (node, benchmark) execution that
  exceeds its deadline is abandoned and recorded as an execution
  failure; the sweep keeps going;
* **bounded retries with exponential backoff** -- transient crashes
  (raised exceptions) are retried up to ``max_attempts`` times;
* **crash isolation** -- an exception or hang in one execution never
  propagates to other nodes' work;
* **per-benchmark circuit breakers** -- a benchmark whose executions
  fail *fleet-wide* for ``breaker_failure_threshold`` consecutive
  sweeps is almost certainly broken itself (harness regression, bad
  container image), not evidence of fleet-wide hardware failure.  Its
  breaker opens: later sweeps short-circuit the benchmark instead of
  burning a timeout per node and quarantining the whole fleet.  After
  ``breaker_cooldown_sweeps`` the breaker half-opens and probes one
  node; a successful probe closes it again.

Because :class:`~repro.benchsuite.runner.SuiteRunner` draws from
per-(node, benchmark) child streams, a parallel sweep is bit-identical
to a sequential one for every execution that succeeds on its first
attempt -- scheduling order does not leak into results.

Python threads cannot be killed, so a timed-out execution's thread
keeps running in the background until its benchmark returns; the pool
merely stops waiting for it.  The executor is kept from one sweep to
the next -- starting threads per sweep costs more than a cheap sweep's
benchmarks do, and on a machine with busy cores a new thread waits for
a time slice where an idle one is woken in place -- and is dropped by
any sweep that abandoned a cell or did not finish, so abandoned threads
never occupy a later sweep's workers.  :meth:`ValidationPool.close`
releases the idle threads.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.benchsuite.base import BenchmarkResult, BenchmarkSpec
from repro.core.parallel import resolve_workers
from repro.core.validator import ValidationReport, Validator, Violation
from repro.exceptions import ServiceError

__all__ = ["PoolConfig", "BenchmarkRun", "SweepResult", "ValidationPool",
           "BreakerState", "BreakerTransition", "CircuitBreaker"]


@dataclass(frozen=True)
class PoolConfig:
    """Execution knobs of the parallel pool.

    Attributes
    ----------
    max_workers:
        Thread-pool width per sweep.  ``None`` (the default) reads the
        ``REPRO_WORKERS`` environment variable, falling back to 8 --
        the same knob that widens criteria learning, so one deployment
        setting sizes the whole control plane.
    benchmark_timeout_seconds:
        Deadline for one (node, benchmark) execution, measured from
        the moment it starts on a worker; ``None`` disables timeouts.
    max_attempts:
        Total tries per execution (1 = no retries).
    backoff_base_seconds / backoff_multiplier:
        Retry *i* (i >= 2) sleeps ``base * multiplier**(i - 2)``
        before re-running.
    sweep_timeout_seconds:
        Hard deadline for a whole sweep; unresolved executions are
        abandoned as timed out when it passes.  Guards the pathological
        case of every worker hanging at once.  ``None`` disables it.
        When set, it must be at least ``benchmark_timeout_seconds`` --
        a sweep deadline shorter than one execution's deadline would
        silently make the per-benchmark timeout unreachable.
    poll_interval_seconds:
        Coordinator wake-up granularity for deadline checks; must be
        positive (a zero interval busy-spins the coordinator).
    breaker_failure_threshold:
        Consecutive *fleet-wide* execution failures of one benchmark
        before its circuit breaker opens; ``None`` disables breakers.
    breaker_cooldown_sweeps:
        Sweeps an open breaker skips before half-opening to probe.
    """

    max_workers: int | None = None
    benchmark_timeout_seconds: float | None = 30.0
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    sweep_timeout_seconds: float | None = None
    poll_interval_seconds: float = 0.02
    breaker_failure_threshold: int | None = None
    breaker_cooldown_sweeps: int = 1

    def __post_init__(self):
        if self.max_workers is None:
            object.__setattr__(self, "max_workers",
                               resolve_workers(None, default=8))
        if self.max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        if self.max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        if self.backoff_base_seconds < 0 or self.backoff_multiplier < 1.0:
            raise ServiceError("invalid backoff configuration")
        if self.poll_interval_seconds <= 0:
            raise ServiceError("poll_interval_seconds must be positive")
        if (self.sweep_timeout_seconds is not None
                and self.benchmark_timeout_seconds is not None
                and self.sweep_timeout_seconds < self.benchmark_timeout_seconds):
            raise ServiceError(
                "sweep_timeout_seconds must be at least "
                "benchmark_timeout_seconds")
        if (self.breaker_failure_threshold is not None
                and self.breaker_failure_threshold < 1):
            raise ServiceError("breaker_failure_threshold must be at least 1")
        if self.breaker_cooldown_sweeps < 1:
            raise ServiceError("breaker_cooldown_sweeps must be at least 1")

    def backoff_seconds(self, attempt: int) -> float:
        """Sleep before ``attempt`` (1-based; the first try never waits)."""
        if attempt <= 1:
            return 0.0
        return self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 2)


class BreakerState(str, enum.Enum):
    """Circuit-breaker states (standard three-state breaker)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerTransition:
    """One breaker state change, in occurrence order."""

    benchmark: str
    old: BreakerState
    new: BreakerState
    reason: str = ""


class CircuitBreaker:
    """Per-benchmark breaker over consecutive fleet-wide failures.

    The unit of evidence is one *sweep*: a sweep where every executed
    (node, benchmark) cell of this benchmark failed is a fleet-wide
    failure; any cell succeeding resets the consecutive count.  A
    fleet-wide failure indicts the benchmark, not the fleet.
    """

    def __init__(self, benchmark: str, *, failure_threshold: int,
                 cooldown_sweeps: int):
        self.benchmark = benchmark
        self.failure_threshold = int(failure_threshold)
        self.cooldown_sweeps = int(cooldown_sweeps)
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self._cooldown_left = 0
        self.transitions: list[BreakerTransition] = []

    def _set(self, new: BreakerState, reason: str) -> None:
        if new is self.state:
            return
        self.transitions.append(BreakerTransition(
            benchmark=self.benchmark, old=self.state, new=new, reason=reason))
        self.state = new

    def before_sweep(self) -> str:
        """Gate one sweep: ``"run"``, ``"probe"`` or ``"skip"``."""
        if self.state is BreakerState.CLOSED:
            return "run"
        if self.state is BreakerState.HALF_OPEN:
            return "probe"
        self._cooldown_left -= 1
        if self._cooldown_left <= 0:
            self._set(BreakerState.HALF_OPEN, reason="cooldown-elapsed")
            return "probe"
        return "skip"

    def record(self, fleet_wide_failure: bool) -> None:
        """Fold one executed sweep's outcome into the breaker."""
        if fleet_wide_failure:
            self.consecutive_failures += 1
            if self.state is BreakerState.HALF_OPEN:
                self._cooldown_left = self.cooldown_sweeps
                self._set(BreakerState.OPEN, reason="probe-failed")
            elif (self.state is BreakerState.CLOSED
                    and self.consecutive_failures >= self.failure_threshold):
                self._cooldown_left = self.cooldown_sweeps
                self._set(BreakerState.OPEN, reason="failure-threshold")
        else:
            self.consecutive_failures = 0
            if self.state is BreakerState.HALF_OPEN:
                self._set(BreakerState.CLOSED, reason="probe-succeeded")


@dataclass
class BenchmarkRun:
    """Final state of one (node, benchmark) cell of a sweep."""

    node_id: str
    benchmark: str
    result: BenchmarkResult | None = None
    attempts: int = 0
    error: str | None = None
    timed_out: bool = False
    short_circuited: bool = False  # skipped by an open circuit breaker
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepResult:
    """All cells of one parallel sweep."""

    runs: list[BenchmarkRun] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __post_init__(self):
        self._by_cell = {(r.node_id, r.benchmark): r for r in self.runs}

    def run_for(self, node_id: str, benchmark: str) -> BenchmarkRun:
        return self._by_cell[(node_id, benchmark)]

    @property
    def failed_runs(self) -> list[BenchmarkRun]:
        return [r for r in self.runs if not r.ok and not r.short_circuited]

    @property
    def short_circuited_runs(self) -> list[BenchmarkRun]:
        return [r for r in self.runs if r.short_circuited]

    @property
    def failed_node_ids(self) -> list[str]:
        seen: list[str] = []
        for run in self.failed_runs:
            if run.node_id not in seen:
                seen.append(run.node_id)
        return seen


@dataclass
class _Task:
    run: BenchmarkRun
    spec: BenchmarkSpec
    node: object
    attempt: int
    submitted_at: float
    started_at: list  # single-slot box written by the worker thread


class ValidationPool:
    """Parallel fleet-sweep engine reusing a Validator's policy.

    ``sanitizer`` (a :class:`repro.quality.Sanitizer`) is the pool's
    own ingestion guard: every result is passed through it, and the
    windows' ``sanitized`` provenance flag makes the pass idempotent --
    windows a runner-side sanitizer already cleaned flow through
    untouched, so every window leaving a sweep crossed the
    sanitization layer exactly once no matter which runner produced it.
    """

    def __init__(self, config: PoolConfig | None = None, *, sanitizer=None):
        self.config = config or PoolConfig()
        self.sanitizer = sanitizer
        #: Lazily-created per-benchmark breakers (empty when disabled).
        self.breakers: dict[str, CircuitBreaker] = {}
        #: The executor the last sweep left clean, for the next one.
        self._executor: ThreadPoolExecutor | None = None

    def close(self) -> None:
        """Release the idle worker threads (idempotent; the pool stays
        usable -- the next sweep starts new ones)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Circuit breakers
    # ------------------------------------------------------------------
    def breaker_for(self, benchmark: str) -> CircuitBreaker | None:
        """This benchmark's breaker, created on first use; ``None``
        when breakers are disabled by configuration."""
        if self.config.breaker_failure_threshold is None:
            return None
        breaker = self.breakers.get(benchmark)
        if breaker is None:
            breaker = CircuitBreaker(
                benchmark,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_sweeps=self.config.breaker_cooldown_sweeps)
            self.breakers[benchmark] = breaker
        return breaker

    def breaker_transitions(self) -> list[BreakerTransition]:
        """Every breaker state change so far, grouped by benchmark."""
        transitions: list[BreakerTransition] = []
        for name in sorted(self.breakers):
            transitions.extend(self.breakers[name].transitions)
        return transitions

    # ------------------------------------------------------------------
    # Raw sweeps
    # ------------------------------------------------------------------
    def run_benchmarks(self, specs, nodes, runner) -> SweepResult:
        """Run every benchmark in ``specs`` on every node, in parallel.

        Never raises for per-cell failures: each cell ends with either
        a result, an ``error``/``timed_out`` record, or a
        ``short_circuited`` marker from an open circuit breaker.
        """
        cfg = self.config
        specs = list(specs)
        nodes = list(nodes)
        runs = [BenchmarkRun(node_id=node.node_id, benchmark=spec.name)
                for spec in specs for node in nodes]
        by_cell = {(r.node_id, r.benchmark): r for r in runs}
        sweep_start = time.monotonic()

        # Breaker gating: "skip" short-circuits every cell, "probe"
        # runs the first node only (half-open), "run" runs everything.
        modes: dict[str, str] = {}
        for spec in specs:
            breaker = self.breaker_for(spec.name)
            modes[spec.name] = breaker.before_sweep() if breaker else "run"
        probe_node_id = nodes[0].node_id if nodes else None

        def runnable(spec, node) -> bool:
            mode = modes[spec.name]
            if mode == "run":
                return True
            if mode == "probe":
                return node.node_id == probe_node_id
            return False

        for run in runs:
            spec_mode = modes[run.benchmark]
            if spec_mode == "skip" or (spec_mode == "probe"
                                       and run.node_id != probe_node_id):
                run.short_circuited = True
                run.error = "circuit-open"

        # Taken, not borrowed: a sweep running concurrently with this
        # one finds none and makes its own.
        executor, self._executor = self._executor, None
        if executor is None:
            executor = ThreadPoolExecutor(max_workers=cfg.max_workers)
        abandoned = False
        active: dict = {}

        def submit(spec, node, attempt):
            run = by_cell[(node.node_id, spec.name)]
            run.attempts = attempt
            task = _Task(run=run, spec=spec, node=node, attempt=attempt,
                         submitted_at=time.monotonic(), started_at=[None])
            future = executor.submit(self._execute, runner, task)
            active[future] = task

        try:
            for spec in specs:
                for node in nodes:
                    if runnable(spec, node):
                        submit(spec, node, attempt=1)

            while active:
                done, _ = wait(list(active), timeout=cfg.poll_interval_seconds,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for future in done:
                    task = active.pop(future)
                    error = future.exception()
                    if error is None:
                        task.run.result = future.result()
                        task.run.error = None
                        task.run.wall_seconds = now - sweep_start
                    elif task.attempt < cfg.max_attempts:
                        submit(task.spec, task.node, task.attempt + 1)
                    else:
                        task.run.error = f"{type(error).__name__}: {error}"
                        task.run.wall_seconds = now - sweep_start
                # Deadline scan: abandon cells whose execution started
                # too long ago (the thread itself cannot be killed).
                for future, task in list(active.items()):
                    started = task.started_at[0]
                    expired = (
                        cfg.benchmark_timeout_seconds is not None
                        and started is not None
                        and now - started > cfg.benchmark_timeout_seconds
                    )
                    sweep_expired = (
                        cfg.sweep_timeout_seconds is not None
                        and now - sweep_start > cfg.sweep_timeout_seconds
                    )
                    if not expired and not sweep_expired:
                        continue
                    del active[future]
                    future.cancel()
                    abandoned = True
                    if expired and task.attempt < cfg.max_attempts:
                        submit(task.spec, task.node, task.attempt + 1)
                        continue
                    task.run.timed_out = True
                    task.run.error = (
                        f"timeout after {cfg.benchmark_timeout_seconds}s"
                        if expired else
                        f"sweep timeout after {cfg.sweep_timeout_seconds}s"
                    )
                    task.run.wall_seconds = now - sweep_start
        finally:
            # Keep the executor only if every thread in it is idle: not
            # after abandoning a cell (its thread may hang for ever) or
            # an exception out of the loop above (cells still running).
            if abandoned or active or self._executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
            else:
                self._executor = executor

        # Fold each executed benchmark's fleet-wide outcome into its
        # breaker; skipped benchmarks contribute no evidence.
        if cfg.breaker_failure_threshold is not None:
            for spec in specs:
                if modes[spec.name] == "skip":
                    continue
                executed = [by_cell[(node.node_id, spec.name)]
                            for node in nodes
                            if not by_cell[(node.node_id, spec.name)
                                           ].short_circuited]
                if not executed:
                    continue
                breaker = self.breaker_for(spec.name)
                breaker.record(all(not run.ok for run in executed))

        return SweepResult(runs=runs,
                           wall_seconds=time.monotonic() - sweep_start)

    def _execute(self, runner, task: _Task):
        backoff = self.config.backoff_seconds(task.attempt)
        if backoff > 0.0:
            time.sleep(backoff)
        # The deadline clock starts when the benchmark actually starts,
        # not when the cell was queued behind a busy pool.
        task.started_at[0] = time.monotonic()
        result = runner.run(task.spec, task.node)
        if self.sanitizer is not None:
            # Idempotent by provenance: windows the runner already
            # sanitized carry sanitized=True and pass through untouched,
            # so no window is ever schema-checked or quarantined twice.
            result = self.sanitizer.sanitize_result(task.spec, result)
        return result

    # ------------------------------------------------------------------
    # Validator-equivalent sweeps
    # ------------------------------------------------------------------
    def validate(self, validator: Validator, nodes,
                 benchmarks=None) -> tuple[ValidationReport, list[SweepResult]]:
        """Parallel equivalent of :meth:`Validator.validate`.

        Phase semantics are preserved exactly: single-node micro, then
        single-node end-to-end, then multi-node, with nodes flagged in
        an earlier phase excluded from later phases.  Scoring is per
        spec, as in the sequential engine: every remaining node's
        result of a sweep goes to one
        :meth:`~repro.core.validator.Validator.check_results` call.
        Violations are appended in the sequential engine's (benchmark,
        node, metric) order, so a fully-healthy parallel report is
        identical to a sequential one.  Cells that exhausted retries
        or timed out become ``execution-failure`` violations (defects
        by definition) carrying the node's SKU, like every other
        verdict.

        Cells short-circuited by an open breaker produce *no*
        violation -- an open breaker means the benchmark itself is
        suspect, and quarantining the fleet on its word would be the
        exact false-positive storm the breaker exists to stop.
        Benchmarks that never executed on any node are removed from
        ``benchmarks_run`` so coverage accounting stays honest.
        """
        selected = validator.resolve(benchmarks)
        report = ValidationReport(
            validated_nodes=[node.node_id for node in nodes],
            benchmarks_run=[spec.name for spec in selected],
        )
        sweeps: list[SweepResult] = []
        remaining = list(nodes)
        executed_benchmarks: set[str] = set()
        short_circuited_benchmarks: set[str] = set()
        for phase_specs in validator.execution_phases(selected):
            if not remaining:
                break
            sweep = self.run_benchmarks(phase_specs, remaining, validator.runner)
            sweeps.append(sweep)
            for spec in phase_specs:
                cells = [(node, sweep.run_for(node.node_id, spec.name))
                         for node in remaining]
                executed = [(node, run) for node, run in cells
                            if not run.short_circuited]
                if len(executed) < len(cells):
                    short_circuited_benchmarks.add(spec.name)
                if not executed:
                    continue
                executed_benchmarks.add(spec.name)
                scored: dict[str, list[Violation]] = {}
                for violation in validator.check_results(
                        spec, [run.result for _, run in executed if run.ok]):
                    scored.setdefault(violation.node_id, []).append(violation)
                for node, run in executed:
                    if run.ok:
                        report.violations.extend(scored.get(node.node_id, ()))
                        continue
                    for metric in spec.metrics:
                        report.violations.append(Violation(
                            node_id=node.node_id, benchmark=spec.name,
                            metric=metric.name, similarity=0.0,
                            reason=f"execution-failure: {run.error}",
                            sku=getattr(node, "sku", "unknown"),
                        ))
            flagged = set(report.defective_nodes)
            remaining = [n for n in remaining if n.node_id not in flagged]
        fully_skipped = short_circuited_benchmarks - executed_benchmarks
        report.benchmarks_run = [name for name in report.benchmarks_run
                                 if name not in fully_skipped]
        return report, sweeps
