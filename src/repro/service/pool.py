"""Parallel benchmark execution with timeouts, retries and isolation.

The synchronous :class:`~repro.core.validator.Validator` runs one
benchmark on one node at a time; a fleet sweep is a long serial loop
and a single hung execution stalls everything behind it.
:class:`ValidationPool` fans the same work out across a thread pool,
one unit of work per node, with five operational guarantees:

* **one benchmark per node at a time** -- a node's runnable benchmarks
  of a sweep run in spec order on one worker thread, so two benchmarks
  never share a node's GPUs and NICs at once and contaminate each
  other's windows (the paper runs a node's set one after another);
* **per-benchmark timeouts** -- a benchmark that exceeds its deadline,
  measured from its own start, is abandoned together with the task
  running it, and the node resumes on a new task: at the same
  benchmark while attempts are left, else at the next one with the
  hung cell recorded as an execution failure; the sweep keeps going;
* **bounded retries with exponential backoff** -- transient crashes
  (raised exceptions) are retried in place, up to ``max_attempts``
  times;
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

Python threads cannot be killed, so a timed-out benchmark's thread
keeps running in the background until its benchmark returns; the pool
stops waiting for it, and when it wakes it records nothing and starts
none of the node's later benchmarks -- the node's new task owns them.
The executor is kept from one sweep to
the next -- starting threads per sweep costs more than a cheap sweep's
benchmarks do, and on a machine with busy cores a new thread waits for
a time slice where an idle one is woken in place -- and is dropped by
any sweep that abandoned a cell or did not finish, so abandoned threads
never occupy a later sweep's workers.  :meth:`ValidationPool.close`
releases the idle threads.
"""

from __future__ import annotations

import enum
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from repro.benchsuite.base import BenchmarkResult
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
        Thread-pool width: how many nodes a sweep validates at once
        (each node's benchmarks run one after another on one thread).
        Every caller sets it -- ``serve --workers``, a process worker's
        ``pool`` spec -- so no environment variable is read.
    benchmark_timeout_seconds:
        Deadline for one (node, benchmark) execution, measured from
        the moment it starts on a worker; must be positive, ``None``
        disables timeouts.
    max_attempts:
        Total tries per execution (1 = no retries).
    backoff_base_seconds / backoff_multiplier:
        Retry *i* (i >= 2) sleeps ``base * multiplier**(i - 2)``
        before re-running.
    sweep_timeout_seconds:
        Hard deadline for a whole sweep; every unfinished execution,
        started or not, is abandoned as timed out when it passes.
        Guards the pathological case of every worker hanging at once.
        ``None`` disables it.  When set, it must be positive and at
        least ``benchmark_timeout_seconds`` --
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

    max_workers: int = 8
    benchmark_timeout_seconds: float | None = 30.0
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    sweep_timeout_seconds: float | None = None
    poll_interval_seconds: float = 0.02
    breaker_failure_threshold: int | None = None
    breaker_cooldown_sweeps: int = 1

    def __post_init__(self):
        if self.max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        # A zero or negative deadline expires every started cell on the
        # first scan (and costs each sweep its executor); the values can
        # arrive from a worker spec, so they are checked here.
        for name in ("benchmark_timeout_seconds", "sweep_timeout_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ServiceError(f"{name} must be positive or None")
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
        return list(dict.fromkeys(run.node_id for run in self.failed_runs))


@dataclass
class _NodeTask:
    """One node's runnable cells of a sweep, run in order from ``position``.

    The worker thread advances ``position`` / ``attempt`` and holds
    ``started_at`` while a benchmark runs; the coordinator sets
    ``abandoned``.  Both write under the sweep's lock, so recording a
    cell's outcome and giving up on the task exclude each other.
    """

    node: object
    cells: list            # [(spec, BenchmarkRun)] in spec order
    position: int
    attempt: int
    started_at: float | None = None
    abandoned: bool = False


class ValidationPool:
    """Parallel fleet-sweep engine reusing a Validator's policy.

    ``sanitizer`` (a :class:`repro.quality.Sanitizer`) is the pool's
    own ingestion guard: every result is passed through it, and the
    windows' ``sanitized`` provenance flag makes the pass idempotent --
    windows a runner-side sanitizer already cleaned flow through
    untouched, so every window leaving a sweep crossed the
    sanitization layer exactly once no matter which runner produced it.
    A result the runner sanitized whole comes back as the same object:
    the pool's pass then costs a flag check per window.
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
        """Run every benchmark in ``specs`` on every node, the nodes in
        parallel and each node's benchmarks in spec order on one thread.

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
        lock = threading.Lock()
        abandoned = False
        active: dict = {}

        def submit(node, cells, position, attempt):
            if position < len(cells):
                task = _NodeTask(node, cells, position, attempt)
                future = executor.submit(self._run_node, runner, task, lock,
                                         sweep_start)
                active[future] = task

        try:
            for node in nodes:
                submit(node, [(spec, by_cell[(node.node_id, spec.name)])
                              for spec in specs if runnable(spec, node)],
                       position=0, attempt=1)

            while active:
                done, _ = wait(list(active), timeout=cfg.poll_interval_seconds,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    del active[future]
                    future.result()   # cell failures are recorded, not raised
                now = time.monotonic()
                sweep_expired = (
                    cfg.sweep_timeout_seconds is not None
                    and now - sweep_start > cfg.sweep_timeout_seconds
                )
                # Deadline scan: abandon a task whose benchmark started
                # too long ago (the thread itself cannot be killed) and
                # resume its node on a new task.
                with lock:
                    for future, task in list(active.items()):
                        started = task.started_at
                        expired = (
                            cfg.benchmark_timeout_seconds is not None
                            and started is not None
                            and now - started > cfg.benchmark_timeout_seconds
                        )
                        if not expired and not sweep_expired:
                            continue
                        del active[future]
                        future.cancel()
                        task.abandoned = True
                        abandoned = True
                        if sweep_expired:
                            unfinished = task.cells[task.position:]
                            error = (f"sweep timeout after "
                                     f"{cfg.sweep_timeout_seconds}s")
                        elif task.attempt < cfg.max_attempts:
                            submit(task.node, task.cells, task.position,
                                   task.attempt + 1)
                            continue
                        else:
                            unfinished = [task.cells[task.position]]
                            error = (f"timeout after "
                                     f"{cfg.benchmark_timeout_seconds}s")
                            submit(task.node, task.cells, task.position + 1,
                                   attempt=1)
                        for _spec, run in unfinished:
                            run.timed_out = True
                            run.error = error
                            run.wall_seconds = now - sweep_start
        finally:
            # Keep the executor only if every thread in it is idle: not
            # after abandoning a task (its thread may hang for ever) or
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

    def _run_node(self, runner, task: _NodeTask, lock, sweep_start: float):
        """Run ``task``'s cells in spec order on this thread, retrying a
        raising cell in place.

        Outcomes are recorded under ``lock`` and only while the task is
        not abandoned: a thread the coordinator gave up on records
        nothing when its benchmark finally returns and starts no later
        cell, which the node's new task owns -- two benchmarks on one
        node at once would contaminate both windows.
        """
        cfg = self.config
        while task.position < len(task.cells):
            spec, run = task.cells[task.position]
            backoff = cfg.backoff_seconds(task.attempt)
            if backoff > 0.0:
                time.sleep(backoff)
            with lock:
                if task.abandoned:
                    return
                run.attempts = task.attempt
                # The deadline clock starts when the benchmark actually
                # starts, not when the node was queued behind a busy
                # pool or slept out a backoff.
                task.started_at = time.monotonic()
            error = None
            try:
                result = runner.run(spec, task.node)
                if self.sanitizer is not None:
                    # Idempotent by provenance: windows the runner
                    # already sanitized carry sanitized=True and pass
                    # through untouched, so no window is ever
                    # schema-checked or quarantined twice (and a fully
                    # sanitized result is returned as it came).
                    result = self.sanitizer.sanitize_result(spec, result)
            except Exception as exc:   # recorded on the cell, never raised
                # Only the text is kept: the exception's traceback holds
                # this frame, and the cycle would keep the pool and its
                # threads alive until a garbage collection.
                result, error = None, f"{type(exc).__name__}: {exc}"
            with lock:
                if task.abandoned:
                    return
                task.started_at = None
                if error is not None and task.attempt < cfg.max_attempts:
                    task.attempt += 1
                    continue
                run.result, run.error = result, error
                run.wall_seconds = time.monotonic() - sweep_start
                task.position += 1
                task.attempt = 1

    # ------------------------------------------------------------------
    # Validator-equivalent sweeps
    # ------------------------------------------------------------------
    def validate(self, validator: Validator, nodes,
                 benchmarks=None) -> tuple[ValidationReport, list[SweepResult]]:
        """Parallel equivalent of :meth:`Validator.validate`.

        Phase semantics are preserved exactly: single-node micro, then
        single-node end-to-end, then multi-node, with nodes flagged in
        an earlier phase excluded from later phases.  Scoring is per
        phase, as in the sequential engine: every successful result of
        a sweep, for every spec that executed, goes to one
        :meth:`~repro.core.validator.Validator.check_sweep` call, and a
        phase that executed nothing is not scored.  Violations are
        appended in the sequential engine's (benchmark, node, metric)
        order, so a fully-healthy parallel report is identical to a
        sequential one.  Cells that exhausted retries or timed out
        become ``execution-failure`` violations (defects by definition)
        carrying the node's SKU, like every other verdict, in their
        node's place among the scored ones.

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
            # (spec, [(node, run)]) for every spec that ran on a node.
            phase: list[tuple] = []
            for spec in phase_specs:
                cells = [(node, sweep.run_for(node.node_id, spec.name))
                         for node in remaining]
                executed = [(node, run) for node, run in cells
                            if not run.short_circuited]
                if len(executed) < len(cells):
                    short_circuited_benchmarks.add(spec.name)
                if executed:
                    executed_benchmarks.add(spec.name)
                    phase.append((spec, executed))
            scored: dict[tuple[str, str], list[Violation]] = {}
            if phase:
                for violation in validator.check_sweep(
                        [(spec, [run.result for _, run in executed if run.ok])
                         for spec, executed in phase]):
                    scored.setdefault((violation.benchmark, violation.node_id),
                                      []).append(violation)
            for spec, executed in phase:
                for node, run in executed:
                    if run.ok:
                        report.violations.extend(
                            scored.get((spec.name, node.node_id), ()))
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
