"""Unit tests: the parallel validation pool (timeouts, retries,
sequential equivalence)."""

import threading
import time
from dataclasses import dataclass

import pytest

from repro.benchsuite.runner import SuiteRunner
from repro.benchsuite.suite import full_suite
from repro.core.validator import Validator
from repro.exceptions import ServiceError
from repro.hardware.fleet import build_fleet
from repro.service import (
    BreakerState,
    CircuitBreaker,
    PoolConfig,
    ValidationPool,
)


@dataclass(frozen=True)
class FakeSpec:
    name: str


@dataclass(frozen=True)
class FakeNode:
    node_id: str


class ScriptedRunner:
    """Fake runner: fails / hangs per (node, benchmark) as scripted."""

    def __init__(self, *, fail_times=None, hang=None, hang_seconds=5.0):
        self.fail_times = dict(fail_times or {})  # cell -> failures left
        self.hang = set(hang or ())
        self.hang_seconds = hang_seconds
        self.calls = []
        self._lock = threading.Lock()

    def run(self, spec, node):
        cell = (node.node_id, spec.name)
        with self._lock:
            self.calls.append(cell)
            failures_left = self.fail_times.get(cell, 0)
            if failures_left > 0:
                self.fail_times[cell] = failures_left - 1
        if failures_left > 0:
            raise RuntimeError(f"transient fault on {cell}")
        if cell in self.hang:
            time.sleep(self.hang_seconds)
        return f"result:{node.node_id}:{spec.name}"


SPECS = [FakeSpec("bench-a"), FakeSpec("bench-b")]
NODES = [FakeNode(f"n{i}") for i in range(4)]


def fast_config(**overrides):
    defaults = dict(max_workers=4, benchmark_timeout_seconds=0.25,
                    max_attempts=3, backoff_base_seconds=0.0,
                    poll_interval_seconds=0.01)
    defaults.update(overrides)
    return PoolConfig(**defaults)


class TestPoolConfig:
    def test_backoff_schedule(self):
        config = PoolConfig(backoff_base_seconds=0.1, backoff_multiplier=3.0)
        assert config.backoff_seconds(1) == 0.0
        assert config.backoff_seconds(2) == pytest.approx(0.1)
        assert config.backoff_seconds(3) == pytest.approx(0.3)
        assert config.backoff_seconds(4) == pytest.approx(0.9)

    @pytest.mark.parametrize("kwargs", [
        {"max_workers": 0},
        {"max_attempts": 0},
        {"backoff_base_seconds": -1.0},
        {"backoff_multiplier": 0.5},
        {"poll_interval_seconds": 0.0},
        {"poll_interval_seconds": -0.01},
        {"sweep_timeout_seconds": 1.0, "benchmark_timeout_seconds": 2.0},
        {"breaker_failure_threshold": 0},
        {"breaker_cooldown_sweeps": 0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            PoolConfig(**kwargs)

    def test_sweep_timeout_at_least_benchmark_timeout_accepted(self):
        config = PoolConfig(benchmark_timeout_seconds=2.0,
                            sweep_timeout_seconds=2.0)
        assert config.sweep_timeout_seconds == 2.0


class TestRunBenchmarks:
    def test_all_cells_succeed(self):
        runner = ScriptedRunner()
        sweep = ValidationPool(fast_config()).run_benchmarks(
            SPECS, NODES, runner)
        assert len(sweep.runs) == len(SPECS) * len(NODES)
        for run in sweep.runs:
            assert run.ok and run.attempts == 1 and not run.timed_out
            assert run.result == f"result:{run.node_id}:{run.benchmark}"
        assert sweep.failed_runs == []

    def test_transient_failure_is_retried(self):
        runner = ScriptedRunner(fail_times={("n0", "bench-a"): 2})
        sweep = ValidationPool(fast_config()).run_benchmarks(
            SPECS, NODES, runner)
        run = sweep.run_for("n0", "bench-a")
        assert run.ok and run.attempts == 3

    def test_exhausted_retries_recorded_not_raised(self):
        runner = ScriptedRunner(fail_times={("n0", "bench-a"): 99})
        sweep = ValidationPool(fast_config(max_attempts=2)).run_benchmarks(
            SPECS, NODES, runner)
        run = sweep.run_for("n0", "bench-a")
        assert not run.ok and run.attempts == 2
        assert "transient fault" in run.error
        assert sweep.failed_node_ids == ["n0"]

    def test_crash_isolation(self):
        runner = ScriptedRunner(fail_times={("n1", "bench-b"): 99})
        sweep = ValidationPool(fast_config(max_attempts=1)).run_benchmarks(
            SPECS, NODES, runner)
        others = [r for r in sweep.runs
                  if (r.node_id, r.benchmark) != ("n1", "bench-b")]
        assert all(r.ok for r in others)

    def test_hang_times_out_and_sweep_completes(self):
        runner = ScriptedRunner(hang={("n2", "bench-a")}, hang_seconds=5.0)
        start = time.monotonic()
        sweep = ValidationPool(fast_config(max_attempts=1)).run_benchmarks(
            SPECS, NODES, runner)
        elapsed = time.monotonic() - start
        hung = sweep.run_for("n2", "bench-a")
        assert hung.timed_out and not hung.ok
        assert "timeout" in hung.error
        assert elapsed < 4.0  # did not wait out the 5 s hang
        others = [r for r in sweep.runs
                  if (r.node_id, r.benchmark) != ("n2", "bench-a")]
        assert all(r.ok for r in others)


class TestExecutorKeptBetweenSweeps:
    """Thread starts are counted, not timed: a clean sweep leaves its
    executor for the next, a sweep that abandoned a cell does not."""

    @pytest.fixture
    def thread_starts(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        return started

    def test_clean_sweeps_start_threads_once(self, thread_starts):
        pool = ValidationPool(fast_config(max_workers=2))
        runner = ScriptedRunner()
        pool.run_benchmarks(SPECS, NODES, runner)
        after_first = len(thread_starts)
        assert 1 <= after_first <= 2
        for _ in range(20):
            sweep = pool.run_benchmarks(SPECS, NODES, runner)
            assert all(run.ok for run in sweep.runs)
        assert len(thread_starts) <= 2
        pool.close()

    def test_hung_thread_never_serves_a_later_sweep(self, thread_starts):
        pool = ValidationPool(fast_config(max_workers=1, max_attempts=1))
        hang = ScriptedRunner(hang={("n0", "bench-a")}, hang_seconds=1.5)
        sweep = pool.run_benchmarks(SPECS[:1], NODES[:1], hang)
        assert sweep.run_for("n0", "bench-a").timed_out
        assert pool._executor is None
        # The only worker of the abandoned executor is still asleep;
        # the next sweep must not queue behind it.
        start = time.monotonic()
        sweep = pool.run_benchmarks(SPECS, NODES, ScriptedRunner())
        assert all(run.ok for run in sweep.runs)
        assert time.monotonic() - start < 1.0
        assert len(thread_starts) == 2
        pool.close()

    def test_exception_out_of_a_sweep_drops_the_executor(self, monkeypatch):
        pool = ValidationPool(fast_config(max_workers=1, max_attempts=1))
        pool.run_benchmarks(SPECS, NODES, ScriptedRunner())
        kept = pool._executor
        assert kept is not None

        class Interrupted(BaseException):
            pass

        def interrupted_wait(*args, **kwargs):
            raise Interrupted()

        with monkeypatch.context() as patch:
            patch.setattr("repro.service.pool.wait", interrupted_wait)
            with pytest.raises(Interrupted):
                pool.run_benchmarks(SPECS, NODES, ScriptedRunner())
        assert pool._executor is None
        with pytest.raises(RuntimeError):       # it was shut down
            kept.submit(lambda: None)
        assert all(run.ok for run in pool.run_benchmarks(
            SPECS, NODES, ScriptedRunner()).runs)
        pool.close()

    def test_close_releases_threads_and_pool_stays_usable(self):
        before = threading.active_count()
        pools = [ValidationPool(fast_config(max_workers=2))
                 for _ in range(50)]
        for pool in pools:
            pool.run_benchmarks(SPECS, NODES[:2], ScriptedRunner())
            pool.close()
            pool.close()    # idempotent
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() == before
        sweep = pools[0].run_benchmarks(SPECS, NODES, ScriptedRunner())
        assert all(run.ok for run in sweep.runs)
        pools[0].close()


class TestCircuitBreaker:
    def test_exact_transition_sequence(self):
        """CLOSED -(2 failures)-> OPEN -(cooldown)-> HALF_OPEN
        -(probe fails)-> OPEN -(cooldown)-> HALF_OPEN -(probe ok)->
        CLOSED, with the exact reasons in order."""
        breaker = CircuitBreaker("b", failure_threshold=2, cooldown_sweeps=1)
        assert breaker.before_sweep() == "run"
        breaker.record(True)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.before_sweep() == "run"
        breaker.record(True)
        assert breaker.state is BreakerState.OPEN
        assert breaker.before_sweep() == "probe"   # cooldown of 1 elapsed
        breaker.record(True)
        assert breaker.state is BreakerState.OPEN
        assert breaker.before_sweep() == "probe"
        breaker.record(False)
        assert breaker.state is BreakerState.CLOSED
        assert [(t.old.value, t.new.value, t.reason)
                for t in breaker.transitions] == [
            ("closed", "open", "failure-threshold"),
            ("open", "half-open", "cooldown-elapsed"),
            ("half-open", "open", "probe-failed"),
            ("open", "half-open", "cooldown-elapsed"),
            ("half-open", "closed", "probe-succeeded"),
        ]

    def test_open_breaker_skips_for_cooldown_sweeps(self):
        breaker = CircuitBreaker("b", failure_threshold=1, cooldown_sweeps=3)
        assert breaker.before_sweep() == "run"
        breaker.record(True)
        assert breaker.state is BreakerState.OPEN
        assert breaker.before_sweep() == "skip"
        assert breaker.before_sweep() == "skip"
        assert breaker.before_sweep() == "probe"

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("b", failure_threshold=2, cooldown_sweeps=1)
        breaker.record(True)
        breaker.record(False)
        breaker.record(True)
        assert breaker.state is BreakerState.CLOSED

    def breaker_pool(self, **overrides):
        return ValidationPool(fast_config(
            max_attempts=1, breaker_failure_threshold=2,
            breaker_cooldown_sweeps=1, **overrides))

    def all_a_cells_fail(self):
        return ScriptedRunner(fail_times={
            (node.node_id, "bench-a"): 99 for node in NODES})

    def test_fleet_wide_failure_opens_and_probes(self):
        pool = self.breaker_pool()
        runner = self.all_a_cells_fail()

        # Two fleet-wide failing sweeps open bench-a's breaker; bench-b
        # (passing everywhere) stays closed.
        for _ in range(2):
            sweep = pool.run_benchmarks(SPECS, NODES, runner)
            assert all(not sweep.run_for(n.node_id, "bench-a").ok
                       for n in NODES)
        assert pool.breakers["bench-a"].state is BreakerState.OPEN
        assert pool.breakers["bench-b"].state is BreakerState.CLOSED

        # Next sweep half-opens: one probe cell executes (and fails),
        # every other bench-a cell is short-circuited, bench-b runs.
        sweep = pool.run_benchmarks(SPECS, NODES, runner)
        probe = sweep.run_for(NODES[0].node_id, "bench-a")
        assert not probe.ok and not probe.short_circuited
        short = sweep.short_circuited_runs
        assert {(r.node_id, r.benchmark) for r in short} == {
            (n.node_id, "bench-a") for n in NODES[1:]}
        assert all(r.error == "circuit-open" for r in short)
        assert short[0] not in sweep.failed_runs
        assert pool.breakers["bench-a"].state is BreakerState.OPEN

        # Heal the benchmark: the next probe succeeds and closes the
        # breaker; the sweep after runs everything again.
        runner.fail_times.clear()
        sweep = pool.run_benchmarks(SPECS, NODES, runner)
        assert sweep.run_for(NODES[0].node_id, "bench-a").ok
        assert pool.breakers["bench-a"].state is BreakerState.CLOSED
        sweep = pool.run_benchmarks(SPECS, NODES, runner)
        assert all(r.ok for r in sweep.runs)

    def test_single_node_failure_is_not_fleet_wide(self):
        pool = self.breaker_pool()
        runner = ScriptedRunner(fail_times={("n0", "bench-a"): 99})
        for _ in range(3):
            pool.run_benchmarks(SPECS, NODES, runner)
        assert pool.breakers["bench-a"].state is BreakerState.CLOSED

    def test_breakers_disabled_by_default(self):
        pool = ValidationPool(fast_config(max_attempts=1))
        pool.run_benchmarks(SPECS, NODES, self.all_a_cells_fail())
        assert pool.breakers == {}
        assert pool.breaker_for("bench-a") is None

    def test_breaker_transitions_grouped_by_benchmark(self):
        pool = self.breaker_pool()
        runner = ScriptedRunner(fail_times={
            (node.node_id, spec.name): 99
            for node in NODES for spec in SPECS})
        for _ in range(2):
            pool.run_benchmarks(SPECS, NODES, runner)
        transitions = pool.breaker_transitions()
        assert [t.benchmark for t in transitions] == ["bench-a", "bench-b"]
        assert all(t.new is BreakerState.OPEN for t in transitions)


class TestShortCircuitedValidate:
    def test_open_breaker_produces_no_violations(self):
        """A benchmark broken fleet-wide trips its breaker; the next
        validate() short-circuits it with no violations and drops it
        from benchmarks_run -- the breaker exists so a harness
        regression cannot quarantine the fleet."""
        fleet = build_fleet(6, seed=3)
        suite = full_suite()
        broken = suite[0].name

        class BrokenBenchmarkRunner(SuiteRunner):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                self.healed = True  # healthy while criteria are learned

            def run(self, spec, node):
                if spec.name == broken and not self.healed:
                    raise RuntimeError("harness regression")
                return super().run(spec, node)

        runner = BrokenBenchmarkRunner(seed=7)
        validator = Validator(suite, runner=runner)
        validator.learn_criteria(fleet.nodes[:4])
        runner.healed = False  # the regression ships
        pool = ValidationPool(PoolConfig(
            max_workers=4, benchmark_timeout_seconds=None, max_attempts=1,
            poll_interval_seconds=0.01, breaker_failure_threshold=1,
            breaker_cooldown_sweeps=1))

        # Sweep 1: the broken benchmark fails fleet-wide -- executed
        # cells still yield execution-failure violations -- and the
        # breaker opens.
        report, _ = pool.validate(validator, fleet.nodes, [broken])
        assert all(v.benchmark == broken for v in report.violations)
        assert pool.breakers[broken].state is BreakerState.OPEN

        # Sweep 2 (still broken, half-open probe fails): only the
        # probe cell may produce violations; short-circuited cells
        # produce none, and the never-executed benchmark would be
        # dropped from benchmarks_run if nothing ran.
        report, sweeps = pool.validate(validator, fleet.nodes, [broken])
        violating = {v.node_id for v in report.violations}
        assert violating <= {fleet.nodes[0].node_id}
        assert len(sweeps[0].short_circuited_runs) == len(fleet.nodes) - 1


@pytest.fixture(scope="module")
def parallel_vs_sequential():
    """Two validators with identical criteria: one driven sequentially,
    one through the pool."""
    fleet = build_fleet(16, seed=3)
    suite = full_suite()
    sequential = Validator(suite, runner=SuiteRunner(seed=7))
    parallel = Validator(suite, runner=SuiteRunner(seed=7))
    sequential.learn_criteria(fleet.nodes[:8])
    parallel.learn_criteria(fleet.nodes[:8])
    return fleet, sequential, parallel


def violation_tuples(report, node_ids=None):
    return [(v.node_id, v.benchmark, v.metric, v.similarity, v.reason)
            for v in report.violations
            if node_ids is None or v.node_id in node_ids]


class TestSequentialEquivalence:
    def test_parallel_report_is_bit_identical(self, parallel_vs_sequential):
        fleet, sequential, parallel = parallel_vs_sequential
        expected = sequential.validate(fleet.nodes)
        pool = ValidationPool(PoolConfig(max_workers=8,
                                         benchmark_timeout_seconds=None))
        actual, sweeps = pool.validate(parallel, fleet.nodes)
        assert actual.validated_nodes == expected.validated_nodes
        assert actual.benchmarks_run == expected.benchmarks_run
        assert violation_tuples(actual) == violation_tuples(expected)
        assert actual.defective_nodes == expected.defective_nodes
        assert sweeps and all(not s.failed_runs for s in sweeps)


class TestScoringPerSpec:
    def test_validate_scores_each_executed_spec_once_per_sweep(self):
        """Scoring is by the spec, not by the cell: every remaining
        node's result of a sweep reaches check_results in one call, a
        failed cell's violations land in node order between them, and
        short-circuited cells are not scored at all."""
        fleet = build_fleet(6, seed=3)
        suite = full_suite()
        micro, second, e2e = (
            suite[0], suite[1],
            next(spec for spec in suite if spec.kind.value == "e2e"))
        crashing = fleet.nodes[2].node_id

        class CrashingRunner(SuiteRunner):
            def run(self, spec, node):
                if (node.node_id, spec.name) == (crashing, micro.name):
                    raise RuntimeError("crashed")
                return super().run(spec, node)

        validator = Validator(suite, runner=CrashingRunner(seed=7))
        validator.learn_criteria(
            [node for node in fleet.nodes if node.node_id != crashing],
            benchmarks=[micro, second, e2e])
        validator.alpha = 2.0   # every scored window becomes a violation
        calls = []
        score = validator.check_results

        def counting(spec, results):
            calls.append((spec.name, [r.node_id for r in results]))
            return score(spec, results)

        validator.check_results = counting
        pool = ValidationPool(PoolConfig(
            max_workers=4, benchmark_timeout_seconds=None, max_attempts=1,
            breaker_failure_threshold=1))
        pool.breaker_for(second.name).record(True)    # open: probes next
        nodes = fleet.nodes[:4]
        report, sweeps = pool.validate(validator, nodes,
                                       [micro, second, e2e])

        ids = [node.node_id for node in nodes]
        # One micro sweep: the three nodes that ran ``micro`` are scored
        # together, the half-open ``second`` is scored on its one probe
        # node, and with everyone flagged (alpha = 2) the e2e phase
        # never starts.
        assert calls == [(micro.name, [i for i in ids if i != crashing]),
                         (second.name, ids[:1])]
        assert len(sweeps) == 1
        assert [(v.benchmark, v.node_id) for v in report.violations] == (
            [(micro.name, i) for i in ids for _ in micro.metrics]
            + [(second.name, ids[0]) for _ in second.metrics])
        crashed = [v for v in report.violations if v.node_id == crashing]
        assert all("execution-failure" in v.reason for v in crashed)


class HangingSuiteRunner(SuiteRunner):
    """Real runner that hangs on one (node, benchmark) cell."""

    def __init__(self, hang_node, hang_benchmark, hang_seconds=5.0, **kwargs):
        super().__init__(**kwargs)
        self.hang_node = hang_node
        self.hang_benchmark = hang_benchmark
        self.hang_seconds = hang_seconds

    def run(self, spec, node):
        if (node.node_id == self.hang_node
                and spec.name == self.hang_benchmark):
            time.sleep(self.hang_seconds)
        return super().run(spec, node)


class TestHangingBenchmarkSweep:
    def test_sixteen_node_sweep_survives_one_hung_node(self):
        """Acceptance flow: inject a hang into a 16-node sweep; the
        sweep completes, the hung node is flagged, and every healthy
        node's results are bit-identical to the sequential engine's."""
        fleet = build_fleet(16, seed=3)
        suite = full_suite()
        hang_node = fleet.nodes[12].node_id

        sequential = Validator(suite, runner=SuiteRunner(seed=7))
        sequential.learn_criteria(fleet.nodes[:8])
        expected = sequential.validate(fleet.nodes)

        hung_runner = HangingSuiteRunner(hang_node, suite[0].name,
                                         hang_seconds=5.0, seed=7)
        parallel = Validator(suite, runner=hung_runner)
        parallel.learn_criteria(fleet.nodes[:8])
        pool = ValidationPool(PoolConfig(
            max_workers=8, benchmark_timeout_seconds=0.5, max_attempts=1,
            poll_interval_seconds=0.01))
        start = time.monotonic()
        actual, _sweeps = pool.validate(parallel, fleet.nodes)
        assert time.monotonic() - start < 30.0  # sweep completed

        assert hang_node in actual.defective_nodes
        hung_violations = [v for v in actual.violations
                           if v.node_id == hang_node]
        assert any("execution-failure" in v.reason for v in hung_violations)

        healthy = (set(expected.validated_nodes)
                   - set(expected.defective_nodes)
                   - set(actual.defective_nodes))
        assert len(healthy) >= 8
        assert (violation_tuples(actual, healthy)
                == violation_tuples(expected, healthy))
