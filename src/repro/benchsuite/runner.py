"""Benchmark execution over fleets.

:class:`SuiteRunner` drives benchmarks against (simulated) nodes the
same way the Validator drives them against VMs: per node, per
benchmark, producing :class:`~repro.benchsuite.base.BenchmarkResult`
objects.  It also implements the measurement-window policy for
end-to-end benchmarks -- dropping warm-up steps and keeping a bounded
measurement window -- which is where Appendix B's tuned parameters
plug in.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.benchsuite.base import (
    BenchmarkKind,
    BenchmarkResult,
    BenchmarkSpec,
    _run_windowed,
    run_benchmark,
)
from repro.core.measurement import PipelineStats
from repro.exceptions import BenchmarkError
from repro.hardware.node import Node

__all__ = ["StepWindow", "SuiteRunner"]


@dataclass(frozen=True)
class StepWindow:
    """Measurement window for an end-to-end benchmark.

    ``warmup`` steps are discarded and the following ``measure`` steps
    are kept -- the (w, n) parameters of Appendix B.
    """

    warmup: int
    measure: int

    def __post_init__(self):
        if self.warmup < 0 or self.measure < 1:
            raise BenchmarkError(
                f"invalid step window (warmup={self.warmup}, measure={self.measure})"
            )

    @property
    def total_steps(self) -> int:
        """Steps that must be executed to fill this window."""
        return self.warmup + self.measure

    def apply(self, series: np.ndarray) -> np.ndarray:
        """Slice a raw step series down to the measurement window."""
        if series.size < self.total_steps:
            raise BenchmarkError(
                f"series of {series.size} steps is shorter than window "
                f"({self.warmup}+{self.measure})"
            )
        return series[self.warmup:self.total_steps]


class SuiteRunner:
    """Executes benchmarks on nodes with optional per-benchmark windows.

    Measurement noise is drawn from a *per-(node, benchmark) child
    stream* derived from the seed, the node id, the benchmark name and
    a per-pair repeat counter -- never from one shared stream.  A
    node's result therefore does not depend on how many other nodes
    ran before it: sequential sweeps, reordered sweeps and parallel
    sweeps (see :mod:`repro.service.pool`) produce bit-identical
    results, while repeated runs on one node still vary run-to-run.

    Parameters
    ----------
    seed:
        Root seed for the measurement-noise streams.
    windows:
        Benchmark name -> :class:`StepWindow`; end-to-end benchmarks
        without an entry run their default series length and keep all
        steps after the spec's nominal warm-up.
    sanitizer:
        Optional :class:`repro.quality.Sanitizer`.  When set, every
        result passes through telemetry sanitization before leaving
        :meth:`run` -- implausible values are quarantined with
        provenance instead of flowing into verdicts.
    stats:
        A :class:`~repro.core.measurement.PipelineStats` instance fed
        with per-stage execute/sanitize counters and timings; shared
        with the Validator's facade for ``pipeline_stats()``.
    """

    def __init__(self, *, seed: int = 0,
                 windows: dict[str, StepWindow] | None = None,
                 sanitizer=None, stats: PipelineStats | None = None):
        self.seed = int(seed)
        self.windows = dict(windows or {})
        self.sanitizer = sanitizer
        self.stats = stats if stats is not None else PipelineStats()
        self._repeat_counts: dict[tuple[str, str], int] = {}

    def _measurement_rng(self, spec: BenchmarkSpec,
                         node: Node) -> np.random.Generator:
        """Child generator for one (node, benchmark) execution.

        The entropy is keyed on stable identifiers (crc32, like the
        silicon-lottery factor in :mod:`repro.benchsuite.base`) plus a
        repeat counter, so the i-th run of a benchmark on a node draws
        the same noise no matter which other (node, benchmark) pairs
        ran before or concurrently.
        """
        key = (node.node_id, spec.name)
        repeat = self._repeat_counts.get(key, 0)
        self._repeat_counts[key] = repeat + 1
        entropy = (self.seed,
                   zlib.crc32(node.node_id.encode()),
                   zlib.crc32(spec.name.encode()),
                   repeat)
        if all(0 <= value < 1 << 32 for value in entropy):
            # The words SeedSequence reads such a tuple as -- one uint32
            # per int -- handed over ready: the same stream, without
            # the per-int coercion that was half of seeding a run.
            entropy = np.array(entropy, dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def reset_streams(self) -> None:
        """Forget repeat counters: the next run of every (node,
        benchmark) pair draws its first-run noise again."""
        self._repeat_counts.clear()

    def set_window(self, benchmark_name: str, window: StepWindow) -> None:
        """Install a tuned measurement window for one benchmark."""
        self.windows[benchmark_name] = window

    def window_for(self, spec: BenchmarkSpec) -> StepWindow | None:
        """Effective measurement window for one benchmark.

        Tuned windows take precedence; otherwise end-to-end benchmarks
        get a conservative default that discards twice the nominal
        warm-up transient (validation must never compare warm-up steps
        against criteria -- §3.4's repeatability guideline 1) and keeps
        the remaining steps.  Micro-benchmarks run unwindowed.
        """
        if spec.name in self.windows:
            return self.windows[spec.name]
        if spec.kind is not BenchmarkKind.E2E or spec.e2e_profile is None:
            return None
        total = max(m.series_length for m in spec.metrics)
        warmup = min(2 * spec.e2e_profile.warmup_steps, total - 1)
        return StepWindow(warmup=warmup, measure=total - warmup)

    def _execute(self, spec: BenchmarkSpec, node: Node) -> BenchmarkResult:
        """Raw execution of one benchmark, window policy applied.

        An end-to-end benchmark draws its whole window's steps and keeps
        the measured ones; the warm-up is never built into a window.
        Subclasses that corrupt executions (fault injection) override
        this, not :meth:`run`, so their corruption happens *before*
        sanitization -- exactly where real telemetry faults originate.
        """
        window = self.window_for(spec)
        rng = self._measurement_rng(spec, node)
        if spec.kind is BenchmarkKind.E2E and window is not None:
            return _run_windowed(spec, node, rng, window.total_steps,
                                 window.warmup)
        return run_benchmark(spec, node, rng)

    def run(self, spec: BenchmarkSpec, node: Node) -> BenchmarkResult:
        """One benchmark on one node: execute, then sanitize.

        Each stage's time goes to :attr:`stats` -- execute's even when
        it raises -- read off one clock.
        """
        start = time.perf_counter()
        try:
            result = self._execute(spec, node)
        finally:
            executed = time.perf_counter()
            self.stats.record("execute", seconds=executed - start)
        if self.sanitizer is not None:
            try:
                result = self.sanitizer.sanitize_result(spec, result)
            finally:
                self.stats.record("sanitize",
                                  seconds=time.perf_counter() - executed)
        return result

    def run_on_nodes(self, spec: BenchmarkSpec, nodes) -> dict[str, BenchmarkResult]:
        """One benchmark across many nodes; node id -> result."""
        return {node.node_id: self.run(spec, node) for node in nodes}

    def run_repeated(self, spec: BenchmarkSpec, node: Node,
                     repeats: int) -> list[BenchmarkResult]:
        """Repeated runs on one node (repeatability measurements)."""
        if repeats < 1:
            raise BenchmarkError("repeats must be at least 1")
        return [self.run(spec, node) for _ in range(repeats)]

    def duration_minutes(self, spec: BenchmarkSpec) -> float:
        """Wall-clock cost of one run, shrunk by a tuned window.

        An end-to-end benchmark's cost scales with the number of steps
        actually executed relative to its default series length.
        """
        window = self.window_for(spec)
        if spec.kind is BenchmarkKind.E2E and window is not None:
            default_steps = max(m.series_length for m in spec.metrics)
            scale = window.total_steps / default_steps
            return spec.duration_minutes * min(scale, 1.0)
        return spec.duration_minutes
