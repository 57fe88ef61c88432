"""Benchmark abstractions and the synthetic measurement model.

A :class:`BenchmarkSpec` describes one entry of the paper's Table 2:
its phase (single-node vs. multi-node), kind (micro vs. end-to-end),
nominal duration, the hardware components it stresses, and one or more
:class:`MetricSpec` outputs.

Because no GPU fleet is available offline, running a benchmark samples
from a *measurement model* instead of executing kernels: the healthy
metric value is scaled by the node's component-health multiplier, then
perturbed by run-to-run variation, per-step noise and -- for
end-to-end benchmarks -- a warm-up transient plus a periodic
data-loading pattern.  The Validator only ever sees the emitted
samples, exactly as it would see real benchmark output.
"""

from __future__ import annotations

import enum
import functools
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.measurement import MetricWindow
from repro.exceptions import BenchmarkError
from repro.hardware.components import Component
from repro.hardware.node import Node
from repro.hardware.sku import performance_factor

__all__ = [
    "BenchmarkKind",
    "Phase",
    "MetricSpec",
    "E2eProfile",
    "BenchmarkSpec",
    "BenchmarkResult",
    "measure_metric",
    "run_benchmark",
]


class BenchmarkKind(str, enum.Enum):
    """Micro (component-wise) vs. end-to-end (workload) benchmark."""

    MICRO = "micro"
    E2E = "e2e"


class Phase(str, enum.Enum):
    """Execution phase (paper §4): single-node first, then multi-node."""

    SINGLE_NODE = "single-node"
    MULTI_NODE = "multi-node"


@dataclass(frozen=True)
class MetricSpec:
    """One measured metric of a benchmark.

    Attributes
    ----------
    name:
        Metric identifier, unique within the benchmark.
    unit:
        Display unit (GB/s, TFLOPS, samples/s, us, ...).
    higher_is_better:
        Polarity; latency-like metrics set this to False.
    base_value:
        Healthy-node mean.
    noise_cv:
        Per-step relative noise within one run.
    run_cv:
        Run-to-run relative variation (same node, repeated runs).
    node_cv:
        Stable cross-node variation of this metric (silicon lottery);
        the per-node factor is deterministic in the node id so repeated
        runs on one node see the same offset.
    series_length:
        Number of samples per run (1 for single-value micros).
    sensitivity:
        Component exponents; falls back to the benchmark-level map
        when empty.
    """

    name: str
    unit: str
    higher_is_better: bool = True
    base_value: float = 1.0
    noise_cv: float = 0.01
    run_cv: float = 0.004
    node_cv: float = 0.003
    series_length: int = 1
    sensitivity: dict[Component, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.base_value <= 0:
            raise BenchmarkError(f"metric {self.name!r} needs a positive base value")
        if self.series_length < 1:
            raise BenchmarkError(f"metric {self.name!r} needs series_length >= 1")


@dataclass(frozen=True)
class E2eProfile:
    """Shape of an end-to-end training-throughput series.

    Attributes
    ----------
    warmup_steps:
        True transient length: early steps ramp up as allocators and
        caches warm (this is what Appendix B's parameter search must
        discover and skip).
    period:
        Data-loading cycle length in steps.
    seasonal_amplitude:
        Relative amplitude of the periodic pattern.
    ramp_depth:
        How far below steady state the first step sits (0.3 = 30% low).
    """

    warmup_steps: int = 64
    period: int = 48
    seasonal_amplitude: float = 0.008
    ramp_depth: float = 0.35

    def shape(self, n_steps: int) -> np.ndarray:
        """Deterministic multiplicative shape of a run of ``n_steps``."""
        steps = np.arange(n_steps)
        ramp = 1.0 - self.ramp_depth * np.exp(-3.0 * steps / max(self.warmup_steps, 1))
        seasonal = 1.0 + self.seasonal_amplitude * np.sin(
            2.0 * np.pi * steps / max(self.period, 1)
        )
        return ramp * seasonal


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark of the validation set (one row of Table 2)."""

    name: str
    kind: BenchmarkKind
    phase: Phase
    duration_minutes: float
    sensitivity: dict[Component, float]
    metrics: tuple[MetricSpec, ...]
    e2e_profile: E2eProfile | None = None
    description: str = ""

    def __post_init__(self):
        if self.duration_minutes <= 0:
            raise BenchmarkError(f"benchmark {self.name!r} needs a positive duration")
        if not self.metrics:
            raise BenchmarkError(f"benchmark {self.name!r} declares no metrics")
        names = [m.name for m in self.metrics]
        if len(names) != len(set(names)):
            raise BenchmarkError(f"benchmark {self.name!r} has duplicate metric names")
        if self.kind is BenchmarkKind.E2E and self.e2e_profile is None:
            raise BenchmarkError(
                f"end-to-end benchmark {self.name!r} needs an e2e_profile"
            )

    def metric(self, name: str) -> MetricSpec:
        """Metric lookup by name."""
        for spec in self.metrics:
            if spec.name == name:
                return spec
        raise KeyError(f"benchmark {self.name!r} has no metric {name!r}")

    def metric_sensitivity(self, metric: MetricSpec) -> dict[Component, float]:
        """Effective sensitivity map for one metric."""
        return metric.sensitivity or self.sensitivity


class BenchmarkResult:
    """Output of one benchmark run on one node: a set of metric windows.

    Each metric is a :class:`~repro.core.measurement.MetricWindow`
    carrying its own provenance -- polarity, sanitization state,
    quarantine verdict, recorded faults -- so downstream layers read
    the verdict off the data instead of tracking it out-of-band.

    The dict-shaped constructor (``metrics=``/``quarantined=``) is the
    compatibility surface for callers that only have raw arrays; it
    wraps them into windows on the spot.  ``quarantined`` metrics'
    raw series stay readable for forensics, but the Validator must
    neither score nor learn from them.

    ``sku`` is the run's hardware-class provenance.  When ``windows=``
    are given and no explicit ``sku``, it is adopted from the first
    window; in dict mode it stamps every wrapped window, defaulting to
    the ``"unknown"`` bucket.
    """

    __slots__ = ("benchmark", "node_id", "sku", "windows")

    def __init__(self, benchmark: str, node_id: str,
                 metrics: dict[str, np.ndarray] | None = None,
                 quarantined: tuple[str, ...] = (), *,
                 windows: tuple[MetricWindow, ...] | None = None,
                 sku: str | None = None):
        self.benchmark = benchmark
        self.node_id = node_id
        if windows is not None:
            if metrics is not None:
                raise BenchmarkError(
                    "pass either metrics= or windows=, not both")
            self.windows = tuple(windows)
            if sku is None:
                sku = self.windows[0].sku if self.windows else "unknown"
        else:
            if sku is None:
                sku = "unknown"
            quarantined_set = set(quarantined)
            self.windows = tuple(
                MetricWindow(node_id=node_id, benchmark=benchmark,
                             metric=name, values=values, sku=sku,
                             quarantined=name in quarantined_set)
                for name, values in (metrics or {}).items())
        self.sku = sku

    def __repr__(self) -> str:
        return (f"BenchmarkResult(benchmark={self.benchmark!r}, "
                f"node_id={self.node_id!r}, "
                f"metrics={sorted(w.metric for w in self.windows)})")

    @property
    def metrics(self) -> dict[str, np.ndarray]:
        """Metric name -> raw sample array (window order preserved)."""
        return {window.metric: window.values for window in self.windows}

    @property
    def quarantined(self) -> tuple[str, ...]:
        """Names of metrics whose window supports no verdict."""
        return tuple(w.metric for w in self.windows if w.quarantined)

    @property
    def sanitized(self) -> bool:
        """True when every window crossed the sanitization layer."""
        return bool(self.windows) and all(w.sanitized for w in self.windows)

    def window(self, metric_name: str) -> MetricWindow:
        """The full provenance-carrying window for one metric."""
        for window in self.windows:
            if window.metric == metric_name:
                return window
        raise KeyError(
            f"run of {self.benchmark!r} has no metric {metric_name!r}")

    def sample(self, metric_name: str) -> np.ndarray:
        """Raw sample array for one metric."""
        return self.window(metric_name).values

    def with_windows(self,
                     windows: tuple[MetricWindow, ...]) -> "BenchmarkResult":
        """Same run identity, new windows (sanitization, corruption)."""
        return BenchmarkResult(benchmark=self.benchmark,
                               node_id=self.node_id, windows=tuple(windows),
                               sku=self.sku)


def _node_metric_factor(node: Node, spec: BenchmarkSpec, metric: MetricSpec) -> float:
    """Stable silicon-lottery factor for (node, benchmark, metric).

    Derived deterministically from the identifiers so the same node
    measures consistently across runs while different nodes spread by
    ``metric.node_cv`` -- the cross-node variability the paper cites as
    a criteria-learning challenge (§2.3).
    """
    return _lottery_factor(node.node_id, spec.name, metric.name,
                           metric.node_cv)


@functools.lru_cache(maxsize=None)
def _lottery_factor(node_id: str, benchmark: str, metric: str,
                    node_cv: float) -> float:
    """The factor as the pure function of its four inputs that it is.

    Memoised because seeding a generator to draw one number cost more
    than the rest of a scalar metric's measurement.  The cache holds one
    float per (node, suite metric) ever measured, so it is bounded by
    fleet size x suite metrics (~200 B an entry: about 1 MB for 128
    nodes x the full 44-metric suite), and never holds a node object.
    """
    if node_cv == 0.0:
        return 1.0
    key = f"{node_id}/{benchmark}/{metric}".encode()
    digest = zlib.crc32(key)  # stable across processes, unlike hash()
    draw = np.random.default_rng(digest).standard_normal()
    return 1.0 + node_cv * float(draw)


def measure_metric(spec: BenchmarkSpec, metric: MetricSpec, node: Node,
                   rng: np.random.Generator, *,
                   n_steps: int | None = None) -> np.ndarray:
    """Sample one metric of one benchmark on one node.

    The healthy value is scaled by the node's performance multiplier
    for the metric's component sensitivities, times the node's SKU
    throughput factor (1.0 for the baseline and unregistered classes);
    latency metrics divide instead of multiply so degradation always
    means "worse" and faster silicon always means "better".
    """
    length = _series_length(metric, n_steps)
    return _metric_series(spec, metric, node,
                          rng.standard_normal(1 + length), length, 0)


def _series_length(metric: MetricSpec, n_steps: int | None) -> int:
    length = int(n_steps) if n_steps is not None else metric.series_length
    if length < 1:
        raise BenchmarkError("n_steps must be at least 1")
    return length


@functools.lru_cache(maxsize=256)
def _e2e_shape(profile: E2eProfile, n_steps: int) -> np.ndarray:
    """:meth:`E2eProfile.shape`, computed once per (profile, length) and
    shared read-only by every run of that length."""
    shape = profile.shape(n_steps)
    shape.setflags(write=False)
    return shape


def _metric_series(spec: BenchmarkSpec, metric: MetricSpec, node: Node,
                   draws: np.ndarray, length: int, start: int) -> np.ndarray:
    """Steps ``start:length`` of one metric's run from its ``1 + length``
    standard normals: the run-factor draw, then the per-step noise.

    Every step is elementwise, so the steps before ``start`` (a
    measurement window's warm-up) are never built, and the kept ones
    equal the same slice of the full series bit for bit.
    """
    multiplier = node.performance_multiplier(spec.metric_sensitivity(metric))
    multiplier *= _node_metric_factor(node, spec, metric)
    multiplier *= performance_factor(node.sku)
    run_factor = 1.0 + metric.run_cv * float(draws[0])

    if metric.higher_is_better:
        level = metric.base_value * multiplier
    else:
        level = metric.base_value / max(multiplier, 1e-6)
    level *= max(run_factor, 0.01)

    if length == 1 and spec.e2e_profile is None:
        # The same IEEE operations as the array path, in float
        # arithmetic: a single-value metric skips four array calls.
        noise = 1.0 + metric.noise_cv * float(draws[1])
        return np.array([max(level * noise, 1e-9)])
    series = level * (1.0 + metric.noise_cv * draws[1 + start:1 + length])
    if spec.e2e_profile is not None and metric.higher_is_better:
        series = series * _e2e_shape(spec.e2e_profile, length)[start:]
    return np.maximum(series, 1e-9)


def run_benchmark(spec: BenchmarkSpec, node: Node, rng: np.random.Generator,
                  *, n_steps: int | None = None) -> BenchmarkResult:
    """Run (simulate) one benchmark on one node; all metrics sampled.

    Windows are born with their metric's true polarity, so Eq. (4)
    direction decisions downstream come from measurement provenance,
    not from re-looking-up the spec.
    """
    return _run_windowed(spec, node, rng, n_steps, 0)


def _run_windowed(spec: BenchmarkSpec, node: Node, rng: np.random.Generator,
                  n_steps: int | None, start: int) -> BenchmarkResult:
    """:func:`run_benchmark` keeping only steps ``start:`` of each series.

    One ``standard_normal`` call draws the whole run in the order the
    metrics would draw it one by one -- spec order, each metric's
    run-factor draw, then its noise -- so the windows are bit-identical
    to sampling each metric with :func:`measure_metric` and slicing.
    """
    lengths = [_series_length(metric, n_steps) for metric in spec.metrics]
    draws = rng.standard_normal(len(lengths) + sum(lengths))
    windows = []
    offset = 0
    for metric, length in zip(spec.metrics, lengths):
        values = _metric_series(spec, metric, node,
                                draws[offset:offset + 1 + length], length, start)
        offset += 1 + length
        windows.append(MetricWindow(
            node_id=node.node_id, benchmark=spec.name, metric=metric.name,
            values=values, higher_is_better=metric.higher_is_better,
            sku=node.sku))
    return BenchmarkResult(benchmark=spec.name, node_id=node.node_id,
                           windows=tuple(windows), sku=node.sku)
