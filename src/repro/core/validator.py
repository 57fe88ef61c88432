"""The Validator (paper §3.4, §4): criteria learning and defect filtering.

The Validator owns two responsibilities:

* **Offline criteria learning** -- during cluster build-out the full
  benchmark set runs on every node and Algorithm 2 learns one criteria
  sample per (sku, benchmark, metric): each hardware class gets its
  own criteria namespace, because an H100's "normal" throughput is an
  A100's anomaly.
* **Online defect filtering** -- a later validation run compares each
  node's result to its own SKU's criteria with the one-sided
  similarity of Eq. (4); a node is defective as soon as *any* selected
  benchmark metric falls below the threshold.  Benchmark executions
  that fail outright (empty/NaN samples) are defects by definition,
  and a window can never be scored against another SKU's criteria --
  that raises :class:`~repro.exceptions.SkuMismatchError` instead of
  mis-scoring.

Execution follows the paper's two-phase, bottom-up order: single-node
micro-benchmarks, single-node end-to-end, then multi-node -- with
defective nodes removed after each phase so they cannot pollute
multi-node results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.benchsuite.base import BenchmarkKind, BenchmarkSpec, Phase
from repro.benchsuite.runner import SuiteRunner
from repro.core.backend import get_backend
from repro.core.criteria import CriteriaResult, learn_criteria
from repro.core.incremental import (
    CriteriaState,
    IncrementalConfig,
    learn_criteria_incremental,
)
from repro.core.measurement import (
    NONFINITE_REJECT,
    MeasurementBatch,
    PipelineStats,
)
from repro.exceptions import CriteriaError, InvalidSampleError, SkuMismatchError
from repro.core.ecdf import as_sample

__all__ = ["MetricCriteria", "Violation", "ValidationReport", "Validator"]

# Ceiling on elements per stacked scoring operand (~32 MB of float64),
# the same bound fastdist puts on its one-vs-many intermediates.
_SCORE_BLOCK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class MetricCriteria:
    """Learned criteria for one benchmark metric in one SKU namespace."""

    benchmark: str
    metric: str
    criteria: object  # 1-D sample array
    alpha: float
    higher_is_better: bool
    learning: CriteriaResult | None = None
    sku: str = "unknown"


@dataclass(frozen=True)
class Violation:
    """One criteria violation on one node.

    ``sku`` is the verdict's criteria provenance: the namespace whose
    criteria the window was scored against, which -- by the isolation
    invariant -- always equals the window's own SKU.
    """

    node_id: str
    benchmark: str
    metric: str
    similarity: float
    reason: str = "below-threshold"
    sku: str = "unknown"


@dataclass
class ValidationReport:
    """Outcome of one validation run."""

    validated_nodes: list[str]
    violations: list[Violation] = field(default_factory=list)
    benchmarks_run: list[str] = field(default_factory=list)

    @property
    def defective_nodes(self) -> list[str]:
        """Node ids with at least one violation, in first-seen order."""
        return list(dict.fromkeys(v.node_id for v in self.violations))

    @property
    def healthy_nodes(self) -> list[str]:
        """Validated nodes with no violation."""
        defective = set(self.defective_nodes)
        return [n for n in self.validated_nodes if n not in defective]

    def violations_by_benchmark(self) -> dict[str, set[str]]:
        """Benchmark name -> set of node ids it flagged."""
        result: dict[str, set[str]] = {}
        for violation in self.violations:
            result.setdefault(violation.benchmark, set()).add(violation.node_id)
        return result


class Validator:
    """Runs benchmarks against criteria and filters defective nodes.

    Parameters
    ----------
    suite:
        The benchmark specs this Validator can execute.
    runner:
        Execution engine (owns measurement windows and the RNG).
    alpha:
        Similarity threshold; the paper uses 0.95.
    contamination:
        Fraction of learning windows assumed adversarially corrupt;
        forwarded to :func:`repro.core.criteria.learn_criteria` as the
        trimmed-aggregation budget.  0 (the default) reproduces plain
        Algorithm 2.
    incremental:
        When set, criteria learning routes through the incremental
        engine (:func:`repro.core.incremental.learn_criteria_incremental`)
        with this config: sketches + landmark medoids for large fleets
        and the classic exact path at or below ``exact_below``.
        ``None`` (the default) keeps every learn on the exact
        Algorithm 2 path.
    """

    def __init__(self, suite: tuple[BenchmarkSpec, ...], *,
                 runner: SuiteRunner | None = None, alpha: float = 0.95,
                 centroid: str = "hybrid", contamination: float = 0.0,
                 incremental: IncrementalConfig | None = None):
        if not suite:
            raise ValueError("Validator needs a non-empty benchmark suite")
        self.suite = tuple(suite)
        self.runner = runner or SuiteRunner()
        self.alpha = float(alpha)
        self.centroid = centroid
        self.contamination = float(contamination)
        self.incremental = incremental
        self.criteria: dict[tuple[str, str, str], MetricCriteria] = {}
        # Per (sku, benchmark, metric): which engine path the last
        # learn took and its seconds.  Only populated when
        # ``incremental`` is set.
        self.criteria_states: dict[tuple[str, str, str], CriteriaState] = {}
        # Keys whose next learn is pinned to the exact path -- the
        # control plane adds a key here when the rollout gate rejects
        # an (approximate) candidate, and the pin is consumed by that
        # next learn.
        self._force_exact: set[tuple[str, str, str]] = set()
        # Per-stage counters/timings of this Validator's learn/score
        # work; merged with the runner's execute/sanitize stages by
        # Anubis.pipeline_stats().
        self.stats = PipelineStats()
        # (sku, benchmark, metric) -> (MetricCriteria, presorted
        # sample).  Entries are validated by *identity* against the
        # live ``criteria`` dict, so any re-learn or persistence reload
        # (which replace the MetricCriteria object) invalidates them
        # without coordination.
        self._criteria_cache: dict[tuple[str, str, str],
                                   tuple[MetricCriteria, np.ndarray]] = {}

    def spec(self, name: str) -> BenchmarkSpec:
        """Suite lookup by benchmark name."""
        for candidate in self.suite:
            if candidate.name == name:
                return candidate
        raise KeyError(f"benchmark {name!r} is not in this Validator's suite")

    # ------------------------------------------------------------------
    # Offline criteria learning
    # ------------------------------------------------------------------
    def _learning_tasks(self, spec: BenchmarkSpec, results: dict[str, object]):
        """Per-(sku, metric) (sku, metric, samples, centroid, policy) inputs.

        Results are first partitioned by SKU -- each hardware class
        learns its own criteria namespace -- then each group's windows
        for one metric are collected into a
        :class:`~repro.core.measurement.MeasurementBatch`, which is
        where the dirty-telemetry handling now lives: metrics
        quarantined by sanitization are skipped (no verdict, nothing
        to learn from), as are crashed (empty) and hung
        (all-non-finite) windows -- those evict the node online, they
        don't shape the fleet's criteria.  The batch also resolves the
        non-finite policy from provenance: fully sanitized batches
        learn under ``"reject"`` (sanitization already removed
        non-finite values), raw batches under ``"mask"`` so a node's
        surviving finite values still contribute instead of one stray
        NaN silently dropping the whole node from the learning set.
        """
        tasks = []
        groups: dict[str, list] = {}
        for result in results.values():
            groups.setdefault(getattr(result, "sku", "unknown"),
                              []).append(result)
        for sku in sorted(groups):
            for metric in spec.metrics:
                batch = MeasurementBatch.from_results(
                    groups[sku], benchmark=spec.name, metric=metric.name,
                    higher_is_better=metric.higher_is_better, sku=sku)
                usable = [w for w in batch.scoreable()
                          if w.values.size and np.isfinite(w.values).any()]
                if len(usable) < 2:
                    raise CriteriaError(
                        f"not enough valid samples to learn criteria for "
                        f"{sku}/{spec.name}/{metric.name}"
                    )
                learn_batch = MeasurementBatch(
                    benchmark=spec.name, metric=metric.name,
                    windows=tuple(usable),
                    higher_is_better=metric.higher_is_better, sku=sku)
                samples = learn_batch.samples()
                # Single-value metrics compare cleanest against a single
                # representative value (the medoid); series metrics use
                # the configured centroid (pooled by default) whose
                # smoother CDF keeps the one-sided filter's left tail
                # quiet.
                is_series = any(np.size(s) > 1 for s in samples)
                centroid = self.centroid if is_series else "medoid"
                tasks.append((sku, metric, samples, centroid,
                              learn_batch.nonfinite_policy))
        return tasks

    def _store_criteria(self, spec: BenchmarkSpec, metric,
                        learned: CriteriaResult,
                        state: CriteriaState | None = None,
                        sku: str = "unknown") -> None:
        key = (sku, spec.name, metric.name)
        self._criteria_cache.pop(key, None)
        self.criteria[key] = MetricCriteria(
            benchmark=spec.name,
            metric=metric.name,
            criteria=learned.criteria,
            alpha=self.alpha,
            higher_is_better=metric.higher_is_better,
            learning=learned,
            sku=sku,
        )
        if state is not None:
            self.criteria_states[key] = state
            self._force_exact.discard(key)
            # Per-path learn accounting: "learn-exact" and "learn-full"
            # show up as distinct pipeline stages so `repro report`
            # exposes where learn time actually goes.
            # ``state.seconds`` is measured inside the learn itself.
            self.stats.record(f"learn-{state.path}", count=1,
                              seconds=state.seconds)

    def invalidate_criteria_state(self, key: tuple[str, str, str]) -> None:
        """Forget ``key``'s last learn path and pin its next learn.

        Called by the control plane when the rollout gate rejects a
        candidate: the next learn for this (sku, benchmark, metric)
        runs on the exact Algorithm 2 path regardless of fleet size.
        The pin is per-namespace: rejecting one SKU's candidate never
        touches a sibling SKU's state.
        """
        self.criteria_states.pop(key, None)
        self._force_exact.add(key)

    def _learn_key(self, sku: str, spec: BenchmarkSpec, metric, samples,
                   centroid, policy: str) -> None:
        """Learn and store one (sku, benchmark, metric) key's criteria.

        With the incremental engine, a key pinned by
        :meth:`invalidate_criteria_state` learns exactly and every other
        key takes the engine's size-based ladder.
        """
        backend = get_backend(policy)
        if self.incremental is None:
            learned = learn_criteria(samples, self.alpha, centroid=centroid,
                                     contamination=self.contamination,
                                     backend=backend)
            state = None
        else:
            key = (sku, spec.name, metric.name)
            learned, state = learn_criteria_incremental(
                samples, self.alpha, centroid=centroid,
                contamination=self.contamination, backend=backend,
                config=self.incremental,
                mode="exact" if key in self._force_exact else "auto")
        self._store_criteria(spec, metric, learned, state, sku=sku)

    def learn_criteria_from_results(self, spec: BenchmarkSpec,
                                    results: dict[str, object]) -> None:
        """Learn criteria for one benchmark from node -> result samples.

        ``results`` maps node id to a :class:`BenchmarkResult`; nodes
        whose samples are invalid are skipped for learning (they will
        be flagged online).
        """
        with self.stats.timed("learn"):
            for sku, metric, *task in self._learning_tasks(spec, results):
                self._learn_key(sku, spec, metric, *task)

    def learn_criteria(self, nodes,
                       benchmarks=None) -> dict[tuple[str, str, str], list]:
        """Build-out flow: run benchmarks on ``nodes`` and learn criteria.

        Every benchmark runs first, then each (sku, benchmark, metric)
        key learns in turn (see :meth:`_learn_key`).

        Returns the per-(sku, benchmark, metric) learning windows so
        callers can shadow-evaluate the freshly learned criteria
        against the very samples they came from (guarded rollout,
        :mod:`repro.quality.rollout`).
        """
        tasks = []
        for spec in self.resolve(benchmarks):
            results = self.runner.run_on_nodes(spec, nodes)
            for sku, metric, samples, centroid, policy in self._learning_tasks(
                    spec, results):
                tasks.append((sku, spec, metric, samples, centroid, policy))
        windows: dict[tuple[str, str, str], list] = {}
        with self.stats.timed("learn"):
            for sku, spec, metric, samples, centroid, policy in tasks:
                self._learn_key(sku, spec, metric, samples, centroid, policy)
                windows[(sku, spec.name, metric.name)] = samples
        return windows

    # ------------------------------------------------------------------
    # Online validation
    # ------------------------------------------------------------------
    def _criteria_reference(self, key: tuple[str, str, str],
                            criteria: MetricCriteria) -> np.ndarray:
        """The criteria sample validated and sorted, cached until the
        criteria changes -- scoring never validates it again."""
        cached = self._criteria_cache.get(key)
        if cached is not None and cached[0] is criteria:
            return cached[1]
        reference = np.sort(as_sample(criteria.criteria))
        self._criteria_cache[key] = (criteria, reference)
        return reference

    def check_result(self, spec: BenchmarkSpec, result) -> list[Violation]:
        """Compare one node's benchmark result to the learned criteria."""
        return self.check_results(spec, [result])

    def check_results(self, spec: BenchmarkSpec, results) -> list[Violation]:
        """Compare many nodes' results for one benchmark to the
        criteria: a :meth:`check_sweep` of that one spec."""
        return self.check_sweep([(spec, results)])

    def check_sweep(self, sweep) -> list[Violation]:
        """Score a whole phase -- ``[(spec, results), ...]`` -- in one pass.

        Every scoreable (spec, result, metric) window is validated once
        and paired with its own SKU namespace's cached criteria
        reference; the pairs of *all* the phase's specs are then
        grouped by (window length, reference length, polarity) and
        each group is scored by one call of the row-wise kernel (Eq. 4,
        a different reference per row) -- so a call costs as many
        kernel invocations as the phase has window shapes, however
        many specs, nodes, metrics and SKUs it covers.  Violations come
        back in (benchmark, node, metric) order: the order a loop of
        :meth:`check_result` over the specs, then the results, would
        produce.  Scoring a group against criteria stored under the
        wrong namespace raises :class:`~repro.exceptions.SkuMismatchError`
        and a namespace with no criteria raises
        :class:`~repro.exceptions.CriteriaError` -- a wrong verdict is
        never an acceptable fallback.

        Metrics quarantined by the sanitization layer yield *no*
        verdict: quarantined telemetry indicts the measurement
        pipeline, not the node, so scoring it either way would be a
        coin-flip eviction.
        """
        started = time.perf_counter()
        sweep = [(spec, list(results)) for spec, results in sweep]
        backend = get_backend(NONFINITE_REJECT)
        # Both keyed (spec position, result index, metric name).
        similarities: dict[tuple[int, int, str], float] = {}
        failures: dict[tuple[int, int, str], str] = {}
        # (window length, reference length, polarity) -> the rows of
        # that shape: (cell, validated window, sorted reference).
        shapes: dict[tuple[int, int, int], list[tuple]] = {}
        for position, (spec, results) in enumerate(sweep):
            groups: dict[str, list[int]] = {}
            for index, result in enumerate(results):
                groups.setdefault(getattr(result, "sku", "unknown"),
                                  []).append(index)
            for metric in spec.metrics:
                for sku in sorted(groups):
                    key = (sku, spec.name, metric.name)
                    if key not in self.criteria:
                        raise CriteriaError(
                            f"no criteria learned for "
                            f"{sku}/{spec.name}/{metric.name}"
                        )
                    criteria = self.criteria[key]
                    if criteria.sku != sku:
                        # The namespace key and the stored provenance
                        # disagree (a mis-filed criteria object);
                        # scoring would silently judge one class by
                        # another's normal.
                        raise SkuMismatchError(
                            f"criteria stored under SKU namespace {sku!r} "
                            f"carry provenance {criteria.sku!r} for "
                            f"{spec.name}/{metric.name}")
                    reference = self._criteria_reference(key, criteria)
                    direction = +1 if criteria.higher_is_better else -1
                    for index in groups[sku]:
                        result = results[index]
                        if metric.name in getattr(result, "quarantined", ()):
                            continue
                        cell = (position, index, metric.name)
                        try:
                            # Scoring stays strictly per-window: an empty
                            # or non-finite online sample is an execution
                            # failure (a defect by definition), never
                            # maskable.
                            sample = as_sample(result.sample(metric.name))
                        except (InvalidSampleError, KeyError) as error:
                            failures[cell] = str(error)
                            continue
                        shapes.setdefault(
                            (sample.size, reference.size, direction), [],
                        ).append((cell, sample, reference))
        for (width, reference_width, direction), rows in shapes.items():
            # One kernel call per shape, in row blocks only when a
            # fleet-sized batch meets a fleet-pooled reference.
            block = max(1, _SCORE_BLOCK_ELEMENTS // (width + reference_width))
            for start in range(0, len(rows), block):
                cells, samples, references = zip(*rows[start:start + block])
                sims = backend.rowwise_similarities(
                    np.sort(np.array(samples), axis=1), np.array(references),
                    signed_direction=direction, assume_sorted=True)
                similarities.update(zip(cells, sims.tolist()))

        violations = []
        for position, (spec, results) in enumerate(sweep):
            for index, result in enumerate(results):
                sku = getattr(result, "sku", "unknown")
                for metric in spec.metrics:
                    cell = (position, index, metric.name)
                    if cell in failures:
                        violations.append(Violation(
                            node_id=result.node_id, benchmark=spec.name,
                            metric=metric.name, similarity=0.0,
                            reason=f"execution-failure: {failures[cell]}",
                            sku=sku,
                        ))
                    elif (cell in similarities
                          and similarities[cell] <= self.alpha):
                        violations.append(Violation(
                            node_id=result.node_id, benchmark=spec.name,
                            metric=metric.name, similarity=similarities[cell],
                            sku=sku,
                        ))
        self.stats.record(
            "score", count=sum(len(results) * len(spec.metrics)
                               for spec, results in sweep),
            seconds=time.perf_counter() - started)
        return violations

    def validate(self, nodes, benchmarks=None) -> ValidationReport:
        """Run the selected benchmarks on ``nodes`` and filter defects.

        Benchmarks execute phase by phase (single-node micro, then
        single-node end-to-end, then multi-node) and nodes flagged in
        an earlier phase are excluded from later phases, matching the
        paper's §4 execution order.  Each phase is scored by one
        :meth:`check_sweep` call once all of its benchmarks have run.
        """
        selected = self.resolve(benchmarks)
        report = ValidationReport(
            validated_nodes=[node.node_id for node in nodes],
            benchmarks_run=[spec.name for spec in selected],
        )
        remaining = list(nodes)
        for phase_specs in self.execution_phases(selected):
            report.violations.extend(self.check_sweep(
                [(spec, [self.runner.run(spec, node) for node in remaining])
                 for spec in phase_specs]))
            flagged = set(report.defective_nodes)
            remaining = [node for node in remaining if node.node_id not in flagged]
        return report

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def resolve(self, benchmarks) -> tuple[BenchmarkSpec, ...]:
        """Resolve names/specs (or ``None`` = full suite) to specs."""
        if benchmarks is None:
            return self.suite
        resolved = []
        for item in benchmarks:
            resolved.append(item if isinstance(item, BenchmarkSpec)
                            else self.spec(item))
        return tuple(resolved)

    @staticmethod
    def execution_phases(specs) -> list[list[BenchmarkSpec]]:
        """Bucket specs into execution phases in bottom-up order.

        Public so alternative execution engines (the service pool) can
        reproduce the exact phase semantics of :meth:`validate`.
        """
        single_micro = [s for s in specs
                        if s.phase is Phase.SINGLE_NODE
                        and s.kind is BenchmarkKind.MICRO]
        single_e2e = [s for s in specs
                      if s.phase is Phase.SINGLE_NODE and s.kind is BenchmarkKind.E2E]
        multi = [s for s in specs if s.phase is Phase.MULTI_NODE]
        return [bucket for bucket in (single_micro, single_e2e, multi) if bucket]
