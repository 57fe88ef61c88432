"""Tracked perf-bench harness for the vectorized ECDF distance kernels.

Measures the scalar reference implementations against the batched
``repro.core.fastdist`` kernels across fleet sizes and writes the results
to ``BENCH_core.json``.  Three workloads are timed per fleet size:

* ``pairwise``    -- full N x N similarity matrix (Eq. 2 of the paper),
* ``one_vs_many`` -- online-filter scoring of N windows against a single
  learned reference sample (Eq. 3/4),
* ``learn``       -- end-to-end ``learn_criteria`` on the fleet.

A separate *learn-scaling* sweep (``--learn-sizes``) compares the exact
``learn_criteria`` against the incremental engine
(``repro.core.incremental``) on fleets with planted defects: the full
sketch+coreset learn and -- up to ``--learn-exact-max`` nodes -- the
exact learn itself.  Whenever the exact path runs, the sweep *asserts* that
both engines produce the identical defect set and that the maximum
similarity deviation stays inside the sketch ``distance_bound``; a
violation fails the run.

Before timing anything the harness runs a randomized equivalence sweep:
every vectorized path (compiled C merge kernel, NumPy Abel-summation
kernel, general ragged kernel, one-vs-many in both directions) is checked
against the scalar reference and the run aborts with a non-zero exit code
if any deviation exceeds ``--tolerance`` (default 1e-9).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_core.py --out BENCH_core.json

CI runs the small smoke configuration::

    PYTHONPATH=src python benchmarks/perf/bench_core.py \
        --sizes 64 --repeats 1 --out BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import numpy as np  # noqa: E402

from repro.core import _cmerge, fastdist  # noqa: E402
from repro.core.backend import pairwise_similarity_matrix  # noqa: E402
from repro.core.criteria import learn_criteria  # noqa: E402
from repro.core.distance import (  # noqa: E402
    one_sided_similarity,
    pairwise_similarity_matrix_reference,
    similarity,
)
from repro.core.fastdist import (  # noqa: E402
    SortedSampleBatch,
    batch_gap_integrals,
    one_vs_many_similarities,
    pairwise_similarities,
)
from repro.core.incremental import (  # noqa: E402
    IncrementalConfig,
    learn_criteria_incremental,
)
from repro.core.sketch import distance_bound  # noqa: E402


def make_fleet(rng: np.random.Generator, nodes: int, window: int) -> np.ndarray:
    """Synthetic fleet: healthy cluster with mild per-node offsets."""

    offsets = rng.normal(0.0, 0.5, size=(nodes, 1))
    return 100.0 + offsets + rng.normal(0.0, 2.0, size=(nodes, window))


def best_of(fn, repeats: int) -> float:
    fn()  # warmup
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Equivalence sweep
# ---------------------------------------------------------------------------


def _uniform_numpy_matrix(samples) -> np.ndarray:
    """Pairwise similarities forced through the NumPy Abel-table path."""

    batch = SortedSampleBatch.from_samples(samples)
    integrals = fastdist._pairwise_integrals_uniform(batch.data)
    out = fastdist._normalize(
        integrals,
        batch.mins[:, None], batch.maxs[:, None],
        batch.mins[None, :], batch.maxs[None, :],
    )
    np.fill_diagonal(out, 0.0)
    return 1.0 - out


def _uniform_c_matrix(samples) -> np.ndarray | None:
    """Pairwise similarities forced through the compiled merge kernel."""

    batch = SortedSampleBatch.from_samples(samples)
    integrals = fastdist._pairwise_integrals_uniform_c(batch.data)
    if integrals is None:
        return None
    out = fastdist._normalize(
        integrals,
        batch.mins[:, None], batch.maxs[:, None],
        batch.mins[None, :], batch.maxs[None, :],
    )
    np.fill_diagonal(out, 0.0)
    return 1.0 - out


def _equivalence_cases(rng: np.random.Generator):
    yield "normal", [rng.normal(100, 2, size=40) for _ in range(6)]
    yield "duplicate_heavy", [
        np.round(rng.normal(50, 1, size=30), 0) for _ in range(5)
    ]
    yield "negative", [rng.normal(-10, 3, size=25) for _ in range(5)]
    yield "all_identical", [np.full(12, 7.5) for _ in range(4)]
    yield "single_value", [np.array([float(v)]) for v in rng.normal(5, 1, 4)]
    yield "ragged", [
        rng.normal(20, 2, size=int(n)) for n in rng.integers(1, 40, size=6)
    ]


def run_equivalence(tolerance: float) -> dict:
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = {}
    for name, samples in _equivalence_cases(rng):
        reference = pairwise_similarity_matrix_reference(samples)
        deviations = {
            "dispatch": float(
                np.max(np.abs(pairwise_similarity_matrix(samples) - reference))
            )
        }
        sizes = {len(np.asarray(s)) for s in samples}
        if len(sizes) == 1:
            deviations["numpy_abel"] = float(
                np.max(np.abs(_uniform_numpy_matrix(samples) - reference))
            )
            c_matrix = _uniform_c_matrix(samples)
            if c_matrix is not None:
                deviations["c_kernel"] = float(
                    np.max(np.abs(c_matrix - reference))
                )

        # One-vs-many (both orientations) against the first sample.
        batch = SortedSampleBatch.from_samples(samples)
        ref_sample = np.sort(np.asarray(samples[0], dtype=float))
        for label, direction in (
            ("two_sided", 0), ("higher_better", 1), ("lower_better", -1),
        ):
            got = one_vs_many_similarities(
                batch, ref_sample, signed_direction=direction,
                assume_sorted=True,
            )
            if direction == 0:
                want = np.array(
                    [similarity(s, ref_sample) for s in samples]
                )
            else:
                want = np.array([
                    one_sided_similarity(
                        s, ref_sample, higher_is_better=direction > 0
                    )
                    for s in samples
                ])
            deviations[f"one_vs_many_{label}"] = float(
                np.max(np.abs(got - want))
            )

        # Row-wise batch kernel on adjacent pairs.
        if batch.n >= 2:
            left = batch.take(np.arange(batch.n - 1))
            right = batch.take(np.arange(1, batch.n))
            got = 1.0 - batch_gap_integrals(left, right)
            want = np.array([
                similarity(samples[i], samples[i + 1])
                for i in range(batch.n - 1)
            ])
            deviations["batch_rowwise"] = float(np.max(np.abs(got - want)))

        cases[name] = deviations
        worst = max(worst, *deviations.values())
    return {"max_deviation": worst, "tolerance": tolerance, "cases": cases}


# ---------------------------------------------------------------------------
# Timings
# ---------------------------------------------------------------------------


def bench_size(
    nodes: int, window: int, repeats: int, scalar_max: int
) -> dict:
    rng = np.random.default_rng(nodes)
    fleet = make_fleet(rng, nodes, window)
    samples = [fleet[i] for i in range(nodes)]
    batch = SortedSampleBatch.from_samples(samples)
    reference = np.sort(fleet[0])

    entry: dict = {"nodes": nodes, "window": window}

    vec_pairwise = best_of(
        lambda: pairwise_similarities(batch), repeats
    )
    vec_one = best_of(
        lambda: one_vs_many_similarities(
            batch, reference, signed_direction=1, assume_sorted=True
        ),
        repeats,
    )
    learn = best_of(
        lambda: learn_criteria(samples, 0.95, centroid="hybrid"), repeats
    )
    entry["pairwise"] = {"vectorized_s": vec_pairwise}
    entry["one_vs_many"] = {"vectorized_s": vec_one}
    entry["learn_criteria"] = {"vectorized_s": learn}

    if nodes <= scalar_max:
        scalar_pairwise = best_of(
            lambda: pairwise_similarity_matrix_reference(samples),
            max(1, repeats // 2),
        )
        scalar_one = best_of(
            lambda: [
                one_sided_similarity(s, reference, higher_is_better=True)
                for s in samples
            ],
            max(1, repeats // 2),
        )
        entry["pairwise"]["scalar_s"] = scalar_pairwise
        entry["pairwise"]["speedup"] = scalar_pairwise / vec_pairwise
        entry["one_vs_many"]["scalar_s"] = scalar_one
        entry["one_vs_many"]["speedup"] = scalar_one / vec_one
    return entry


def make_defective_fleet(
    rng: np.random.Generator, nodes: int, window: int
) -> np.ndarray:
    """Healthy fleet with ~1% planted defective nodes (shifted -20)."""

    fleet = make_fleet(rng, nodes, window)
    stride = max(nodes // max(nodes // 100, 1), 1)
    fleet[::stride] -= 20.0
    return fleet


def bench_learn_scaling(
    nodes: int, window: int, repeats: int, exact_max: int
) -> dict:
    """Exact vs incremental learn on one fleet size, with deviation gate."""

    rng = np.random.default_rng(nodes + 1)
    fleet = make_defective_fleet(rng, nodes, window)
    samples = [fleet[i] for i in range(nodes)]
    # exact_below=32 keeps even the CI smoke size on the sketch path,
    # so the approximation is what gets timed and gated everywhere.
    config = IncrementalConfig(exact_below=32)
    bound = distance_bound(config.sketch_size)

    entry: dict = {"nodes": nodes, "window": window}

    full_s = best_of(
        lambda: learn_criteria_incremental(
            samples, 0.95, centroid="hybrid", config=config), repeats)
    result, _ = learn_criteria_incremental(
        samples, 0.95, centroid="hybrid", config=config)
    entry["incremental"] = {
        "full_s": full_s,
        "sketch_size": config.sketch_size,
    }

    if nodes <= exact_max:
        exact_s = best_of(
            lambda: learn_criteria(samples, 0.95, centroid="hybrid"),
            max(1, repeats // 2))
        exact = learn_criteria(samples, 0.95, centroid="hybrid")
        exact_sims = np.asarray(exact.similarities)
        sim_dev = float(np.max(np.abs(
            np.asarray(result.similarities) - exact_sims)))
        criteria_dev = 1.0 - similarity(
            np.sort(np.asarray(result.criteria)),
            np.sort(np.asarray(exact.criteria)))
        # The engine's contract: verdicts agree wherever the exact
        # similarity is more than the sketch bound away from alpha;
        # windows *inside* the band are legitimately ambiguous (both
        # engines adjudicate them within measurement error of the
        # threshold), so they are counted, not gated.
        decisive = np.abs(exact_sims - 0.95) > bound
        inc_defects = set(result.defect_indices)
        exact_defects = set(exact.defect_indices)
        disagreements = inc_defects ^ exact_defects
        decisive_disagreements = sorted(
            i for i in disagreements if decisive[i])
        entry["exact"] = {"exact_s": exact_s, "speedup": exact_s / full_s}
        entry["deviation"] = {
            "max_similarity_deviation": sim_dev,
            "criteria_deviation": float(criteria_dev),
            "bound": bound,
            "borderline_disagreements": len(disagreements),
        }
        if decisive_disagreements:
            raise AssertionError(
                f"learn-scaling verdict mismatch at {nodes} nodes on "
                f"decisively-classified windows {decisive_disagreements} "
                f"(incremental={sorted(inc_defects)} "
                f"exact={sorted(exact_defects)})")
        if not disagreements and (sim_dev > bound or criteria_dev > bound):
            raise AssertionError(
                f"learn-scaling deviation {max(sim_dev, criteria_dev):.4f} "
                f"exceeds the sketch bound {bound:.4f} at {nodes} nodes")
    return entry


#: The mixed-fleet composition and per-class performance factors used
#: by the mixed-SKU leg (mirrors ``repro.hardware.sku.SKU_REGISTRY``).
_SKU_MIX = (("A100", 0.5, 1.0), ("H100", 0.3, 2.2), ("MI250X", 0.2, 1.4))


def make_mixed_fleet(
    rng: np.random.Generator, nodes: int, window: int
) -> dict[str, np.ndarray]:
    """3-SKU fleet: per-class baselines with ~1% planted defects each."""

    groups: dict[str, np.ndarray] = {}
    remaining = nodes
    for index, (sku, fraction, factor) in enumerate(_SKU_MIX):
        count = (remaining if index == len(_SKU_MIX) - 1
                 else max(int(round(nodes * fraction)), 1))
        remaining -= count
        offsets = rng.normal(0.0, 0.5 * factor, size=(count, 1))
        fleet = (100.0 * factor + offsets
                 + rng.normal(0.0, 2.0 * factor, size=(count, window)))
        stride = max(count // max(count // 100, 1), 1)
        fleet[::stride] -= 20.0 * factor
        groups[sku] = fleet
    return groups


def bench_mixed_sku(nodes: int, window: int, repeats: int) -> dict:
    """Per-SKU partitioned learn vs the legacy pooled learn.

    The partitioned path is what the (sku, benchmark, metric) keying
    runs in production: one Algorithm-2 learn per class namespace.
    The pooled path is the pre-SKU behavior kept as a baseline -- it
    merges the per-class distributions, so its timing shows what the
    partition costs (usually: nothing, the work is subdivided) and
    its defect count shows why pooling is wrong on a mixed fleet.
    """

    rng = np.random.default_rng(nodes + 2)
    groups = make_mixed_fleet(rng, nodes, window)
    per_sku_samples = {
        sku: [fleet[i] for i in range(fleet.shape[0])]
        for sku, fleet in groups.items()
    }
    pooled_samples = [s for samples in per_sku_samples.values()
                      for s in samples]

    def learn_per_sku():
        return {sku: learn_criteria(samples, 0.95, centroid="hybrid")
                for sku, samples in per_sku_samples.items()}

    per_sku_s = best_of(learn_per_sku, repeats)
    pooled_s = best_of(
        lambda: learn_criteria(pooled_samples, 0.95, centroid="hybrid"),
        repeats)

    results = learn_per_sku()
    pooled = learn_criteria(pooled_samples, 0.95, centroid="hybrid")
    per_sku_defects = sum(len(r.defect_indices) for r in results.values())
    entry = {
        "nodes": nodes,
        "window": window,
        "composition": {sku: fleet.shape[0]
                        for sku, fleet in groups.items()},
        "per_sku_learn_s": per_sku_s,
        "pooled_learn_s": pooled_s,
        # Informational (not gated): pooling a heterogeneous fleet
        # mis-classifies whole classes as defective; the partitioned
        # learn finds only the planted per-class defects.
        "per_sku_defects": per_sku_defects,
        "pooled_defects": len(pooled.defect_indices),
    }
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="64,256,1024",
                        help="comma-separated fleet sizes")
    parser.add_argument("--window", type=int, default=300,
                        help="samples per node window")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (best-of)")
    parser.add_argument("--scalar-max", type=int, default=1024,
                        help="largest fleet to also time with the scalar "
                             "reference implementation")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="max allowed vectorized-vs-scalar deviation")
    parser.add_argument("--learn-sizes", default="1024,4096,10000",
                        help="comma-separated fleet sizes for the "
                             "learn-scaling sweep (empty string skips it)")
    parser.add_argument("--mixed-sku-sizes", default="1024",
                        help="comma-separated fleet sizes for the 3-SKU "
                             "mixed-fleet leg (empty string skips it)")
    parser.add_argument("--learn-exact-max", type=int, default=4096,
                        help="largest learn-scaling fleet to also run "
                             "through the exact O(n^2) learner (deviation "
                             "is gated wherever the exact path runs)")
    parser.add_argument("--out", default="BENCH_core.json",
                        help="output JSON path")
    parser.add_argument("--skip-equivalence", action="store_true",
                        help="skip the equivalence sweep (timings only)")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    learn_sizes = [int(s) for s in args.learn_sizes.split(",") if s.strip()]
    mixed_sizes = [int(s) for s in args.mixed_sku_sizes.split(",")
                   if s.strip()]

    result: dict = {
        "suite": "repro.core distance kernels",
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "c_kernel": _cmerge.available(),
        },
        "config": {
            "window": args.window,
            "repeats": args.repeats,
            "tolerance": args.tolerance,
        },
    }

    if not args.skip_equivalence:
        print("equivalence sweep ...", flush=True)
        equivalence = run_equivalence(args.tolerance)
        result["equivalence"] = equivalence
        print(f"  max deviation: {equivalence['max_deviation']:.3e}")
        if equivalence["max_deviation"] > args.tolerance:
            print(
                "FAIL: vectorized kernels deviate from the scalar reference "
                f"by {equivalence['max_deviation']:.3e} "
                f"(tolerance {args.tolerance:.1e})",
                file=sys.stderr,
            )
            Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
            return 1

    result["timings"] = []
    for nodes in sizes:
        print(f"benchmarking fleet size {nodes} ...", flush=True)
        entry = bench_size(nodes, args.window, args.repeats, args.scalar_max)
        result["timings"].append(entry)
        pairwise = entry["pairwise"]
        if "speedup" in pairwise:
            print(
                f"  pairwise {pairwise['scalar_s'] * 1e3:9.1f} ms -> "
                f"{pairwise['vectorized_s'] * 1e3:7.1f} ms  "
                f"({pairwise['speedup']:.1f}x)"
            )
        else:
            print(f"  pairwise {pairwise['vectorized_s'] * 1e3:7.1f} ms")

    if learn_sizes:
        # Keyed by fleet size (not a list) so the compare_bench gate
        # only ever diffs a size against the same size -- a CI smoke at
        # --learn-sizes 64 must not be judged against the committed
        # 1024-node entry.
        result["learn_scaling"] = {}
        for nodes in learn_sizes:
            print(f"learn-scaling fleet size {nodes} ...", flush=True)
            try:
                entry = bench_learn_scaling(nodes, args.window, args.repeats,
                                            args.learn_exact_max)
            except AssertionError as error:
                print(f"FAIL: {error}", file=sys.stderr)
                Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
                return 1
            result["learn_scaling"][str(nodes)] = entry
            inc = entry["incremental"]
            line = f"  incremental full {inc['full_s'] * 1e3:8.1f} ms"
            if "exact" in entry:
                line += (f", exact {entry['exact']['exact_s'] * 1e3:9.1f} ms "
                         f"({entry['exact']['speedup']:.1f}x), max dev "
                         f"{entry['deviation']['max_similarity_deviation']:.4f}"
                         f" < {entry['deviation']['bound']:.4f}")
            print(line)

    if mixed_sizes:
        # Keyed by fleet size for the same reason as learn_scaling: the
        # compare_bench gate must never diff a CI smoke size against
        # the committed full-size entry.
        result["mixed_sku"] = {}
        for nodes in mixed_sizes:
            print(f"mixed-SKU fleet size {nodes} ...", flush=True)
            entry = bench_mixed_sku(nodes, args.window, args.repeats)
            result["mixed_sku"][str(nodes)] = entry
            print(f"  per-SKU learn {entry['per_sku_learn_s'] * 1e3:8.1f} ms"
                  f" ({entry['per_sku_defects']} defects), pooled "
                  f"{entry['pooled_learn_s'] * 1e3:8.1f} ms "
                  f"({entry['pooled_defects']} defects)")

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
