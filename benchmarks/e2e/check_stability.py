"""A/A stability check: does the benchmark agree with itself?

Runs the benchmark as two alternating sets of the *same* code (A B B A
A B ...), one seed per pair of runs, and compares the sets the way a
later PR will be compared with its parent: per ``workload/metric``,
each side's median and quartiles.  A pair fails when the medians
differ by more than the metric's bound in ``BENCHMARK.json``, or when
either side's spread (inter-quartile distance over the median) is
wider than the bound -- such a pair would be unresolved, not unchanged,
for every later PR.  ``setup_s`` is held to the first test only, as
the benchmark driver holds it.

The first thing to run when a later PR looks like a regression::

    python3 benchmarks/e2e/check_stability.py
    python3 benchmarks/e2e/check_stability.py --workload steady-thread --runs 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed}: the benchmark failed")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} "
                         f"operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per side and workload (at least 5; the "
                             "quartiles of fewer than ten are nearly the "
                             "extremes, so a spread test on them is harsh)")
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    values: dict[tuple[str, str, str], list[float]] = {}
    started = time.time()
    for workload in workloads:
        for index in range(args.runs):
            for side in ("AB" if index % 2 == 0 else "BA"):
                metrics = run_once(workload, index, spec["run_seconds"])
                for name, value in metrics.items():
                    values.setdefault((workload, name, side), []).append(value)
            print(f"  {workload}: pair {index + 1}/{args.runs} done "
                  f"({time.time() - started:.0f} s)", file=sys.stderr)

    print(f"{'workload/metric':<46}{'A median':>12}{'A q1':>12}{'A q3':>12}"
          f"{'B median':>12}{'B q1':>12}{'B q3':>12}{'|A-B|/A':>9}"
          f"{'bound':>7}{'spread':>8}")
    failures = []
    for workload in workloads:
        for name, bound in bounds.items():
            a_q1, a_med, a_q3 = stats.quartiles(values[workload, name, "A"])
            b_q1, b_med, b_q3 = stats.quartiles(values[workload, name, "B"])
            difference = abs(a_med - b_med) / a_med
            widest = max(stats.spread(values[workload, name, side])
                         for side in "AB")
            reasons = []
            if difference > bound:
                reasons.append(f"medians {a_med:.4f} vs {b_med:.4f} differ "
                               f"by {difference:.3f}")
            if widest > bound and name != "setup_s":
                reasons.append(f"spread {widest:.3f}")
            print(f"{workload + '/' + name:<46}{a_med:>12.4f}{a_q1:>12.4f}"
                  f"{a_q3:>12.4f}{b_med:>12.4f}{b_q1:>12.4f}{b_q3:>12.4f}"
                  f"{difference:>9.3f}{bound:>7.2f}{widest:>8.3f}"
                  f"{'  FAIL' if reasons else ''}")
            if reasons:
                failures.append(f"{workload}/{name}: {' and '.join(reasons)}"
                                f" > {bound}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{'unstable' if failures else 'stable'}: "
          f"{len(failures)} of {len(workloads) * len(bounds)} pairs outside "
          f"their bound ({args.runs} runs per side)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
