"""End-to-end benchmark: four seeded workloads through the public APIs of
the inline service, the thread shard fabric and the process fabric.

One workload, the way the benchmark driver runs it (last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``)::

    python3 benchmarks/e2e/run.py --workload steady-thread --seed 0 \
        --seconds 30 --trace 0

Everything, each workload in a fresh subprocess, untraced then traced::

    python3 benchmarks/e2e/run.py            # add --quick for a smoke run

See README.md in this directory for the metric and workload glossary
and the five measurement rules.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
WORK_ROOT = HERE / ".work"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import pacing  # noqa: E402
from harness import MIN_TIMED_SECONDS, Deployment, Measurement  # noqa: E402
from workloads import REFERENCE_SECONDS, WORKLOADS  # noqa: E402

QUICK_SECONDS = 3


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").exists():
        raise SystemExit(f"error: the program under test is not at {SRC}")


@contextlib.contextmanager
def working_directory(stem: str):
    """A scratch directory for this process, removed on the way out.

    Keeps every byte the run writes inside the checkout (journals,
    criteria files, ``TMPDIR`` and with it the compiled ``_cmerge``
    kernel), and makes the program and this directory importable here
    and in worker processes.
    """
    require_program()
    work = WORK_ROOT / f"{stem}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    os.environ.pop("REPRO_WORKERS", None)   # pool widths are the workload's
    inherited = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(HERE), str(SRC)] + ([inherited] if inherited else []))
    if str(SRC) not in sys.path:
        sys.path.insert(1, str(SRC))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()       # unless another run is using it


def run_probe(args) -> int:
    """``--setup-probe``: set up once in this fresh process, report how
    long launch -> ready took, tear down."""
    with working_directory("probe") as work:
        meter = calibrate.SpeedMeter()
        pacing.Pacer().meter = meter
        deployment = Deployment(WORKLOADS[args.workload], args.seed,
                                args.seconds / REFERENCE_SECONDS, work, meter)
        try:
            raw, index = deployment.setup_timing()
            print(json.dumps({"setup_raw_s": raw, "speed_index": index}))
        finally:
            deployment.target.shutdown()
    return 0


def machine_context(args, workload) -> dict:
    import platform
    context = {
        "machine": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "seed": args.seed,
        "seconds": args.seconds, "workload": workload.name,
        "config": workload.config(), "reference_rate": calibrate.REFERENCE_RATE,
    }
    try:
        import numpy
        import scipy
        from repro.core import _cmerge
        context.update(numpy=numpy.__version__, scipy=scipy.__version__,
                       c_kernel=_cmerge.available())
    except ImportError:
        pass
    try:
        context["commit"] = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        context["commit"] = "unknown"
    return context


def print_rows(measurement: Measurement, traced: bool) -> None:
    name = measurement.workload.name
    print(f"\n== {name}  seed {measurement.args.seed}  "
          f"{'traced pass: per-layer' if traced else 'end to end'} ==")
    print(f"{'metric':<58}{'value':>14} {'unit':<6}{'raw':>14}"
          f"{'speed':>8}{'reps':>6}{'spread':>8}{'samples':>9}")
    for row in measurement.rows:
        c = row.context

        def cell(value, form):
            return format(value, form) if value is not None else "-"
        print(f"{name + '/' + row.name:<58}{row.value:>14.4f} {row.unit:<6}"
              f"{cell(c['raw'], '14.4f'):>14}{cell(c['speed_index'], '8.3f'):>8}"
              f"{c['repetitions']:>6}{cell(c['spread'], '8.3f'):>8}"
              f"{cell(c['samples'], '9d'):>9}")
    for note in measurement.notes:
        print(note)
    print(f"ops_attempted {measurement.attempted}  "
          f"ops_failed {measurement.failed}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    with working_directory("run") as work:
        measurement = Measurement(args, work)
        try:
            if args.trace:
                measurement.run_traced()
            else:
                measurement.run_untraced()
        except pacing.Unpaced as error:
            measurement.problems.append(str(error))
        finally:
            measurement.close()
    if measurement.problems:
        for problem in measurement.problems:
            print(f"FAIL {problem}", file=sys.stderr)
        print(f"{workload.name}: output checks failed; no metrics recorded",
              file=sys.stderr)
        return 1
    print_rows(measurement, bool(args.trace))
    if args.history:
        context = machine_context(args, workload)
        with open(args.history, "a") as handle:
            for row in measurement.rows:
                handle.write(json.dumps({
                    **context, "metric": row.name, "unit": row.unit,
                    "value": row.value, "traced": bool(args.trace),
                    **row.context}) + "\n")
    print(json.dumps({
        "correct": True,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {row.name: {"value": row.value, "unit": row.unit}
                    for row in measurement.rows},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each pass in a fresh subprocess (so ``peak_rss_mb``
    is that workload's own), after leaving the post-idle burst."""
    require_program()
    calibrate.spin(MIN_TIMED_SECONDS * args.seconds / REFERENCE_SECONDS)
    status = 0
    for name in WORKLOADS:
        for trace in ([0] if args.no_trace else [0, 1]):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.quick:
                command.append("--quick")
            if args.history:
                command += ["--history", args.history]
            if subprocess.run(command).returncode != 0:
                status = 1
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, each in a subprocess)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS,
                        help="measurement budget; scales event counts and "
                             "the minimum timed work per metric")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--no-trace", action="store_true",
                        help="all-workloads mode: skip the traced passes")
    parser.add_argument("--quick", action="store_true",
                        help=f"smoke run: --seconds {QUICK_SECONDS}; the "
                             f"bounds do not apply to its numbers")
    parser.add_argument("--history", metavar="PATH",
                        help="append every result row, with its context, "
                             "to this JSONL file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = QUICK_SECONDS
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_with_fixed_hashing() -> int:
    """This command again, as a child with ``PYTHONHASHSEED=0``.

    String hashing is randomised per process, and with it dict collision
    patterns and set order inside the program: one more thing that
    differs between two runs of the same code.  The seed is read at
    interpreter start, so it is set for a child, like the set-up probes
    are started; the measuring process is then launched once, not
    launched and re-executed, and its own set-up reads like theirs.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([sys.executable] + sys.argv,
                             env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        return run_with_fixed_hashing()
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        return run_probe(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
