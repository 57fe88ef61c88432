"""The measurement itself: standing a workload up, its timed phases and
its output checks.  ``run.py`` is the command line around this.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import pacing
import stats
from workloads import REFERENCE_SECONDS, WINDOW, WORKLOADS

_IMPORTED_AT = time.perf_counter()

HERE = Path(__file__).resolve().parent

#: Minimum timed work behind any named timing at REFERENCE_SECONDS.
MIN_TIMED_SECONDS = 3.0


def seconds_since_launch() -> float:
    """Wall time since the OS started this process (interpreter start-up
    included), from ``/proc``; since this module's import without it."""
    try:
        after_comm = Path("/proc/self/stat").read_text().rsplit(")", 1)[1]
        start_ticks = int(after_comm.split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


# ----------------------------------------------------------------------
# Set-up: launch -> ready to serve
# ----------------------------------------------------------------------

class Deployment:
    """One workload stood up under ``root`` and ready to serve.

    Construction *is* the set-up that ``setup_s`` times: fleet, survival
    fit, first-use warm-ups, and for the fabric workloads the build-out
    learn, the criteria file, the fabric (worker spawn included) and a
    fixed-count warm-up through the real path.  The inline workload
    learns as its first timed phase, so its warm-up follows that learn.
    """

    def __init__(self, workload, seed: int, scale: float, root: Path,
                 meter, *, trace_dir=None, recorder=None, env=None):
        from drive import build_target
        from repro.core.persistence import save_criteria
        from workloads import Env, new_service

        self.workload = workload
        self.seed = seed
        self.root = root
        self.meter = meter
        self.warmup_count = max(WINDOW, round(
            workload.warmup_events * min(1.0, scale)))
        meter.slice()       # after the imports above
        self.env = env or Env(workload)
        if env is None:
            self.env.prewarm()
        meter.slice()
        self.criteria_path = None
        self.buildout = None
        self.completed_parts = 0
        if workload.target == "inline":
            self.target = build_target(self.env, root / "journal", None)
        else:
            self.buildout = new_service(self.env, root / "buildout")
            self.buildout.learn_criteria(self.env.learn_nodes)
            self.criteria_path = root / "criteria.json"
            save_criteria(self.buildout.anubis.validator, self.criteria_path)
            meter.slice()
            self.target = build_target(
                self.env, root / "journal", self.criteria_path,
                trace_dir=trace_dir, recorder=recorder)
            meter.slice()
            self.warm_up()
        meter.slice()

    @property
    def learner(self):
        """The service whose ``learn_criteria`` is timed: the deployment
        itself when inline, else the build-out service whose criteria
        file the shards loaded."""
        if self.buildout is not None:
            return self.buildout
        return self.target.service

    def setup_timing(self) -> tuple[float, float]:
        """``(raw seconds, speed index)`` of launch -> ready, measured
        now; the index is the mean over the set-up's slices."""
        return (seconds_since_launch() - self.meter.calibration_s,
                self.meter.speed_index)

    def events(self, count: int, stream: str) -> list:
        from workloads import generate_payloads, materialise
        payloads = generate_payloads(
            self.workload, self.seed, count,
            n_covariates=len(self.env.dataset), stream=stream)
        return materialise(payloads, self.env)

    def warm_up(self) -> None:
        from drive import drive, settle
        self.completed_parts += drive(
            self.target, self.events(self.warmup_count, "warmup"),
            self.meter).completed_parts
        settle(self.target)

    def journal_bytes(self) -> int:
        return sum((directory / "journal.jsonl").stat().st_size
                   for directory in self.target.journal_dirs)

    def recover(self) -> None:
        """Crash without sealing, stand the deployment up again over the
        same journals, and run it until it is quiescent."""
        from drive import build_target, settle
        self.target.crash()
        self.target = build_target(self.env, self.root / "journal",
                                   self.criteria_path)
        settle(self.target)


def probe_in_subprocess(args) -> tuple[float, float]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True)
    reply = json.loads(completed.stdout.strip().splitlines()[-1])
    return reply["setup_raw_s"], reply["speed_index"]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

class Row:
    """One named result with its structured context."""

    def __init__(self, name, unit, value, *, raw=None, speed_index=None,
                 repetitions=1, spread=None, samples=None):
        self.name, self.unit, self.value = name, unit, value
        self.context = {"raw": raw, "speed_index": speed_index,
                        "repetitions": repetitions, "spread": spread,
                        "samples": samples}


class Measurement:
    """Runs the phases of one workload and collects rows and op counts."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.scale = args.seconds / REFERENCE_SECONDS
        self.min_timed = MIN_TIMED_SECONDS * self.scale
        # A smoke run (--quick) trades the rules that need volume --
        # three repetitions of every phase, set-up included, and a p95
        # with ten samples beyond it -- for speed; its numbers are not comparable and no
        # bound applies to them.
        self.quick = args.quick
        self.min_repetitions = 1 if self.quick else 3
        self.event_floor = 4 * WINDOW if self.quick else 200
        self.event_count = max(self.event_floor,
                               round(self.workload.events * self.scale))
        self.rows: list[Row] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.deployment: Deployment | None = None
        self.pacer = None
        self.worker_rss_kb = 0

    # -- helpers ---------------------------------------------------------
    def repeat(self, meter, work, *, prepare=None, blocked=False):
        """Repeat ``work`` under the minimum-timed-work rule (``prepare``
        runs untimed before each repetition); returns ``(raw seconds,
        speed index)`` per repetition."""
        reps: list[tuple[float, float]] = []

        def once() -> float:
            if prepare is not None:
                prepare()
            reps.append(self.pacer.timed(meter, work, blocked=blocked))
            return reps[-1][0]

        stats.repeat_timed(once, min_seconds=self.min_timed,
                           min_repetitions=self.min_repetitions)
        return reps

    def timed_row(self, name, unit, reps, *, count=None) -> None:
        """A row from ``(raw seconds, speed index)`` repetitions: the
        median repetition, each normalised by the slices next to it; a
        rate when ``count`` (work per repetition) is given."""
        normalised = [calibrate.normalise_time(raw, index)
                      for raw, index in reps]
        median = statistics.median(normalised)
        raw = statistics.median(raw for raw, _ in reps)
        self.check_timed(name, sum(raw for raw, _ in reps))
        self.rows.append(Row(
            name, unit, median if count is None else count / median,
            raw=raw if count is None else count / raw,
            speed_index=statistics.median(index for _, index in reps),
            repetitions=len(reps),
            spread=stats.spread(normalised) if len(reps) > 1 else 0.0))

    def check_timed(self, name: str, timed_s: float) -> None:
        """Rule 2 for the timings whose amount of work is a fixed size
        and not a repetition count: said, not enforced, because a later
        change that makes the program faster cannot resize them."""
        if timed_s < self.min_timed and not self.quick:
            self.notes.append(
                f"rule 2: {name} comes from {timed_s:.2f} s of timed work, "
                f"under the {self.min_timed:.1f} s minimum")

    def fresh_dir(self, stem: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=self.work))

    def note_rss(self) -> None:
        self.worker_rss_kb = max(self.worker_rss_kb,
                                 self.deployment.target.worker_rss_kb())

    # -- phases ----------------------------------------------------------
    def set_up(self) -> None:
        """Set-ups under the minimum-timed-work rule.  This process's own
        is the first; the others run in fresh subprocesses so imports
        and spawns are paid again."""
        meter = calibrate.SpeedMeter()
        self.pacer = pacing.Pacer()
        self.notes.extend(self.pacer.notes)
        self.pacer.meter = meter
        self.deployment = Deployment(self.workload, self.args.seed,
                                     self.scale, self.work / "main", meter)
        self.pacer.meter = None
        probes: list[tuple[float, float]] = []

        def once() -> float:
            probes.append(probe_in_subprocess(self.args) if probes
                          else self.deployment.setup_timing())
            return probes[-1][0]

        stats.repeat_timed(once, min_seconds=self.min_timed,
                           min_repetitions=self.min_repetitions)
        self.timed_row("setup_s", "s", probes)

    def learn(self) -> None:
        """``learn_criteria`` over the learn set: execute + learn +
        rollout gate + snapshot.

        Inline, the deployment learns here for the first time, and every
        repetition is a first learn on a service that has no criteria
        (the re-learns follow the drive segments).  A fabric deployment
        learned during set-up, on the build-out service whose criteria
        file its shards load; that service is stateless and never sees
        the drive, so learning again on it *is* a re-learn, and one
        measurement is reported under both names.
        """
        from workloads import new_service
        deployment = self.deployment
        nodes = deployment.env.learn_nodes
        inline = self.workload.target == "inline"
        service = deployment.learner

        def prepare() -> None:
            nonlocal service
            if service.anubis.validator.criteria:
                service = new_service(deployment.env, self.fresh_dir("learn"))

        def work() -> None:
            self.count_learn(service.learn_criteria(nodes))

        reps = self.repeat(calibrate.SpeedMeter(), work,
                           prepare=prepare if inline else None)
        self.timed_row("learn_nodes_per_s", "1/s", reps, count=len(nodes))
        if inline:
            deployment.warm_up()
        else:
            self.timed_row("relearn_nodes_per_s", "1/s", reps,
                           count=len(nodes))

    def count_learn(self, decisions) -> None:
        self.attempted += 1
        if any(not decision.accepted for decision in decisions):
            self.failed += 1
            self.problems.append("a learn was rejected by the rollout gate")

    def drive(self) -> None:
        """Closed-loop drive in ``drive_segments`` parts.  Inline, a
        re-learn follows each part: an incremental re-learn cannot be
        repeated back to back -- the second would find nothing changed
        -- so its repetitions are the segments, and their number is
        sized so that they total the minimum timed work."""
        from drive import DriveResult, drive, settle
        deployment = self.deployment
        segments = self.workload.drive_segments
        events = deployment.events(self.event_count, "drive")
        bounds = [round(i * len(events) / segments)
                  for i in range(segments + 1)]
        nodes = deployment.env.learn_nodes
        total = DriveResult()
        drive_meter = calibrate.SpeedMeter()
        relearns: list[tuple[float, float]] = []
        journal_bytes = 0

        def relearn() -> None:
            self.count_learn(deployment.learner.learn_criteria(nodes))

        for segment in range(segments):
            before = deployment.journal_bytes()
            total.merge(drive(deployment.target,
                              events[bounds[segment]:bounds[segment + 1]],
                              drive_meter))
            settle(deployment.target)
            journal_bytes += deployment.journal_bytes() - before
            if self.workload.target == "inline":
                relearns.append(
                    self.pacer.timed(calibrate.SpeedMeter(), relearn))
        self.note_rss()

        self.attempted += len(events)
        completed = total.completed_parts
        deployment.completed_parts += completed
        drive_index = total.normalised_s / total.raw_s
        self.check_timed("events_per_s", total.raw_s)
        self.rows.append(Row(
            "events_per_s", "1/s", completed / total.normalised_s,
            raw=completed / total.raw_s, speed_index=drive_index,
            samples=completed))
        self.rows.append(Row(
            "verdict_latency_p50_ms", "ms",
            stats.percentile(total.latencies_s, 50.0) * 1e3,
            raw=stats.percentile(total.latencies_raw_s, 50.0) * 1e3,
            speed_index=drive_index, samples=len(total.latencies_s)))
        if relearns:
            self.timed_row("relearn_nodes_per_s", "1/s", relearns,
                           count=len(nodes))
        self.rows.append(Row("journal_bytes_per_event", "B",
                             journal_bytes / completed, samples=completed))

    def recover(self) -> None:
        """Crash-and-recover cycles.  A process fabric recovers inside its
        workers while this process waits, so those cycles are normalised
        by boot probes taken between them, not by slices."""
        blocked = self.workload.target == "process"
        probes: list[float] = []

        def work() -> None:
            self.deployment.recover()
            self.attempted += 1

        reps = self.repeat(
            calibrate.SpeedMeter(), work, blocked=blocked,
            prepare=((lambda: probes.append(calibrate.boot_probe()))
                     if blocked else None))
        if blocked:
            probes.append(calibrate.boot_probe())
            reps = [(raw, calibrate.REFERENCE_BOOT_S
                     / ((probes[i] + probes[i + 1]) / 2.0))
                    for i, (raw, _index) in enumerate(reps)]
        self.note_rss()
        self.timed_row("recover_s", "s", reps)

    def report(self, recorder=None) -> None:
        """``JournalReader.read_all`` over every shard, ``build_report``
        and ``render_markdown``; traced, it runs once under spans."""
        from repro.analytics import JournalReader, build_report
        from repro.analytics.report import render_markdown
        directories = self.deployment.target.journal_dirs
        record_count = 0

        def work() -> None:
            nonlocal record_count
            records = []
            corrupt = 0
            for directory in directories:
                reader = JournalReader(directory)
                records.extend(reader.read_all())
                corrupt += reader.health()["corrupt_lines"]
            if recorder is None:
                text = render_markdown(build_report(records))
            else:
                document = recorder.call("analytics.report.build",
                                         build_report, records)
                text = recorder.call("analytics.report.render",
                                     render_markdown, document)
            self.attempted += 1
            if corrupt or not text:
                self.failed += 1
                self.problems.append(
                    f"report read {corrupt} corrupt journal lines")
            record_count = len(records)

        if recorder is not None:
            work()
            return
        reps = self.repeat(calibrate.SpeedMeter(), work)
        self.timed_row("report_records_per_s", "1/s", reps,
                       count=record_count)

    def peak_rss(self) -> None:
        import resource
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.rows.append(Row("peak_rss_mb", "MB",
                             (own_kb + self.worker_rss_kb) / 1024.0))

    # -- output checks ---------------------------------------------------
    def check_outputs(self):
        """Seal, then audit the raw journals; returns the audit report."""
        import audit
        deployment = self.deployment
        if not deployment.target.shutdown():
            self.problems.append("a worker did not drain cleanly")
        report = audit.audit_journals(deployment.target.journal_dirs)
        self.problems.extend(report.problems)
        lost = (report.terminal["load-shed"]
                + report.terminal["event-dead-lettered"]
                + report.terminal["shard-handoff"] + report.failed_ticks)
        if lost:
            self.failed += lost
            self.problems.append(
                f"{lost} parts were shed, dead-lettered, handed off or "
                f"failed a tick")
        self.notes.append(
            f"audit: {report.records} records in "
            f"{len(deployment.target.journal_dirs)} journal(s), "
            f"{report.enqueued} parts enqueued, "
            f"{report.terminal['event-completed']} completed, verdict "
            f"digest {report.digest[:16]}, learn paths "
            f"{dict(sorted(report.learned_paths.items()))}")
        if report.terminal["event-completed"] != deployment.completed_parts:
            self.problems.append(
                f"journals hold {report.terminal['event-completed']} "
                f"event-completed records, the driver saw "
                f"{deployment.completed_parts} parts complete")
        return report

    def cross_check_transport(self, report, count: int) -> None:
        """The warm-up and the ``count`` drive events through an
        in-memory thread fabric must give the verdict digest that the
        process fabric's journals (``report``) gave."""
        import audit
        from drive import ThreadTarget, drive, settle
        deployment = self.deployment
        reference = ThreadTarget(deployment.env, None,
                                 deployment.criteria_path)
        verdicts = []
        validations: dict[str, int] = {}
        tick = reference.supervisor.tick

        def recording_tick():
            results = tick()
            for result in results:
                outcome = result.outcome
                if outcome is None or outcome.report is None:
                    continue
                defective = set(outcome.defective_node_ids)
                for node_id in outcome.report.validated_nodes:
                    k = validations.get(node_id, 0)
                    validations[node_id] = k + 1
                    verdicts.append((node_id, k, node_id in defective))
            return results

        reference.supervisor.tick = recording_tick
        meter = calibrate.UntimedMeter()
        for size, stream in ((deployment.warmup_count, "warmup"),
                             (count, "drive")):
            drive(reference, deployment.events(size, stream), meter)
            settle(reference)
        digest = audit.AuditReport(verdicts=verdicts).digest
        if digest != report.digest:
            self.problems.append(
                f"verdict digest differs between transports: process "
                f"{report.digest[:16]} vs thread {digest[:16]}")
        self.notes.append(f"transport check: the same events through the "
                          f"thread fabric give verdict digest {digest[:16]}")

    # -- the two passes --------------------------------------------------
    def run_untraced(self) -> None:
        self.set_up()
        self.learn()
        self.drive()
        self.recover()
        self.report()
        self.peak_rss()
        report = self.check_outputs()
        if self.workload.target == "process":
            self.cross_check_transport(report, self.event_count)

    def run_traced(self) -> None:
        import layers
        layers.run_traced(self)

    def close(self) -> None:
        """Stop anything still running (error paths included)."""
        if self.deployment is not None and getattr(
                self.deployment.target, "fabric", None) is not None:
            self.deployment.target.crash()


