"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_screen_defaults(self):
        args = build_parser().parse_args(["screen"])
        assert args.nodes == 120
        assert args.alpha == 0.95

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--days", "7"])
        assert args.days == 7
        assert args.p0 == 0.02

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.nodes == 64
        assert args.events == 200
        assert args.journal is None
        assert args.workers == 8


class TestCommands:
    def test_screen_small_fleet(self, capsys, tmp_path):
        criteria_path = tmp_path / "criteria.json"
        code = main(["screen", "--nodes", "24", "--learn-on", "12",
                     "--seed", "3", "--save-criteria", str(criteria_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "total:" in out
        assert criteria_path.exists()

    def test_screen_invalid_learn_on(self, capsys):
        assert main(["screen", "--nodes", "10", "--learn-on", "50"]) == 2

    def test_traces_round_trip(self, capsys, tmp_path):
        incidents = tmp_path / "incidents.json"
        allocations = tmp_path / "allocations.json"
        code = main(["traces", "--nodes", "20", "--hours", "400",
                     "--incidents-out", str(incidents),
                     "--allocations-out", str(allocations)])
        assert code == 0
        from repro.simulation.traces import AllocationTrace, IncidentTrace
        assert len(IncidentTrace.load(incidents)) > 0
        assert len(AllocationTrace.load(allocations)) > 0

    def test_simulate_tiny(self, capsys):
        code = main(["simulate", "--nodes", "8", "--days", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        for policy in ("absence", "full-set", "selector", "ideal"):
            assert policy in out

    def test_serve_small_fleet(self, capsys, tmp_path):
        journal_dir = tmp_path / "journal"
        code = main(["serve", "--nodes", "8", "--events", "12",
                     "--learn-on", "4", "--workers", "4",
                     "--journal", str(journal_dir), "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "defect_rate" in out
        assert "queue_latency_mean_s" in out
        assert "lifecycle:" in out
        assert (journal_dir / "journal.jsonl").exists()

    def test_serve_invalid_learn_on(self, capsys):
        assert main(["serve", "--nodes", "4", "--learn-on", "50"]) == 2

    def test_serve_invalid_events(self, capsys):
        assert main(["serve", "--nodes", "8", "--learn-on", "4",
                     "--events", "0"]) == 2

    def test_serve_processes_rejects_incremental_criteria(self, capsys,
                                                         tmp_path):
        assert main(["serve", "--nodes", "4", "--learn-on", "2",
                     "--processes", "--incremental-criteria",
                     "--journal", str(tmp_path / "j")]) == 2
        assert "--incremental-criteria" in capsys.readouterr().err
        assert not (tmp_path / "j").exists()

    def test_serve_incremental_criteria(self, capsys, tmp_path):
        journal_dir = tmp_path / "journal"
        code = main(["serve", "--nodes", "8", "--events", "10",
                     "--learn-on", "4", "--workers", "2",
                     "--incremental-criteria",
                     "--journal", str(journal_dir), "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        # The re-learn walked the rollout gate and the per-path learn
        # stages surfaced in the pipeline table.
        assert "rollout gate:" in out
        assert "learn-" in out
        # The journal carries the criteria-learn record, so the
        # analytics report sees the learn stages too.
        from repro.service.store import JournalStore, RecordKind
        kinds = [r.kind for r in JournalStore(str(journal_dir)).replay()]
        assert RecordKind.CRITERIA_LEARN in kinds
        # And the journal-driven SLO report renders the per-path learn
        # stages in its measurement-pipeline table.
        assert main(["report", "--journal", str(journal_dir)]) == 0
        report_out = capsys.readouterr().out
        assert "learn-" in report_out


class TestServeChaosPin:
    def test_seeded_chaos_run_is_pinned(self, tmp_path):
        """``python -m repro serve --chaos-seed`` injects the same faults
        on every run; its tally line is pinned exactly."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else []))}
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--events", "40",
             "--nodes", "16", "--seed", "1", "--chaos-seed", "5",
             "--journal", str(tmp_path / "journal")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert ("chaos injections: executor_crash=2 journal_error=9 kill=3 "
                "(restarts=3)") in done.stdout.splitlines()
