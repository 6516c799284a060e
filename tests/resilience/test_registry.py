"""Crash-safe run registry: journal folding, torn lines, orphan sweeping."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.logging import parse_jsonl
from repro.obs.recorder import ObsConfig, Recorder, session, use
from repro.parallel.shm import SHM_MOUNT
from repro.resilience.registry import JOURNAL_NAME, RunRegistry


@pytest.fixture(scope="module")
def dead_pid():
    """A pid that certainly ran and certainly exited."""
    proc = subprocess.Popen([sys.executable, "-c", ""])
    proc.wait()
    return proc.pid


class TestJournal:
    def test_open_then_close_folds_to_terminal_status(self, tmp_path):
        registry = RunRegistry(tmp_path)
        run_id = registry.open_run(
            command="embed",
            argv=["embed", "g.edges", "--dim", "8"],
            config_fingerprint="abc123",
        )
        registry.close_run("completed")
        (run,) = registry.runs()
        assert run.run_id == run_id
        assert run.status == "completed"
        assert run.command == "embed"
        assert run.argv == ("embed", "g.edges", "--dim", "8")
        assert run.config_fingerprint == "abc123"
        assert run.pid == os.getpid()
        assert run.updated_unix >= run.started_unix > 0

    def test_close_without_open_is_a_noop(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.close_run("completed")
        assert not (tmp_path / JOURNAL_NAME).exists()

    def test_close_rejects_unknown_status(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.open_run(command="embed")
        with pytest.raises(ValueError, match="unknown run status"):
            registry.close_run("exploded")

    def test_terminal_record_does_not_erase_open_fields(self, tmp_path):
        # The close record carries command=None etc.; folding must keep
        # the values the open record established.
        registry = RunRegistry(tmp_path)
        registry.open_run(command="embed", argv=["embed", "x"])
        registry.close_run("interrupted", reason="signal")
        (run,) = registry.runs()
        assert run.command == "embed"
        assert run.argv == ("embed", "x")
        assert run.reason == "signal"

    def test_torn_last_line_is_tolerated(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.open_run(command="embed", argv=["embed", "x"])
        registry.close_run("completed")
        # Simulate a crash mid-append: a half-written JSON line.
        with (tmp_path / JOURNAL_NAME).open("a") as fh:
            fh.write('{"run_id": "zzz", "status": "runn')
        runs = registry.runs()
        assert len(runs) == 1
        assert runs[0].status == "completed"

    def test_unknown_keys_land_in_extra(self, tmp_path):
        registry = RunRegistry(tmp_path)
        line = json.dumps(
            {"run_id": "r1", "pid": 1, "status": "running", "note": "hi"}
        )
        tmp_path.mkdir(exist_ok=True)
        (tmp_path / JOURNAL_NAME).write_text(line + "\n")
        (run,) = registry.runs()
        assert run.extra == {"note": "hi"}

    def test_unwritable_journal_never_raises(self, tmp_path):
        # checkpoint "dir" is actually a file: every mkdir/append fails
        # with OSError, which the flight recorder must swallow.
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        registry = RunRegistry(blocker / "nested")
        registry.open_run(command="embed")
        registry.close_run("completed")
        assert registry.runs() == []


class TestResumable:
    def _journal(self, tmp_path, *records):
        (tmp_path / JOURNAL_NAME).write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return RunRegistry(tmp_path)

    def test_latest_resumable_prefers_most_recent(self, tmp_path):
        registry = self._journal(
            tmp_path,
            {"run_id": "a", "pid": 1, "status": "running",
             "argv": ["embed", "x"], "time_unix": 100.0},
            {"run_id": "a", "pid": 1, "status": "interrupted",
             "time_unix": 110.0},
            {"run_id": "b", "pid": 2, "status": "running",
             "argv": ["embed", "y"], "time_unix": 200.0},
            {"run_id": "b", "pid": 2, "status": "failed", "time_unix": 210.0},
        )
        latest = registry.latest_resumable()
        assert latest.run_id == "b"

    def test_completed_runs_are_not_resumable(self, tmp_path):
        registry = self._journal(
            tmp_path,
            {"run_id": "a", "pid": 1, "status": "completed",
             "argv": ["embed", "x"], "time_unix": 100.0},
        )
        assert registry.latest_resumable() is None

    def test_runs_without_argv_are_not_resumable(self, tmp_path):
        registry = self._journal(
            tmp_path,
            {"run_id": "a", "pid": 1, "status": "interrupted",
             "time_unix": 100.0},
        )
        assert registry.latest_resumable() is None

    def test_orphaned_runs_are_resumable(self, tmp_path):
        registry = self._journal(
            tmp_path,
            {"run_id": "a", "pid": 1, "status": "orphaned",
             "argv": ["embed", "x"], "time_unix": 100.0},
        )
        assert registry.latest_resumable().run_id == "a"


class TestSweep:
    def test_dead_running_pid_becomes_orphaned(self, tmp_path, dead_pid):
        registry = RunRegistry(tmp_path)
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(
                {"run_id": "gone", "pid": dead_pid, "status": "running",
                 "argv": ["embed", "x"], "time_unix": 100.0}
            )
            + "\n"
        )
        with use(Recorder()) as rec:
            summary = registry.sweep()
        assert summary["orphaned_runs"] == ["gone"]
        (run,) = registry.runs()
        assert run.status == "orphaned"
        assert run.reason == "pid_gone"
        assert run.resumable
        counters = rec.registry.snapshot()["counters"]
        assert counters["registry.orphans_swept"] == 1

    def test_sweep_is_logged_once(self, tmp_path, dead_pid):
        registry = RunRegistry(tmp_path)
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(
                {"run_id": "gone", "pid": dead_pid, "status": "running",
                 "time_unix": 100.0}
            )
            + "\n"
        )
        events = tmp_path / "events.jsonl"
        cfg = ObsConfig(log_level="error", log_json=str(events))
        with session(cfg, stream=io.StringIO()):
            registry.sweep()
        (swept,) = [e for e in parse_jsonl(events) if e["event"] == "registry.swept"]
        assert swept["orphaned_runs"] == ["gone"]

    def test_module_loggers_sit_under_repro_resilience(self):
        from repro.resilience import checkpoint, guard, registry

        for module in (checkpoint, guard, registry):
            assert module._log.stdlib.name == module.__name__

    def test_live_running_pid_is_untouched(self, tmp_path):
        registry = RunRegistry(tmp_path)
        registry.open_run(command="embed", argv=["embed", "x"])
        summary = registry.sweep()
        assert summary["orphaned_runs"] == []
        (run,) = registry.runs()
        assert run.status == "running"

    def test_sweep_is_idempotent(self, tmp_path, dead_pid):
        registry = RunRegistry(tmp_path)
        (tmp_path / JOURNAL_NAME).write_text(
            json.dumps(
                {"run_id": "gone", "pid": dead_pid, "status": "running",
                 "time_unix": 100.0}
            )
            + "\n"
        )
        assert registry.sweep()["orphaned_runs"] == ["gone"]
        assert registry.sweep()["orphaned_runs"] == []

    def test_tmp_files_of_dead_pids_are_removed(self, tmp_path, dead_pid):
        registry = RunRegistry(tmp_path)
        nested = tmp_path / "walks"
        nested.mkdir()
        dead_tmp = nested / f"chunk.ckpt.npz.tmp.{dead_pid}"
        live_tmp = tmp_path / f"state.ckpt.npz.tmp.{os.getpid()}"
        odd_tmp = tmp_path / "notes.tmp.backup"
        for p in (dead_tmp, live_tmp, odd_tmp):
            p.write_bytes(b"x")
        summary = registry.sweep()
        assert summary["tmp_files_removed"] == 1
        assert not dead_tmp.exists()
        assert live_tmp.exists()  # in-flight write of a live process
        assert odd_tmp.exists()  # not a pid-suffixed tmp

    @pytest.mark.skipif(
        not Path(SHM_MOUNT).is_dir(), reason="no /dev/shm on this platform"
    )
    def test_orphaned_shm_segments_are_reclaimed(self, tmp_path, dead_pid):
        registry = RunRegistry(tmp_path)
        dead_seg = Path(SHM_MOUNT) / f"repro-{dead_pid}-deadbeef"
        live_seg = Path(SHM_MOUNT) / f"repro-{os.getpid()}-deadbeef"
        dead_seg.write_bytes(b"")
        live_seg.write_bytes(b"")
        try:
            summary = registry.sweep()
            assert dead_seg.name in summary["shm_segments_removed"]
            assert not dead_seg.exists()
            assert live_seg.exists()
        finally:
            dead_seg.unlink(missing_ok=True)
            live_seg.unlink(missing_ok=True)

    def test_clean_directory_sweep_is_quiet(self, tmp_path):
        with use(Recorder()) as rec:
            summary = RunRegistry(tmp_path).sweep()
        assert summary["orphaned_runs"] == []
        assert summary["tmp_files_removed"] == 0
        counters = rec.registry.snapshot()["counters"]
        assert counters.get("registry.orphans_swept", 0) == 0
