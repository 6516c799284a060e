"""Crash-safe run registry: who ran here, and did they finish?

Every checkpointed run appends journal records to ``runs.jsonl`` under
its checkpoint directory: one ``running`` record at startup (run id,
pid, argv, command, config fingerprint) and one terminal record on the
way out (``completed`` / ``interrupted`` / ``failed``). The journal is
append-only JSONL — a crash can at worst truncate the *last* line,
which the reader tolerates — so the registry itself needs no atomic
rename machinery and survives the very disk-full and SIGKILL scenarios
it exists to diagnose.

On top of the journal:

- :meth:`RunRegistry.sweep` is the startup sweeper. It detects orphaned
  runs (a ``running`` record whose pid is gone — the OOM-killer
  signature), folds them to ``orphaned``, reclaims their leftover
  ``repro-<pid>-*`` /dev/shm segments
  (:func:`repro.parallel.shm.sweep_orphan_segments`), and removes torn
  ``*.tmp.<pid>`` files under the checkpoint tree.
- :meth:`RunRegistry.latest_resumable` finds the most recent run that
  stopped before completing, with the exact argv it was launched with —
  what ``repro runs resume --latest`` replays so the user never
  reconstructs flags by hand.

Journal writes are best-effort: a registry that cannot write (read-only
or full filesystem) logs a warning and never takes the run down with it.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.logging import get_logger
from repro.obs.recorder import current_recorder

__all__ = ["RunRecord", "RunRegistry", "JOURNAL_NAME"]

JOURNAL_NAME = "runs.jsonl"

#: Journal statuses. ``running`` is open; the rest are terminal.
#: ``orphaned`` is assigned by the sweeper, never self-reported.
RUN_STATUSES = ("running", "completed", "interrupted", "failed", "orphaned")

_log = get_logger("resilience.registry")


@dataclass(frozen=True)
class RunRecord:
    """The folded (last-wins) state of one run in the journal."""

    run_id: str
    pid: int
    status: str
    command: str | None = None
    argv: tuple[str, ...] = ()
    config_fingerprint: str | None = None
    reason: str | None = None
    started_unix: float = 0.0
    updated_unix: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def resumable(self) -> bool:
        """True for runs that stopped before completing with known argv."""
        return self.status in ("interrupted", "failed", "orphaned") and bool(
            self.argv
        )


class RunRegistry:
    """Append-only run journal under one checkpoint directory."""

    def __init__(self, checkpoint_dir: str | Path) -> None:
        self.directory = Path(checkpoint_dir)
        self.journal = self.directory / JOURNAL_NAME
        self._run_id: str | None = None

    # -- writing --------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self.journal.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            # The registry is a flight recorder, not a dependency: a
            # full/read-only disk must not take the run down.
            _log.warning(
                "registry.write_failed", path=str(self.journal), error=repr(exc)
            )

    def open_run(
        self,
        *,
        command: str | None = None,
        argv: list[str] | tuple[str, ...] = (),
        config_fingerprint: str | None = None,
        run_id: str | None = None,
    ) -> str:
        """Journal this process as ``running``; returns the run id."""
        self._run_id = run_id or uuid.uuid4().hex[:12]
        self._append(
            {
                "run_id": self._run_id,
                "pid": os.getpid(),
                "status": "running",
                "command": command,
                "argv": list(argv),
                "config_fingerprint": config_fingerprint,
                "time_unix": time.time(),
            }
        )
        current_recorder().event(
            "registry.run_opened", level="debug", run_id=self._run_id
        )
        return self._run_id

    def close_run(self, status: str, *, reason: str | None = None) -> None:
        """Journal the terminal status of the run opened by this process."""
        if self._run_id is None:
            return
        if status not in RUN_STATUSES:
            raise ValueError(f"unknown run status {status!r}")
        self._append(
            {
                "run_id": self._run_id,
                "pid": os.getpid(),
                "status": status,
                "reason": reason,
                "time_unix": time.time(),
            }
        )
        self._run_id = None

    # -- reading --------------------------------------------------------
    def _raw_records(self) -> Iterator[dict[str, Any]]:
        try:
            text = self.journal.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append can tear the final line; every
                # complete line before it is still good.
                continue
            if isinstance(record, dict) and "run_id" in record:
                yield record

    def runs(self) -> list[RunRecord]:
        """All runs, oldest first, with status updates folded last-wins."""
        folded: dict[str, dict[str, Any]] = {}
        order: list[str] = []
        for record in self._raw_records():
            run_id = str(record["run_id"])
            if run_id not in folded:
                folded[run_id] = dict(record)
                folded[run_id]["started_unix"] = record.get("time_unix", 0.0)
                order.append(run_id)
            else:
                base = folded[run_id]
                for key, value in record.items():
                    if value is not None:
                        base[key] = value
        out: list[RunRecord] = []
        known = {
            "run_id", "pid", "status", "command", "argv",
            "config_fingerprint", "reason", "time_unix", "started_unix",
        }
        for run_id in order:
            raw = folded[run_id]
            out.append(
                RunRecord(
                    run_id=run_id,
                    pid=int(raw.get("pid", -1)),
                    status=str(raw.get("status", "running")),
                    command=raw.get("command"),
                    argv=tuple(raw.get("argv") or ()),
                    config_fingerprint=raw.get("config_fingerprint"),
                    reason=raw.get("reason"),
                    started_unix=float(raw.get("started_unix") or 0.0),
                    updated_unix=float(raw.get("time_unix") or 0.0),
                    extra={
                        k: v for k, v in raw.items() if k not in known
                    },
                )
            )
        return out

    def latest_resumable(self) -> RunRecord | None:
        """The most recently updated run that stopped before completing."""
        candidates = [r for r in self.runs() if r.resumable]
        if not candidates:
            return None
        return max(candidates, key=lambda r: r.updated_unix)

    # -- sweeping -------------------------------------------------------
    def sweep(self) -> dict[str, Any]:
        """Reclaim what dead runs left behind; returns a summary dict.

        Folds pid-gone ``running`` records to ``orphaned``, unlinks
        their (and any other dead pid's) ``repro-<pid>-*`` /dev/shm
        segments, and removes torn ``*.tmp.<pid>`` files under the
        checkpoint tree. Safe to call on every startup — live runs are
        untouched and a clean directory is a fast no-op.
        """
        from repro.parallel.shm import pid_alive, sweep_orphan_segments

        orphaned: list[str] = []
        for run in self.runs():
            if run.status == "running" and not pid_alive(run.pid):
                self._append(
                    {
                        "run_id": run.run_id,
                        "pid": run.pid,
                        "status": "orphaned",
                        "reason": "pid_gone",
                        "time_unix": time.time(),
                    }
                )
                orphaned.append(run.run_id)
        segments = sweep_orphan_segments()
        tmp_files = self._sweep_tmp_files()
        summary = {
            "orphaned_runs": orphaned,
            "shm_segments_removed": segments,
            "tmp_files_removed": tmp_files,
        }
        if orphaned or segments or tmp_files:
            rec = current_recorder()
            rec.inc("registry.orphans_swept", len(orphaned))
            rec.inc("registry.shm_swept", len(segments))
            rec.inc("registry.tmp_swept", tmp_files)
            rec.event("registry.swept", level="warning", **summary)
        return summary

    def _sweep_tmp_files(self) -> int:
        """Remove ``*.tmp.<pid>`` files of dead pids under the tree."""
        from repro.parallel.shm import pid_alive

        if not self.directory.is_dir():
            return 0
        removed = 0
        for path in self.directory.rglob("*.tmp.*"):
            pid_part = path.name.rsplit(".tmp.", 1)[-1]
            if not pid_part.isdigit():
                continue
            if pid_alive(int(pid_part)):
                continue  # an in-flight write by a live concurrent run
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed
