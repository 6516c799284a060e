"""Live run monitoring: the status file behind ``repro top``.

A monitored run (any command with ``--status-file``) keeps one small
JSON document up to date at stage and epoch boundaries: what is running
(pid, command, current stage), the training fan-out (workers, total
batch budget, cumulative progress), and — the key part — the picklable
identity of the cross-process :class:`~repro.obs.slab.MetricsSlab` the
Hogwild workers are writing *right now*. ``repro top`` in another
process polls the file, attaches the shared-memory slab read-only, and
renders per-worker progress, throughput, and an ETA without touching
the run (a slab attach is a read-only mmap of an existing segment; the
single-writer-per-row regime makes concurrent reads benign).

The file is written atomically (write-tmp → fsync → rename, the
checkpoint writer), so ``repro top`` never sees a torn document; a run
that dies hard simply stops updating, which the monitor reports as a
stale heartbeat against the recorded pid.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Any, TextIO

from repro.obs.slab import MetricsSlab, MetricsSlabSpec
from repro.parallel.shm import SharedArraySpec, pid_alive

__all__ = [
    "LiveStatusFile",
    "read_status",
    "render_top",
    "slab_spec_from_json",
    "slab_spec_to_json",
    "top_command",
]

STATUS_KIND = "repro-live-status"
STATUS_SCHEMA_VERSION = 1
#: Seconds of update silence after which the monitor calls a run stale.
STALE_AFTER = 30.0


def slab_spec_to_json(spec: MetricsSlabSpec) -> dict[str, Any]:
    return {
        "name": spec.array.name,
        "shape": list(spec.array.shape),
        "dtype": spec.array.dtype,
        "slots": list(spec.slots),
    }


def slab_spec_from_json(payload: dict[str, Any]) -> MetricsSlabSpec:
    return MetricsSlabSpec(
        array=SharedArraySpec(
            name=payload["name"],
            shape=tuple(int(v) for v in payload["shape"]),
            dtype=payload["dtype"],
        ),
        slots=tuple(payload["slots"]),
    )


class LiveStatusFile:
    """Atomic JSON status document a monitored run keeps current."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._doc: dict[str, Any] = {
            "kind": STATUS_KIND,
            "schema_version": STATUS_SCHEMA_VERSION,
            "pid": os.getpid(),
            "status": "running",
            "started_unix": round(time.time(), 3),
        }

    def update(self, **fields: Any) -> None:
        """Merge ``fields`` into the document and rewrite it atomically.

        Nested dict values merge key-wise (so ``train`` progress updates
        don't clobber the fan-out description written at train start).
        Write failures are swallowed — monitoring must never take down
        the run it monitors.
        """
        for key, value in fields.items():
            if isinstance(value, dict) and isinstance(self._doc.get(key), dict):
                self._doc[key] = {**self._doc[key], **value}
            else:
                self._doc[key] = value
        self._doc["updated_unix"] = round(time.time(), 3)
        from repro.resilience.checkpoint import atomic_write_bytes

        try:
            atomic_write_bytes(
                self.path,
                (json.dumps(self._doc, default=str) + "\n").encode(),
            )
        except OSError:
            pass


def read_status(path: str | Path) -> dict[str, Any] | None:
    """Parse a status file; None when absent or not yet parseable."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("kind") != STATUS_KIND:
        return None
    return doc


def _fmt_eta(seconds: float) -> str:
    if not math.isfinite(seconds) or seconds < 0:
        return "-"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


def attach_status_slab(status: dict[str, Any]) -> MetricsSlab | None:
    """Attach the run's live worker slab, or None when unavailable.

    The segment disappears at every epoch barrier teardown and at run
    end; an attach failure just means "no live worker detail right now".
    """
    payload = status.get("slab")
    if not payload:
        return None
    try:
        return MetricsSlab.attach(slab_spec_from_json(payload))
    except (FileNotFoundError, OSError, KeyError, ValueError):
        return None


def render_top(
    status: dict[str, Any],
    *,
    slab_rows: list[dict[str, float]] | None = None,
    now: float | None = None,
) -> str:
    """One frame of the ``repro top`` display."""
    now = time.time() if now is None else now
    pid = int(status.get("pid", 0))
    run_status = status.get("status", "running")
    updated = float(status.get("updated_unix") or status.get("started_unix") or now)
    age = max(now - updated, 0.0)
    liveness = ""
    if run_status == "running":
        if not pid_alive(pid):
            liveness = " [pid gone]"
        elif age > STALE_AFTER:
            liveness = f" [stale {age:.0f}s]"
    stage = status.get("stage") or "-"
    stages = status.get("stages") or []
    stage_pos = (
        f" ({stages.index(stage) + 1}/{len(stages)})"
        if stage in stages
        else ""
    )
    lines = [
        f"repro {status.get('command', '?')} — pid {pid} — "
        f"{run_status}{liveness} — stage {stage}{stage_pos} — "
        f"updated {age:.1f}s ago"
    ]

    train = status.get("train") or {}
    total = float(train.get("total_batches") or 0)
    done_base = float(train.get("batches_done") or 0)
    live_batches = 0.0
    live_examples = 0.0
    if slab_rows:
        header = (
            f"  {'worker':>6} {'epoch':>5} {'batches':>8} {'examples':>10} "
            f"{'mean loss':>10} {'age':>6}"
        )
        lines.append(header)
        for w, row in enumerate(slab_rows):
            batches = row.get("batches", 0.0)
            examples = row.get("examples", 0.0)
            live_batches += batches
            live_examples += examples
            loss = row.get("loss_sum", 0.0) / batches if batches else math.nan
            row_updated = row.get("updated", 0.0)
            row_age = f"{max(now - row_updated, 0.0):.1f}s" if row_updated else "-"
            lines.append(
                f"  {w:>6} {int(row.get('epoch', 0)):>5} {int(batches):>8} "
                f"{int(examples):>10} "
                f"{loss:>10.4f} {row_age:>6}"
                if batches
                else f"  {w:>6} {int(row.get('epoch', 0)):>5} {int(batches):>8} "
                f"{int(examples):>10} {'-':>10} {row_age:>6}"
            )

    if total > 0:
        done = min(done_base + live_batches, total)
        started = float(train.get("started_unix") or updated)
        elapsed = max(now - started, 1e-9)
        rate = done / elapsed
        eta = (total - done) / rate if rate > 0 and run_status == "running" else 0.0
        pct = 100.0 * done / total
        bar_width = 24
        filled = int(bar_width * min(done / total, 1.0))
        bar = "#" * filled + "-" * (bar_width - filled)
        lines.append(
            f"  train [{bar}] {pct:5.1f}%  "
            f"{int(done)}/{int(total)} batches  "
            f"{rate:.1f} batches/s  ETA { _fmt_eta(eta) if run_status == 'running' else '-' }"
        )
        if live_examples:
            lines.append(
                f"  throughput {live_examples / elapsed:.0f} examples/s "
                f"(epoch {int(train.get('epoch') or 0)}/{int(train.get('epochs') or 0)}, "
                f"{int(train.get('workers') or 0)} workers)"
            )
    if run_status != "running":
        reason = status.get("interrupt_reason")
        lines.append(
            f"  run finished: {run_status}"
            + (f" (reason: {reason})" if reason else "")
        )
    return "\n".join(lines)


def top_command(
    path: str | Path,
    *,
    interval: float = 1.0,
    once: bool = False,
    timeout: float | None = None,
    stream: TextIO | None = None,
) -> int:
    """The ``repro top`` loop: poll the status file, render, repeat.

    Returns 0 when the monitored run finished (or ``--once`` rendered a
    frame), 2 when no status file showed up within ``timeout``.
    """
    import sys

    out = stream if stream is not None else sys.stdout
    deadline = time.monotonic() + timeout if timeout is not None else None
    first_frame = True
    while True:
        status = read_status(path)
        if status is None:
            if deadline is not None and time.monotonic() > deadline:
                print(f"no status file at {path}", file=out)
                return 2
            if once:
                print(f"no status file at {path}", file=out)
                return 2
            time.sleep(min(interval, 0.2))
            continue
        slab = attach_status_slab(status)
        try:
            rows = slab.rows() if slab is not None else None
        finally:
            if slab is not None:
                slab.close()
        frame = render_top(status, slab_rows=rows)
        if not once and not first_frame and out.isatty():  # pragma: no cover
            out.write("\x1b[2J\x1b[H")
        print(frame, file=out, flush=True)
        first_frame = False
        finished = status.get("status") != "running" or not pid_alive(
            int(status.get("pid", 0))
        )
        if once or finished:
            return 0
        time.sleep(interval)
