"""Opt-in sampling wall-clock profiler: collapsed stacks per phase.

A :class:`SamplingProfiler` runs a daemon thread that wakes ``hz`` times
per second, snapshots every Python thread's stack via
``sys._current_frames()``, and accumulates each stack as a *collapsed*
string (``file:func;file:func;...`` root-first — the flamegraph input
format). Thread-based rather than signal-based sampling because the
pipeline already owns SIGTERM/SIGINT/SIGPROF-adjacent machinery
(:mod:`repro.resilience.lifecycle`) and signals only reach the main
thread; a sampler thread works identically in the parent, in forked
Hogwild workers, and inside the persistent pool's worker loop.

The result is a :class:`StackProfile`: total samples, wall duration,
and a ``{collapsed_stack: count}`` mapping with ``top()`` aggregating
self-time by leaf frame. Profiles merge (across workers, across epochs)
and round-trip through a JSON-ready ``summary()`` dict that the run
manifest stores.

Pooled worker processes are profiled over the pool's own pipe (see
:mod:`repro.parallel.persistent`): each task message carries the
recorder's ``profile_hz``, a worker given a rate runs an all-threads
sampler, and each result brings back :meth:`SamplingProfiler.drain` —
the samples since that worker's previous result — which the parent
merges into the recorder's ``workers`` profile.

Disabled cost: nothing in this module runs unless a profiler is
started; the disabled-path surface in the pipeline is one attribute
read per *stage* (see ``benchmarks/test_perf_obs_overhead.py``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any

__all__ = ["DEFAULT_HZ", "SamplingProfiler", "StackProfile"]

DEFAULT_HZ = 97.0  # off-round so the sampler never beats with timers
MAX_STACK_DEPTH = 64
#: ``summary()`` keeps at most this many distinct stacks (by count) so a
#: manifest stays small even for long runs; total sample counts are exact.
SUMMARY_STACK_CAP = 200


def _frame_label(frame) -> str:
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class StackProfile:
    """Aggregated samples: ``{collapsed_stack: count}`` plus totals."""

    __slots__ = ("hz", "samples", "duration", "stacks")

    def __init__(
        self,
        *,
        hz: float = DEFAULT_HZ,
        samples: int = 0,
        duration: float = 0.0,
        stacks: dict[str, int] | None = None,
    ) -> None:
        self.hz = float(hz)
        self.samples = int(samples)
        self.duration = float(duration)
        self.stacks: dict[str, int] = dict(stacks or {})

    def record(self, collapsed: str) -> None:
        self.stacks[collapsed] = self.stacks.get(collapsed, 0) + 1
        self.samples += 1

    def merge(self, other: "StackProfile") -> "StackProfile":
        """Fold ``other`` into this profile in place (returns self)."""
        self.samples += other.samples
        self.duration += other.duration
        for stack, count in other.stacks.items():
            self.stacks[stack] = self.stacks.get(stack, 0) + count
        return self

    def top(self, n: int = 10) -> list[tuple[str, int, float]]:
        """Top-of-stack self samples: ``(leaf_frame, count, fraction)``."""
        leaves: dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        total = max(self.samples, 1)
        ranked = sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(leaf, count, count / total) for leaf, count in ranked[:n]]

    def to_collapsed(self) -> str:
        """Flamegraph input: one ``stack count`` line per distinct stack."""
        return "\n".join(
            f"{stack} {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        )

    def summary(self, *, top_n: int = 10) -> dict[str, Any]:
        """JSON-ready form stored in the run manifest (stack-capped)."""
        kept = dict(
            sorted(self.stacks.items(), key=lambda kv: (-kv[1], kv[0]))[
                :SUMMARY_STACK_CAP
            ]
        )
        return {
            "hz": self.hz,
            "samples": self.samples,
            "duration_s": round(self.duration, 6),
            "top": [
                {"frame": frame, "samples": count, "fraction": round(frac, 4)}
                for frame, count, frac in self.top(top_n)
            ],
            "stacks": kept,
            "stacks_dropped": max(len(self.stacks) - len(kept), 0),
        }

    @classmethod
    def from_summary(cls, summary: dict[str, Any]) -> "StackProfile":
        return cls(
            hz=summary.get("hz", DEFAULT_HZ),
            samples=summary.get("samples", 0),
            duration=summary.get("duration_s", 0.0),
            stacks=summary.get("stacks") or {},
        )


class SamplingProfiler:
    """Context-managed sampler thread aggregating into a StackProfile.

    ``target_thread`` limits sampling to one thread id (the default is
    the thread that *constructs* the profiler — the phase being
    profiled); ``all_threads=True`` samples every live Python thread,
    which is what the per-worker profiles use.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        *,
        all_threads: bool = False,
        max_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = float(hz)
        self.all_threads = all_threads
        self.max_depth = max_depth
        self.profile = StackProfile(hz=hz)
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._mark = 0.0  # start of the samples in self.profile
        self._swap = threading.Lock()  # drain() vs the sampler's record()

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._mark = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> StackProfile:
        if self._thread is None:
            return self.profile
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        self.profile.duration += time.perf_counter() - self._mark
        return self.profile

    def drain(self) -> StackProfile:
        """Hand over the samples since the last drain (or start).

        Sampling carries on into a fresh profile.
        """
        now = time.perf_counter()
        with self._swap:
            drained, self.profile = self.profile, StackProfile(hz=self.hz)
        drained.duration += now - self._mark
        self._mark = now
        return drained

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        while not self._stop.wait(interval):
            frames = sys._current_frames()
            for tid, frame in frames.items():
                if tid == own:
                    continue
                if not self.all_threads and tid != self._target:
                    continue
                collapsed = self._collapse(frame)
                with self._swap:
                    self.profile.record(collapsed)

    def _collapse(self, frame) -> str:
        labels: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            labels.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        labels.reverse()
        return ";".join(labels)

