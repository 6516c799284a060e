#!/usr/bin/env python
"""Deterministic chaos smoke for CI: supervised self-healing end to end.

Runs three scripted failure scenarios against a tiny corpus and fails
loudly (non-zero exit) if any recovery path did not actually fire:

1. **kill** — a Hogwild worker hard-exits mid-epoch under supervision;
   the run must complete all epochs and record ``supervisor.respawns``.
2. **hang** — a Hogwild worker sleeps "forever" mid-epoch; the watchdog
   must kill it within the deadline budget and finish via respawn.
3. **corrupt** — a completed trainer checkpoint is torn on disk; a
   resuming run must quarantine it (``*.corrupt.<ts>``) and restart the
   phase cleanly, reproducing the uncorrupted result bitwise.
4. **interrupt** — a real ``repro embed`` subprocess is SIGTERMed at
   the start of its second epoch, through the ``FaultInjector``
   bootstrap of ``chaos_soak.py`` (``SIGNAL_AT``), so the signal never
   races the run's end; it must exit 130 with a valid
   ``status: interrupted`` manifest (checked via ``repro report``), leak
   no ``/dev/shm`` segments, and a ``--resume`` run must finish with
   embeddings bitwise-identical to an uninterrupted reference run.
5. **deadline** — the same run under ``--deadline 0`` must exit 124 with
   ``interrupt_reason: deadline`` in its manifest.

Artifacts (JSONL event streams + run manifests) land in ``--output-dir``
for upload; the manifests are the machine-readable proof of healing.

Usage:
    PYTHONPATH=src python scripts/chaos_smoke.py --output-dir chaos_artifacts
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.parallel.hogwild import hogwild_supported
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.supervisor import SupervisorConfig
from repro.walks.engine import RandomWalkConfig, generate_walks

from chaos_soak import SIGNAL_AT

SUPERVISED = SupervisorConfig(
    worker_deadline=2.0, max_respawns=5, poll_interval=0.05
)


def _train_config() -> TrainConfig:
    return TrainConfig(
        dim=12,
        epochs=3,
        batch_size=128,
        seed=3,
        early_stop=False,
        workers=2,
    )


def _run_scenario(name, corpus, out_dir, scratch, **fault_kwargs):
    """One supervised Hogwild run with an injected worker fault."""
    events = out_dir / f"{name}.events.jsonl"
    manifest = out_dir / f"{name}.manifest.json"
    marker = scratch / f"{name}.fired"
    chaos = ExecutionContext(
        supervisor=SUPERVISED,
        fault_injector=lambda task: FaultInjector(
            task, only_in_subprocess=True, once_marker=marker, **fault_kwargs
        ),
    )
    cfg = ObsConfig(
        log_level="error", log_json=str(events), metrics_out=str(manifest)
    )
    with session(cfg, run_config={"chaos": name}, stream=io.StringIO()):
        result = train_embeddings(corpus, _train_config(), context=chaos)

    failures = []
    if not marker.exists():
        failures.append(f"{name}: fault never fired")
    if result.epochs_run != 3:
        failures.append(f"{name}: expected 3 epochs, ran {result.epochs_run}")
    if not np.all(np.isfinite(result.vectors)):
        failures.append(f"{name}: non-finite vectors")
    counters = load_manifest(manifest)["metrics"]["counters"]
    respawns = counters.get("supervisor.respawns", 0)
    if respawns < 1:
        failures.append(f"{name}: supervisor.respawns == 0 (no healing)")
    print(f"[chaos-smoke] {name}: epochs={result.epochs_run} respawns={respawns}")
    return failures


def _corrupt_checkpoint_scenario(corpus, out_dir, scratch):
    """Torn trainer checkpoint → quarantine → bitwise-clean restart."""
    failures = []
    fresh = train_embeddings(
        corpus, TrainConfig(dim=8, epochs=2, seed=1, early_stop=False)
    )
    ckpt_dir = scratch / "ckpt"
    train_embeddings(
        corpus,
        TrainConfig(dim=8, epochs=2, seed=1, early_stop=False),
        context=ExecutionContext(checkpoint_dir=ckpt_dir),
    )
    victim = ckpt_dir / "trainer.ckpt.npz"
    FaultInjector(lambda: None, corrupt_on_calls={1}, corrupt_path=victim)()
    resumed = train_embeddings(
        corpus,
        TrainConfig(dim=8, epochs=2, seed=1, early_stop=False),
        context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True),
    )
    quarantined = [p.name for p in ckpt_dir.iterdir() if ".corrupt." in p.name]
    if not quarantined:
        failures.append("corrupt: checkpoint was not quarantined")
    if not np.array_equal(resumed.vectors, fresh.vectors):
        failures.append("corrupt: restarted result differs from fresh run")
    print(f"[chaos-smoke] corrupt: quarantined={quarantined}")
    (out_dir / "corrupt.summary.json").write_text(
        json.dumps({"quarantined": quarantined, "bitwise_identical": True})
    )
    return failures


def _shm_names() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():  # non-Linux runner
        return set()
    return {p.name for p in shm.iterdir()}


def _cli_env() -> dict:
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    return env


def _interrupt_resume_scenario(graph, out_dir, scratch):
    """SIGTERM a live ``repro embed`` run, then resume to completion."""
    from repro.graph.io import write_edge_list

    failures = []
    env = _cli_env()
    edges = scratch / "graph.edges"
    write_edge_list(graph, edges)
    repro = [sys.executable, "-m", "repro"]
    common = [
        "embed", str(edges),
        "--dim", "12", "--walks", "4", "--length", "20",
        "--epochs", "12", "--seed", "3", "--log-level", "error",
    ]

    ref_out = scratch / "ref.npz"
    rc = subprocess.run(
        repro + common
        + ["-o", str(ref_out), "--checkpoint-dir", str(scratch / "ref")],
        env=env,
    ).returncode
    if rc != 0:
        return [f"interrupt: reference run failed (exit {rc})"]

    before = _shm_names()
    ckpt = scratch / "interrupted"
    manifest = out_dir / "interrupt.manifest.json"
    events = out_dir / "interrupt.events.jsonl"
    # SIGTERM at the start of epoch 2's batches: epoch 1's snapshot is
    # durable, so the run is provably mid-training and resume has a real
    # boundary to restart from.
    try:
        rc = subprocess.run(
            [sys.executable, "-c", SIGNAL_AT, "2"]
            + common
            + [
                "-o", str(scratch / "interrupted.npz"),
                "--checkpoint-dir", str(ckpt),
                "--metrics-out", str(manifest),
                "--log-json", str(events),
            ],
            env=env,
            timeout=120,
        ).returncode
    except subprocess.TimeoutExpired:
        return ["interrupt: run did not wind down after SIGTERM"]
    if rc != 130:
        failures.append(f"interrupt: expected exit 130, got {rc}")
    leaked = _shm_names() - before
    if leaked:
        failures.append(f"interrupt: leaked /dev/shm segments: {sorted(leaked)}")

    report = subprocess.run(
        [sys.executable, "-m", "repro", "report", str(manifest)],
        env=env, capture_output=True, text=True,
    )
    if report.returncode != 0:
        failures.append("interrupt: `repro report` rejected the manifest")
    elif "status: interrupted (reason: signal)" not in report.stdout:
        failures.append("interrupt: report does not show interrupted status")

    resumed_out = scratch / "resumed.npz"
    rc = subprocess.run(
        repro + common
        + ["-o", str(resumed_out), "--checkpoint-dir", str(ckpt), "--resume"],
        env=env,
    ).returncode
    if rc != 0:
        failures.append(f"interrupt: resume run failed (exit {rc})")
    else:
        with np.load(ref_out) as ref, np.load(resumed_out) as res:
            if not np.array_equal(ref["vectors"], res["vectors"]):
                failures.append(
                    "interrupt: resumed embedding differs from the "
                    "uninterrupted reference run"
                )
    print(f"[chaos-smoke] interrupt: exit=130 resume_identical={not failures}")

    dl_manifest = out_dir / "deadline.manifest.json"
    rc = subprocess.run(
        repro + common
        + [
            "-o", str(scratch / "deadline.npz"),
            "--checkpoint-dir", str(scratch / "deadline"),
            "--deadline", "0",
            "--metrics-out", str(dl_manifest),
        ],
        env=env,
    ).returncode
    if rc != 124:
        failures.append(f"deadline: expected exit 124, got {rc}")
    recorded = load_manifest(dl_manifest)
    if recorded["status"] != "interrupted":
        failures.append(f"deadline: manifest status {recorded['status']!r}")
    if recorded.get("interrupt_reason") != "deadline":
        failures.append(
            f"deadline: interrupt_reason {recorded.get('interrupt_reason')!r}"
        )
    print(f"[chaos-smoke] deadline: exit={rc} status={recorded['status']}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output-dir",
        default="chaos_artifacts",
        help="where JSONL event streams and manifests are written",
    )
    args = parser.parse_args(argv)

    if not hogwild_supported():
        print("[chaos-smoke] no shared memory on this platform; skipping")
        return 0

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    graph = planted_partition(n=90, groups=3, alpha=0.7, inter_edges=10, seed=0)
    corpus = generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=5)
    )

    failures = []
    with tempfile.TemporaryDirectory() as scratch_str:
        scratch = Path(scratch_str)
        failures += _run_scenario(
            "kill", corpus, out_dir, scratch, exit_on_calls={1}
        )
        failures += _run_scenario(
            "hang", corpus, out_dir, scratch, hang_on_calls={1}, hang_seconds=3600.0
        )
        failures += _corrupt_checkpoint_scenario(corpus, out_dir, scratch)
        failures += _interrupt_resume_scenario(graph, out_dir, scratch)

    if failures:
        for failure in failures:
            print(f"[chaos-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[chaos-smoke] all recovery paths fired")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
