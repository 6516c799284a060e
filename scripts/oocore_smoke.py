#!/usr/bin/env python
"""Out-of-core smoke for CI: the graph store must beat the memory wall.

End-to-end proof that the mmap-backed store actually changes the
admission decision, not just the code path:

1. ``repro generate`` writes a synthetic community graph.
2. ``repro shard build`` turns it into a 4-shard store;
   ``repro shard verify`` re-hashes every array.
3. A memory budget is computed *between* the two preflight estimates —
   above what the store needs (one shard of CSR resident), below what
   the in-memory graph needs. The gap exists because
   ``estimate_footprint`` knows mmap'd structure is disk, not RSS.
4. ``repro embed`` WITHOUT the store under that budget must be refused
   up front (exit 2, ``status: failed`` / ``budget_exceeded``).
5. ``repro embed --graph-store`` under the SAME budget must complete
   (exit 0) with ``shard.*`` metrics in its run manifest, which
   ``repro report`` must validate.

The budget watchdog interval is set far past the run length so only the
*preflight estimate* decides admission — CI runner RSS baselines are
noisy and are not what this smoke is about.

Usage:
    PYTHONPATH=src python scripts/oocore_smoke.py --output-dir oocore_artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SHARDS = 4
EMBED_FLAGS = [
    "--dim", "16", "--walks", "2", "--length", "20",
    "--epochs", "1", "--seed", "5",
]


def run(argv: list[str], *, expect: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    print(f"$ {' '.join(argv)}", flush=True)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect:
        raise SystemExit(
            f"FAIL: `repro {argv[0]}` exited {proc.returncode}, expected {expect}"
        )
    return proc


def pick_budget(graph_path: Path, store_path: Path) -> int:
    """A memory budget the store fits under and the heap graph does not."""
    from repro.core.model import V2VConfig
    from repro.graph.io import read_edge_list
    from repro.graph.store import GraphStore
    from repro.pipeline import TrainStage, WalkStage
    from repro.resilience.guard import estimate_footprint

    cfg = V2VConfig(dim=16, walks_per_vertex=2, walk_length=20, epochs=1, seed=5)
    stages = [WalkStage(cfg.walk_config()), TrainStage(cfg.train_config())]
    mem_rss = estimate_footprint(stages, read_edge_list(graph_path)).rss_bytes
    store_rss = estimate_footprint(stages, GraphStore.open(store_path)).rss_bytes
    print(
        f"preflight estimates: in-memory {mem_rss} B, "
        f"store {store_rss} B ({SHARDS} shards)"
    )
    if not store_rss < mem_rss:
        raise SystemExit(
            "FAIL: store footprint estimate is not below the in-memory one — "
            "estimate_footprint has lost its mmap awareness"
        )
    return (store_rss + mem_rss) // 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", type=Path, default=Path("oocore_artifacts"))
    args = parser.parse_args()
    out = args.output_dir.resolve()
    out.mkdir(parents=True, exist_ok=True)

    graph = out / "graph.txt"
    store = out / "store"
    run(["generate", "-o", str(graph), "--n", "400", "--groups", "4", "--seed", "0"])
    run([
        "shard", "build", str(graph), "-o", str(store),
        "--shards", str(SHARDS), "--method", "bfs", "--seed", "3",
    ])
    run(["shard", "verify", str(store)])

    sys.path.insert(0, str(REPO / "src"))
    budget = pick_budget(graph, store)
    print(f"memory budget for both runs: {budget} B")
    budget_flags = [
        "--memory-budget", str(budget),
        "--strict-budget",
        "--budget-interval", "600",
    ]

    # In-memory run: preflight must refuse admission before any work.
    mem_manifest = out / "mem_manifest.json"
    run(
        [
            "embed", str(graph), "-o", str(out / "mem_vectors.npz"),
            *EMBED_FLAGS, *budget_flags,
            "--metrics-out", str(mem_manifest),
        ],
        expect=2,
    )
    failed = json.loads(mem_manifest.read_text())
    if failed.get("status") != "failed":
        raise SystemExit(
            f"FAIL: refused run recorded status {failed.get('status')!r}, "
            "expected 'failed'"
        )

    # Same budget, store-backed: must complete.
    manifest = out / "store_manifest.json"
    run(
        [
            "embed", str(graph), "-o", str(out / "store_vectors.npz"),
            "--graph-store", str(store),
            *EMBED_FLAGS, *budget_flags,
            "--metrics-out", str(manifest),
        ],
        expect=0,
    )
    run(["report", str(manifest)])

    recorded = json.loads(manifest.read_text())
    counters = recorded["metrics"]["counters"]
    gauges = recorded["metrics"]["gauges"]
    missing = [k for k in ("shard.walks",) if k not in counters]
    if gauges.get("shard.shards") != float(SHARDS):
        missing.append("shard.shards")
    if missing:
        raise SystemExit(f"FAIL: manifest missing shard metrics: {missing}")
    print(
        f"OK: store run finished under a budget the in-memory run was "
        f"refused at (shard.walks={counters['shard.walks']:.0f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
