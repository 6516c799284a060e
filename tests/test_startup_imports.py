"""Import discipline: a run loads only what it uses.

Each check starts a fresh interpreter with ``PYTHONPATH=src`` and reads
``sys.modules`` after the imports (or the CLI command) under test:

- ``import repro`` and ``import repro.<package>`` load no numpy or scipy;
- the walk-only set-up (what ``WalkStage`` over a ``GraphStore`` needs)
  loads no scipy module;
- the trainer, a fused training run (serial and Hogwild), ``KMeans.fit``
  and ``repro embed`` load no scipy module either: their sparse products
  call scipy's compiled kernels loaded by file path
  (``repro.core._math.sparsetools``);
- ``repro --help`` and ``repro report <manifest>`` load no numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "bench",
    "community",
    "core",
    "datasets",
    "graph",
    "ml",
    "obs",
    "parallel",
    "pipeline",
    "resilience",
    "tasks",
    "viz",
    "walks",
]

WALK_SETUP = """
from repro.graph.io import read_edge_list
from repro.graph.store import GraphStore
from repro.pipeline import ExecutionContext, Pipeline
from repro.pipeline.stages import WalkStage
from repro.walks.engine import RandomWalkConfig
"""

# Runs ``python -m repro ARGS`` and reports the modules loaded at exit.
CLI = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules))))
sys.argv = ["repro", *json.loads(sys.argv[1])]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def loaded_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    proc = _run(code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    """Exit code of ``repro ARGV`` and the modules it loaded."""
    proc = _run(CLI, json.dumps(argv))
    return proc.returncode, set(json.loads(proc.stdout.splitlines()[-1]))


def _under(modules: set[str], top: str) -> set[str]:
    return {m for m in modules if m == top or m.startswith(top + ".")}


def test_import_repro_loads_neither_numpy_nor_scipy():
    loaded = loaded_after("import repro")
    assert not _under(loaded, "numpy")
    assert not _under(loaded, "scipy")


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_loads_no_submodule(package):
    loaded = loaded_after(f"import repro.{package}")
    assert _under(loaded, "repro") == {"repro", "repro._lazy", f"repro.{package}"}
    assert not _under(loaded, "numpy")


def test_walk_only_setup_loads_no_scipy():
    loaded = loaded_after(WALK_SETUP)
    assert "repro.walks.engine" in loaded
    assert not _under(loaded, "scipy")
    assert "repro.core.trainer" not in loaded


def test_trainer_loads_no_linear_algebra():
    loaded = loaded_after("import repro.core.trainer")
    assert not _under(loaded, "scipy")


TRAIN = """
from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.walks.engine import RandomWalkConfig, generate_walks

g = planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)
corpus = generate_walks(g, RandomWalkConfig(walks_per_vertex=4, walk_length=12, seed=0))
result = train_embeddings(
    corpus, TrainConfig(dim=8, epochs=2, kernel="fused", workers={workers}, seed=0)
)
assert result.vectors.shape == (60, 8)
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_training_loads_no_scipy(workers):
    loaded = loaded_after(TRAIN.format(workers=workers))
    assert "repro.core.fused" in loaded
    assert not _under(loaded, "scipy")


def test_kmeans_fit_loads_no_scipy():
    loaded = loaded_after(
        "import numpy as np\n"
        "from repro.ml.kmeans import KMeans\n"
        "x = np.random.default_rng(0).random((50, 3))\n"
        "assert KMeans(3, n_init=4, seed=0).fit(x).labels.shape == (50,)"
    )
    assert not _under(loaded, "scipy")


def test_cli_embed_loads_no_scipy(tmp_path):
    graph = tmp_path / "g.txt"
    code, _ = cli_modules(
        "generate", "-o", str(graph), "--kind", "communities", "--n", "60",
        "--groups", "3", "--alpha", "0.6", "--inter-edges", "10", "--seed", "0",
    )
    assert code == 0
    vectors = tmp_path / "v.npz"
    code, loaded = cli_modules(
        "embed", str(graph), "-o", str(vectors), "--dim", "8", "--walks", "4",
        "--length", "12", "--epochs", "2", "--seed", "0",
    )
    assert code == 0 and vectors.exists()
    assert "repro.core.fused" in loaded
    assert not _under(loaded, "scipy")


def test_cli_help_loads_no_numpy():
    code, loaded = cli_modules("--help")
    assert code == 0
    assert not _under(loaded, "numpy")


def test_cli_report_loads_no_numpy(tmp_path):
    from repro.obs.manifest import build_manifest, write_manifest
    from repro.obs.metrics import MetricsRegistry

    path = tmp_path / "manifest.json"
    write_manifest(path, build_manifest(MetricsRegistry(), status="completed"))
    code, loaded = cli_modules("report", str(path))
    assert code == 0
    assert "repro.obs.report" in loaded
    assert not _under(loaded, "numpy")
