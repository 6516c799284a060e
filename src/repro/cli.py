"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's three applications plus the data plumbing:

- ``embed``    — read an edge list, train V2V, save vectors (.npz).
- ``detect``   — embed (or load vectors) and k-means communities to TSV.
- ``predict``  — k-NN label prediction with k-fold cross validation.
- ``layout``   — ForceAtlas coordinates to CSV.
- ``generate`` — write a synthetic benchmark graph to an edge-list file.
- ``shard``    — out-of-core graph stores: ``shard build`` partitions an
  edge list into a memory-mapped CSR store (walk over it with
  ``--graph-store``), ``shard verify`` re-hashes one against its
  integrity record. See docs/scaling.md.
- ``report``   — human summary of a run manifest (``--metrics-out``);
  ``--trace-export`` converts the event stream to Chrome Trace JSON and
  ``--compare`` diffs two manifests with regression highlighting.
- ``top``      — live monitor for a run started with ``--status-file``.
- ``runs``     — the crash-safe run registry: ``runs list`` shows every
  run journaled under a checkpoint directory (sweeping orphans first),
  ``runs resume --latest`` replays the most recent interrupted run with
  its original flags plus ``--resume``.

Every command takes ``--seed`` and is exactly reproducible.

Telemetry: every command runs inside an observability session
(:func:`repro.obs.session`). stdout carries command results only;
structured logs go to stderr (``--log-level``) and, machine-readably, to
``--log-json``; ``--metrics-out`` writes the run manifest on exit.
``--no-telemetry`` opts out entirely (the no-op recorder).

Lifecycle: SIGTERM/SIGINT request a cooperative shutdown that finishes
the current checkpointable unit, writes a final checkpoint, and exits
130; a second signal hard-exits immediately. ``--deadline SECONDS``
bounds the run's wall clock the same way with exit code 124. See
docs/resilience.md ("Run lifecycle") for the full exit-code table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.logging import get_logger

__all__ = ["main", "build_parser", "add_runtime_flags", "runtime_from_args"]

_log = get_logger("cli")


def _size_arg(text: str) -> int:
    """argparse type for ``--memory-budget``/``--disk-budget`` sizes."""
    from repro.resilience.guard import parse_size

    return parse_size(text)


def add_runtime_flags(
    parser: argparse.ArgumentParser,
    *,
    checkpointing: bool = False,
    workers: bool = False,
) -> None:
    """Attach the shared runtime flags to a subcommand parser.

    Telemetry flags are always added; ``checkpointing`` adds
    ``--checkpoint-dir``/``--resume`` and ``workers`` adds
    ``--walk-workers``/``--worker-deadline``/``--max-respawns``.
    :func:`runtime_from_args` turns the parsed result into the
    :class:`repro.pipeline.ExecutionContext` commands run under.
    """
    if checkpointing:
        parser.add_argument(
            "--checkpoint-dir",
            default=None,
            help="directory for atomic walk/trainer checkpoints (durable runs)",
        )
        parser.add_argument(
            "--resume",
            action="store_true",
            help="continue from the checkpoints in --checkpoint-dir",
        )
    if workers:
        parser.add_argument(
            "--walk-workers",
            type=int,
            default=1,
            help="processes for walk generation "
            "(0 = one per available core; walks transfer via shared memory)",
        )
        parser.add_argument(
            "--worker-deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="kill and respawn any parallel worker whose heartbeat "
            "goes silent for SECONDS (default: 30)",
        )
        parser.add_argument(
            "--max-respawns",
            type=int,
            default=3,
            help="respawn budget per worker-count rung before degrading to "
            "fewer workers (requires --worker-deadline; default: 3)",
        )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for the whole run: on expiry the run "
        "stops at the next checkpoint boundary and exits 124 "
        "(resume later with --resume)",
    )
    b = parser.add_argument_group(
        "resource budgets",
        "preflight footprint check + runtime pressure watchdog "
        "(repro.resilience.guard); sizes accept suffixes K/M/G/T",
    )
    b.add_argument(
        "--memory-budget",
        type=_size_arg,
        default=None,
        metavar="SIZE",
        help="peak-RSS ceiling (e.g. 2G): estimated overruns fail fast or "
        "auto-degrade; runtime breaches drive the degradation ladder",
    )
    b.add_argument(
        "--disk-budget",
        type=_size_arg,
        default=None,
        metavar="SIZE",
        help="checkpoint-directory disk ceiling (e.g. 500M)",
    )
    b.add_argument(
        "--strict-budget",
        action="store_true",
        help="fail fast on an estimated overrun instead of auto-degrading "
        "workers to fit",
    )
    b.add_argument(
        "--budget-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="pressure watchdog poll interval (default: 0.5)",
    )
    g = parser.add_argument_group("telemetry")
    g.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default="warning",
        help="verbosity of the human log on stderr (default: warning)",
    )
    g.add_argument(
        "--log-json",
        default=None,
        metavar="PATH",
        help="also write every event (DEBUG and up) as JSONL to PATH",
    )
    g.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run manifest (config + final metrics) to PATH",
    )
    g.add_argument(
        "--trace",
        action="store_true",
        help="mirror span begin/end events on the human sink",
    )
    g.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable observability entirely (no-op recorder)",
    )
    g.add_argument(
        "--profile",
        action="store_true",
        help="sample wall-clock stacks per pipeline stage and per worker; "
        "summaries land in the --metrics-out manifest",
    )
    g.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="sampling rate for --profile (default: 97 Hz)",
    )
    g.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help="keep a live status document at PATH for `repro top`",
    )


def runtime_from_args(args):
    """Build the :class:`repro.pipeline.ExecutionContext` for a command.

    Reads the flags :func:`add_runtime_flags` declares; flags a command
    didn't opt into fall back to their inert defaults, so this is safe to
    call for every subcommand.
    """
    from repro.parallel.pool import resolve_workers
    from repro.pipeline.context import ExecutionContext
    from repro.resilience.supervisor import SupervisorConfig

    supervisor = None
    if getattr(args, "worker_deadline", None) is not None:
        supervisor = SupervisorConfig(
            worker_deadline=args.worker_deadline,
            max_respawns=getattr(args, "max_respawns", 3),
        )
    budget = None
    memory_budget = getattr(args, "memory_budget", None)
    disk_budget = getattr(args, "disk_budget", None)
    if memory_budget is not None or disk_budget is not None:
        from repro.resilience.guard import ResourceBudget

        budget = ResourceBudget(
            memory_bytes=memory_budget,
            disk_bytes=disk_budget,
            auto_degrade=not getattr(args, "strict_budget", False),
            interval=getattr(args, "budget_interval", 0.5),
        )
    token, deadline = getattr(args, "_lifecycle", (None, None))
    return ExecutionContext(
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=getattr(args, "resume", False),
        workers=resolve_workers(getattr(args, "walk_workers", 1)),
        supervisor=supervisor,
        seed=getattr(args, "seed", None),
        cancellation=token,
        deadline=deadline,
        budget=budget,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="V2V graph embeddings (IPDPSW 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_walk_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dim", type=int, default=50, help="embedding dimension")
        p.add_argument("--walks", type=int, default=10, help="walks per vertex (t)")
        p.add_argument("--length", type=int, default=80, help="walk length (l)")
        p.add_argument("--window", type=int, default=5, help="context window (n)")
        p.add_argument("--epochs", type=int, default=5)
        p.add_argument(
            "--mode",
            choices=["uniform", "weighted", "vertex_weighted", "temporal", "node2vec"],
            default="uniform",
        )
        p.add_argument("--time-window", type=float, default=None)
        p.add_argument("--p", type=float, default=1.0, help="node2vec return bias")
        p.add_argument("--q", type=float, default=1.0, help="node2vec in-out bias")
        p.add_argument("--seed", type=int, default=0)

    def add_store_args(p: argparse.ArgumentParser) -> None:
        s = p.add_argument_group(
            "out-of-core graph store",
            "walk over a memory-mapped CSR store (repro.graph.store) "
            "instead of loading the graph into RAM; see docs/scaling.md",
        )
        s.add_argument(
            "--graph-store",
            default=None,
            metavar="DIR",
            help="graph store directory (`repro shard build`); built from "
            "the positional graph on first use when DIR does not exist",
        )
        s.add_argument(
            "--shards",
            type=int,
            default=None,
            metavar="N",
            help="auto-build shard count for --graph-store (default 4)",
        )

    p_embed = sub.add_parser("embed", help="train V2V vectors from an edge list")
    p_embed.add_argument("graph", help="edge-list file (src dst [w [t]])")
    p_embed.add_argument("-o", "--output", required=True, help="output .npz")
    p_embed.add_argument("--directed", action="store_true")
    p_embed.add_argument(
        "--train-workers",
        type=int,
        default=1,
        help="Hogwild training processes over shared weight matrices "
        "(1 = deterministic serial trainer, 0 = one per available core)",
    )
    p_embed.add_argument(
        "--on-error",
        choices=["strict", "skip", "collect"],
        default="strict",
        help="edge-list parse policy: fail fast, drop bad lines, or "
        "drop-and-report",
    )
    add_walk_args(p_embed)
    add_store_args(p_embed)

    p_detect = sub.add_parser("detect", help="detect communities")
    p_detect.add_argument("graph", help="edge-list file")
    p_detect.add_argument("-k", type=int, required=True, help="community count")
    p_detect.add_argument("-o", "--output", required=True, help="output TSV")
    p_detect.add_argument("--directed", action="store_true")
    p_detect.add_argument(
        "--method",
        choices=["v2v", "cnm", "girvan-newman", "louvain"],
        default="v2v",
    )
    p_detect.add_argument("--restarts", type=int, default=100)
    add_walk_args(p_detect)
    add_store_args(p_detect)

    p_predict = sub.add_parser(
        "predict", help="cross-validated k-NN label prediction"
    )
    p_predict.add_argument("vectors", help=".npz written by `embed`")
    p_predict.add_argument("labels", help="one label per line, vertex order")
    p_predict.add_argument("-k", type=int, default=3, help="neighbors")
    p_predict.add_argument("--folds", type=int, default=10)
    p_predict.add_argument("--repeats", type=int, default=1)
    p_predict.add_argument("--seed", type=int, default=0)

    p_link = sub.add_parser(
        "linkpred", help="link-prediction experiment (AUC on held-out edges)"
    )
    p_link.add_argument("graph", help="edge-list file")
    p_link.add_argument("--directed", action="store_true")
    p_link.add_argument(
        "--operator",
        choices=["hadamard", "average", "l1", "l2"],
        default="hadamard",
    )
    p_link.add_argument("--test-fraction", type=float, default=0.3)
    add_walk_args(p_link)

    p_shard = sub.add_parser(
        "shard", help="build / inspect out-of-core graph stores"
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)
    p_shard_build = shard_sub.add_parser(
        "build",
        help="partition an edge list into a memory-mapped CSR store",
    )
    p_shard_build.add_argument("graph", help="edge-list file (src dst [w [t]])")
    p_shard_build.add_argument(
        "-o", "--output", required=True, help="store directory (must not exist)"
    )
    p_shard_build.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    p_shard_build.add_argument(
        "--method",
        choices=["bfs", "label-propagation", "contiguous"],
        default="bfs",
        help="vertex partitioning strategy (default: bfs; locality only — "
        "walk results are identical for every choice)",
    )
    p_shard_build.add_argument("--directed", action="store_true")
    p_shard_build.add_argument("--seed", type=int, default=0)
    p_shard_verify = shard_sub.add_parser(
        "verify",
        help="re-hash a store against its integrity record (corrupt stores "
        "are quarantined)",
    )
    p_shard_verify.add_argument("store", help="store directory")

    p_layout = sub.add_parser("layout", help="ForceAtlas layout to CSV")
    p_layout.add_argument("graph", help="edge-list file")
    p_layout.add_argument("-o", "--output", required=True, help="output CSV")
    p_layout.add_argument("--iterations", type=int, default=200)
    p_layout.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("generate", help="write a synthetic benchmark graph")
    p_gen.add_argument("-o", "--output", required=True, help="output edge list")
    p_gen.add_argument("--kind", choices=["communities", "flights"], default="communities")
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--groups", type=int, default=10)
    p_gen.add_argument("--alpha", type=float, default=0.5)
    p_gen.add_argument("--inter-edges", type=int, default=200)
    p_gen.add_argument("--labels", help="also write ground-truth labels here")
    p_gen.add_argument("--seed", type=int, default=0)

    p_report = sub.add_parser(
        "report", help="summarize a run manifest written by --metrics-out"
    )
    p_report.add_argument("manifest", help="manifest JSON (--metrics-out)")
    p_report.add_argument(
        "--events",
        default=None,
        help="JSONL event stream (defaults to the manifest's events_path)",
    )
    p_report.add_argument(
        "--trace-export",
        default=None,
        metavar="PATH",
        help="also export the event stream as Chrome Trace Event JSON "
        "(loadable in Perfetto / chrome://tracing)",
    )
    p_report.add_argument(
        "--compare",
        default=None,
        metavar="MANIFEST",
        help="diff against another manifest (baseline = positional, "
        "candidate = this one); regressions beyond 10%% are flagged",
    )

    p_top = sub.add_parser(
        "top", help="live monitor for a run started with --status-file"
    )
    # dest "status" — must not collide with the --status-file telemetry
    # flag (dest status_file) or top's own session would clobber the
    # document it is trying to monitor.
    p_top.add_argument("status", help="status document path")
    p_top.add_argument(
        "--interval", type=float, default=1.0, help="refresh seconds"
    )
    p_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_top.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up (exit 2) if no status file appears within SECONDS",
    )

    p_runs = sub.add_parser(
        "runs", help="inspect / resume runs journaled under a checkpoint dir"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser(
        "list",
        help="show every journaled run (sweeps orphaned shm/tmp first)",
    )
    p_runs_list.add_argument(
        "dir", help="checkpoint directory holding runs.jsonl"
    )
    p_runs_resume = runs_sub.add_parser(
        "resume",
        help="replay an interrupted run with its original flags + --resume",
    )
    p_runs_resume.add_argument(
        "dir", help="checkpoint directory holding runs.jsonl"
    )
    pick = p_runs_resume.add_mutually_exclusive_group()
    pick.add_argument(
        "--latest",
        action="store_true",
        help="resume the most recently interrupted run (the default)",
    )
    pick.add_argument(
        "--run-id", default=None, help="resume this specific run id"
    )

    # The pipeline commands get the full runtime surface (durable
    # checkpoints + supervised workers); the rest are telemetry-only.
    for p in (p_embed, p_detect, p_link):
        add_runtime_flags(p, checkpointing=True, workers=True)
    for p in (p_predict, p_layout, p_gen, p_report, p_top, p_runs_list,
              p_runs_resume, p_shard_build, p_shard_verify):
        add_runtime_flags(p)
    return parser


def _load_graph(path: str, directed: bool, errors: str = "strict"):
    from repro.graph.io import read_edge_list

    if errors == "collect":
        bad_lines: list[tuple[int, str, str]] = []
        graph = read_edge_list(
            path, directed=directed or None, errors="collect", collector=bad_lines
        )
        for lineno, _line, message in bad_lines:
            _log.warning(
                "io.malformed_line", path=path, line=lineno, message=message
            )
        if bad_lines:
            _log.warning(
                "io.malformed_lines", path=path, dropped=len(bad_lines)
            )
        return graph
    return read_edge_list(path, directed=directed or None, errors=errors)


def _resolve_graph_input(args):
    """The pipeline input: an in-memory graph, or a memory-mapped store.

    With ``--graph-store DIR`` the command walks over the store's mmap'd
    CSR arrays (read-only pages, faulted in as walks visit them) instead
    of the heap graph. A missing DIR is built once from the positional edge
    list (``--shards``, default 4) and reused by later runs.
    """
    store_path = getattr(args, "graph_store", None)
    errors = getattr(args, "on_error", "strict")
    if store_path is None:
        return _load_graph(args.graph, args.directed, errors=errors)
    from repro.graph.store import GraphStore

    if Path(store_path).exists():
        return GraphStore.open(store_path)
    graph = _load_graph(args.graph, args.directed, errors=errors)
    store = GraphStore.build(
        graph,
        store_path,
        shards=getattr(args, "shards", None) or 4,
        seed=args.seed,
    )
    _log.info(
        "shard.autobuild",
        path=str(store_path),
        shards=store.num_shards,
        n=store.n,
    )
    return store


def _v2v_config(args):
    from repro.core.model import V2VConfig
    from repro.parallel.pool import resolve_workers
    from repro.walks.engine import WalkMode

    return V2VConfig(
        dim=args.dim,
        window=args.window,
        walks_per_vertex=args.walks,
        walk_length=args.length,
        epochs=args.epochs,
        walk_mode=WalkMode(args.mode),
        time_window=args.time_window,
        p=args.p,
        q=args.q,
        train_workers=resolve_workers(getattr(args, "train_workers", 1)),
        seed=args.seed,
        worker_deadline=getattr(args, "worker_deadline", None),
        max_respawns=getattr(args, "max_respawns", 3),
    )


def _check_store_mode(args) -> bool:
    """False (with a stderr message) for walk modes a store can't run."""
    if getattr(args, "graph_store", None) and args.mode == "node2vec":
        print(
            "error: node2vec walks are not supported with --graph-store "
            "(the rejection sampler breaks shard determinism); drop "
            "--graph-store or pick another --mode",
            file=sys.stderr,
        )
        return False
    return True


def _cmd_embed(args) -> int:
    from repro.core.model import V2V

    if not _check_store_mode(args):
        return 2
    graph = _resolve_graph_input(args)
    model = V2V(_v2v_config(args)).fit(graph, context=runtime_from_args(args))
    model.save(args.output)
    result = model.result
    print(
        f"embedded {graph.n} vertices -> {args.output} "
        f"(dim={args.dim}, {result.epochs_run} epochs, "
        f"{result.train_seconds:.2f}s, final loss {result.loss_history[-1]:.4f})"
    )
    return 0


def _cmd_detect(args) -> int:
    from repro.community import (
        cnm_communities,
        girvan_newman_communities,
        louvain_communities,
    )

    if not _check_store_mode(args):
        return 2
    if args.method == "v2v":
        from repro.pipeline import DetectStage, Pipeline, TrainStage, WalkStage

        graph = _resolve_graph_input(args)
        cfg = _v2v_config(args)
        pipeline = Pipeline(
            [
                WalkStage(cfg.walk_config()),
                TrainStage(cfg.train_config()),
                DetectStage(args.k, n_init=args.restarts, seed=args.seed),
            ]
        )
        # A store is built undirected already; only the heap graph needs
        # the symmetrization pass.
        if graph.directed and hasattr(graph, "to_undirected"):
            graph = graph.to_undirected()
        result = pipeline.execute(
            graph,
            context=runtime_from_args(args),
        )
        membership = result.value
        print(
            f"v2v: train {result.seconds_for('walks', 'train'):.2f}s, "
            f"cluster {result.seconds_for('detect'):.4f}s"
        )
    elif args.method == "cnm":
        membership = cnm_communities(
            _load_graph(args.graph, args.directed), target_communities=args.k
        )
    elif args.method == "girvan-newman":
        membership = girvan_newman_communities(
            _load_graph(args.graph, args.directed),
            target_communities=args.k,
            seed=args.seed,
        )
    else:
        membership = louvain_communities(
            _load_graph(args.graph, args.directed), seed=args.seed
        )
    with Path(args.output).open("w") as fh:
        fh.write("vertex\tcommunity\n")
        for v, c in enumerate(membership):
            fh.write(f"{v}\t{int(c)}\n")
    print(
        f"{args.method}: {int(membership.max()) + 1} communities -> {args.output}"
    )
    return 0


def _cmd_predict(args) -> int:
    import numpy as np

    from repro.pipeline import Pipeline, PredictStage

    with np.load(args.vectors, allow_pickle=False) as data:
        vectors = data["vectors"]
    labels = np.asarray(
        [line.strip() for line in Path(args.labels).read_text().splitlines() if line.strip()]
    )
    if labels.shape[0] != vectors.shape[0]:
        _log.error(
            "predict.label_mismatch",
            labels=int(labels.shape[0]),
            vectors=int(vectors.shape[0]),
        )
        return 2
    acc = Pipeline(
        [
            PredictStage(
                labels,
                k=args.k,
                folds=args.folds,
                repeats=args.repeats,
                seed=args.seed,
            )
        ]
    ).run(vectors, context=runtime_from_args(args))
    print(f"{args.folds}-fold k-NN (k={args.k}) accuracy: {acc:.4f}")
    return 0


def _cmd_linkpred(args) -> int:
    from repro.tasks.link_prediction import link_prediction_experiment

    graph = _load_graph(args.graph, args.directed)
    result = link_prediction_experiment(
        graph,
        config=_v2v_config(args),
        operator=args.operator,
        test_fraction=args.test_fraction,
        seed=args.seed,
        context=runtime_from_args(args),
    )
    print(
        f"link prediction ({args.operator}, dim={result.dim}): "
        f"ROC AUC {result.auc:.4f} on {result.test_edges} held-out edges "
        f"({result.train_edges} training edges)"
    )
    return 0


def _cmd_layout(args) -> int:
    from repro.pipeline import LayoutStage, Pipeline

    graph = _load_graph(args.graph, directed=False)
    positions = Pipeline(
        [LayoutStage(iterations=args.iterations, seed=args.seed)]
    ).run(graph, context=runtime_from_args(args))
    with Path(args.output).open("w") as fh:
        fh.write("vertex,x,y\n")
        for v, (x, y) in enumerate(positions):
            fh.write(f"{v},{x:.6f},{y:.6f}\n")
    print(f"layout ({args.iterations} iterations) -> {args.output}")
    return 0


def _cmd_generate(args) -> int:
    from repro.graph.io import write_edge_list

    if args.kind == "communities":
        from repro.datasets.synthetic import community_benchmark

        graph = community_benchmark(
            args.alpha,
            n=args.n,
            groups=args.groups,
            inter_edges=args.inter_edges,
            seed=args.seed,
        )
        label_name = "community"
    else:
        from repro.datasets.openflights import OpenFlightsSpec, synthetic_openflights

        graph = synthetic_openflights(
            OpenFlightsSpec(num_airports=args.n, seed=args.seed)
        )
        label_name = "country"
    write_edge_list(graph, args.output)
    print(f"{args.kind} graph (n={graph.n}, m={graph.num_edges}) -> {args.output}")
    if args.labels:
        values = graph.vertex_labels(label_name)
        Path(args.labels).write_text("\n".join(str(v) for v in values) + "\n")
        print(f"{label_name} labels -> {args.labels}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.manifest import ManifestError, load_manifest
    from repro.obs.report import compare_manifests, render_report

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        _log.error("report.invalid_manifest", path=args.manifest, error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.compare is not None:
        try:
            other = load_manifest(args.compare)
        except ManifestError as exc:
            _log.error(
                "report.invalid_manifest", path=args.compare, error=str(exc)
            )
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(compare_manifests(manifest, other))
        return 0

    print(render_report(manifest, events_path=args.events))

    if args.trace_export is not None:
        from repro.obs.export import write_chrome_trace
        from repro.obs.logging import parse_jsonl

        events_path = args.events or manifest.get("events_path")
        if not events_path or not Path(events_path).is_file():
            print(
                "error: --trace-export needs the run's JSONL event stream "
                "(pass --events or run with --log-json)",
                file=sys.stderr,
            )
            return 2
        events = parse_jsonl(events_path, on_error="skip")
        trace = write_chrome_trace(
            args.trace_export, events, manifest=manifest
        )
        print(
            f"chrome trace ({len(trace['traceEvents'])} events) -> "
            f"{args.trace_export}"
        )
    return 0


def _cmd_runs(args) -> int:
    import time as _time

    from repro.resilience.registry import RunRegistry

    registry = RunRegistry(args.dir)
    swept = registry.sweep()
    if args.runs_command == "list":
        runs = registry.runs()
        if not runs:
            print(f"no runs recorded under {args.dir}")
            return 0
        print(f"{'RUN ID':<14} {'STATUS':<12} {'PID':<8} {'AGE':<8} COMMAND")
        now = _time.time()
        for run in runs:
            age_s = max(now - (run.updated_unix or now), 0)
            if age_s >= 3600:
                age = f"{age_s / 3600:.1f}h"
            elif age_s >= 60:
                age = f"{age_s / 60:.0f}m"
            else:
                age = f"{age_s:.0f}s"
            invocation = " ".join(run.argv) or (run.command or "?")
            status = run.status + (f" ({run.reason})" if run.reason else "")
            print(
                f"{run.run_id:<14} {status:<12} {run.pid:<8} {age:<8} "
                f"{invocation}"
            )
        if swept["orphaned_runs"] or swept["shm_segments_removed"]:
            print(
                f"swept: {len(swept['orphaned_runs'])} orphaned run(s), "
                f"{len(swept['shm_segments_removed'])} shm segment(s), "
                f"{swept['tmp_files_removed']} tmp file(s)"
            )
        return 0

    # resume
    if args.run_id is not None:
        run = next(
            (r for r in registry.runs() if r.run_id == args.run_id), None
        )
        if run is None:
            print(f"error: no run {args.run_id!r} in {args.dir}", file=sys.stderr)
            return 2
        if not run.resumable:
            print(
                f"error: run {run.run_id} is {run.status}, not resumable",
                file=sys.stderr,
            )
            return 2
    else:
        run = registry.latest_resumable()
        if run is None:
            print(f"error: no resumable run under {args.dir}", file=sys.stderr)
            return 2
    cmd_argv = list(run.argv)
    if "--resume" not in cmd_argv:
        cmd_argv.append("--resume")
    # Budget overrides: a run that died of resource pressure is usually
    # resumed with a *raised* ceiling. Appended last, so they win over
    # the recorded flags (argparse keeps the final occurrence).
    if args.memory_budget is not None:
        cmd_argv += ["--memory-budget", str(args.memory_budget)]
    if args.disk_budget is not None:
        cmd_argv += ["--disk-budget", str(args.disk_budget)]
    print(f"resuming run {run.run_id} ({run.status}): repro {' '.join(cmd_argv)}")
    # A fresh process, not a recursive main(): the resumed run gets its
    # own signal handlers, observability session, and journal entry.
    import subprocess

    return subprocess.run([sys.executable, "-m", "repro", *cmd_argv]).returncode


def _cmd_shard(args) -> int:
    import numpy as np

    from repro.graph.store import GraphStore, StoreCorrupt

    if args.shard_command == "build":
        if Path(args.output).exists():
            print(
                f"error: {args.output} already exists (stores are "
                "build-once; point -o somewhere fresh or remove it first)",
                file=sys.stderr,
            )
            return 2
        graph = _load_graph(args.graph, args.directed)
        store = GraphStore.build(
            graph,
            args.output,
            shards=args.shards,
            method=args.method.replace("-", "_"),
            seed=args.seed,
        )
        sizes = np.diff(store.shard_bounds)
        print(
            f"store (n={store.n}, m={store.num_edges}, "
            f"{store.num_shards} shards via {args.method}, "
            f"sizes {sizes.min()}..{sizes.max()}) -> {args.output}"
        )
        return 0

    # verify
    try:
        store = GraphStore.open(args.store)
        store.verify()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StoreCorrupt as exc:
        print(f"error: {exc} (store quarantined)", file=sys.stderr)
        return 2
    print(
        f"store ok (n={store.n}, m={store.num_edges}, "
        f"{store.num_shards} shards, "
        f"{store.manifest['integrity']['algo']} verified)"
    )
    return 0


def _cmd_top(args) -> int:
    from repro.obs.live import top_command

    return top_command(
        args.status,
        interval=args.interval,
        once=args.once,
        timeout=args.timeout,
    )


COMMANDS = {
    "embed": _cmd_embed,
    "detect": _cmd_detect,
    "predict": _cmd_predict,
    "linkpred": _cmd_linkpred,
    "layout": _cmd_layout,
    "generate": _cmd_generate,
    "shard": _cmd_shard,
    "report": _cmd_report,
    "top": _cmd_top,
    "runs": _cmd_runs,
}

# argparse dests of the telemetry flags; everything else that is a plain
# scalar goes into the manifest's config block.
_OBS_ARG_KEYS = (
    "log_level",
    "log_json",
    "metrics_out",
    "trace",
    "no_telemetry",
    "profile",
    "profile_hz",
    "status_file",
)


def _obs_config(args):
    from repro.obs.profiler import DEFAULT_HZ
    from repro.obs.recorder import ObsConfig

    return ObsConfig(
        enabled=not args.no_telemetry,
        log_level=args.log_level,
        log_json=args.log_json,
        metrics_out=args.metrics_out,
        trace=args.trace,
        profile=getattr(args, "profile", False),
        profile_hz=getattr(args, "profile_hz", None) or DEFAULT_HZ,
        status_path=getattr(args, "status_file", None),
    )


def _run_config(args) -> dict:
    return {
        k: v
        for k, v in vars(args).items()
        if k not in _OBS_ARG_KEYS
        and (v is None or isinstance(v, (str, int, float, bool)))
    }


def _open_registry(args, raw_argv: list[str]):
    """Journal this run in the checkpoint dir's registry, if it has one.

    Also the startup sweep point: orphaned shm segments and torn tmp
    files from pid-gone runs are reclaimed before this run allocates.
    """
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if checkpoint_dir is None:
        return None
    from repro.obs.manifest import config_fingerprint
    from repro.resilience.registry import RunRegistry

    registry = RunRegistry(checkpoint_dir)
    registry.sweep()
    registry.open_run(
        command=args.command,
        argv=raw_argv,
        config_fingerprint=config_fingerprint(_run_config(args)),
    )
    return registry


def _failure_reason(exc: BaseException) -> str | None:
    """The journal reason of a failure ``main`` reports as exit 2, else None.

    Called only once a run has failed, so a run that succeeds never loads
    the modules that define these errors (``repro report`` loads no numpy).
    """
    from repro.graph.store import StoreCorrupt
    from repro.resilience.checkpoint import DiskFull
    from repro.resilience.guard import BudgetExceeded

    for kind, reason in (
        (BudgetExceeded, "budget_exceeded"),
        (DiskFull, "disk_full"),
        (StoreCorrupt, "store_corrupt"),
    ):
        if isinstance(exc, kind):
            return reason
    return None


def main(argv: list[str] | None = None) -> int:
    from repro.obs.recorder import session
    from repro.resilience.lifecycle import (
        EXIT_INTERRUPTED,
        CancellationToken,
        Deadline,
        RunInterrupted,
        signal_guard,
    )

    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    deadline_s = getattr(args, "deadline", None)
    token = CancellationToken()
    deadline = Deadline(deadline_s) if deadline_s is not None else None
    # runtime_from_args picks the pair up and puts it on the
    # ExecutionContext; engines then poll the ambient scope.
    args._lifecycle = (token, deadline)
    registry = _open_registry(args, raw_argv)
    try:
        # signal_guard() nests inside session(): an escaping
        # RunInterrupted restores default signal handling first, then
        # session writes the manifest (status: interrupted) — so a
        # signal during manifest writing terminates instead of looping.
        with session(_obs_config(args), run_config=_run_config(args)):
            with signal_guard(token, deadline=deadline):
                rc = COMMANDS[args.command](args)
        if registry is not None:
            registry.close_run(
                "completed" if rc == 0 else "failed",
                reason=None if rc == 0 else f"exit_{rc}",
            )
        return rc
    except RunInterrupted as exc:
        if registry is not None:
            registry.close_run("interrupted", reason=exc.reason)
        _log.warning(
            "run.interrupted", reason=exc.reason, exit_code=exc.exit_code
        )
        return exc.exit_code
    except KeyboardInterrupt:
        # A Ctrl-C that beat the cooperative checks (or arrived outside
        # the guard): same contract as RunInterrupted, one structured
        # line instead of a traceback.
        if registry is not None:
            registry.close_run("interrupted", reason="keyboard_interrupt")
        _log.warning(
            "run.interrupted",
            reason="keyboard_interrupt",
            exit_code=EXIT_INTERRUPTED,
        )
        return EXIT_INTERRUPTED
    except BaseException as exc:
        reason = _failure_reason(exc)
        if registry is not None:
            registry.close_run("failed", reason=reason or "exception")
        if reason is None:
            raise
        _log.error(f"run.{reason}", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
