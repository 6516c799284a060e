"""Paper-workload benchmark: one workload, one seed, fresh process per sample.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-detect --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

The orchestrator first writes the workload's inputs (an edge list and its
ground-truth labels) from the seed into ``.perfbench-work/``, untimed and
cached per (workload, seed). It then starts ``child.py`` again and again,
one fresh process per sample, until ``--seconds`` are used up (at least
``MIN_ROUNDS`` rounds). Each sample times its own set-up and one
``Pipeline.execute`` and checks the output; this process reports the
medians. ``--trace 1`` alternates untraced samples with traced ones and
reports the per-layer metrics of the traced ones, the kernel table, and
``trace.overhead_pct``, the traced ``pipeline_s`` against the untraced.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit). The exit code is 0
when every sample passed its checks, 1 when one failed, 2 on bad usage
or a checkout without the program.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
#: A run samples this many graphs in turn, all made from its seed: the
#: quality metrics vary more from graph to graph than from run to run.
GRAPHS_PER_RUN = 3
#: Rounds of samples per run at the least (see run_workload).
MIN_ROUNDS = 3
#: Process starts behind the setup_s median of an untraced run.
MIN_SETUPS = 7
#: Every sample must end well inside the 180 s a run may take.
SAMPLE_TIMEOUT_S = 120.0


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read through its C API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_metadata(workload, seed: int) -> dict:
    """Host and per-workload facts every comparison has to be read against."""
    import numpy as np

    from repro.core.trainer import resolve_kernel
    from repro.resilience.guard import effective_workers

    import workloads

    _, context = workloads.pipeline(workload, seed, labels=None)
    config = workloads.train_config(workload, seed)
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload.name,
        "kernel": resolve_kernel(config) if config else None,
        "train_workers": effective_workers(config.workers) if config else None,
        "walk_workers": context.resolve_workers(),
    }


def probe_width(workload) -> int:
    """How many cores the workload's pipeline keeps busy at once."""
    return workload.train["workers"] if workload.train else 1


def graph_seeds(seed: int) -> list[int]:
    """The seeds of the run's graphs; each also seeds its sample's pipeline."""
    return [seed * GRAPHS_PER_RUN + k for k in range(GRAPHS_PER_RUN)]


def prepare_inputs(workload, seed: int, work: Path) -> Path:
    """The run's input directory, generated once per (workload, seed).

    It holds one subdirectory per graph seed, each with the edge list and
    its labels.
    """
    import workloads

    final = work / "inputs" / f"{workload.name}-{seed}"
    if final.is_dir():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    for graph_seed in graph_seeds(seed):
        (tmp / str(graph_seed)).mkdir(parents=True)
        workloads.generate(workload, graph_seed, tmp / str(graph_seed))
    os.replace(tmp, final)
    return final


def time_probe(width: int) -> float:
    """The host probe in ``width`` processes at once; the slowest one's time.

    A workload that trains on two workers needs both cores, and its
    slower worker sets each epoch's time, so its probe loads both cores
    and reports the slower.
    """
    argv = [sys.executable, str(HERE / "hostprobe.py")]
    procs = [
        subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        for _ in range(width)
    ]
    try:
        times = []
        for proc in procs:
            out, _ = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
            if proc.returncode != 0:
                raise subprocess.CalledProcessError(proc.returncode, argv)
            times.append(float(out))
        return max(times)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def run_sample(
    workload, seed: int, inputs: Path, scratch: Path, src: Path, mode: str
) -> dict:
    """Time the host probe, then start one measured process in ``mode``.

    Returns the sample's report with the probe's time as ``probe_s``.
    """
    probe_s = time_probe(probe_width(workload))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p
    )
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        workload.name,
        str(seed),
        str(inputs),
        str(scratch),
        repr(time.monotonic()),
        mode,
    ]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        out, err = "", f"sample exceeded {SAMPLE_TIMEOUT_S:.0f} s"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = {"ok": False, "error": f"exit {proc.returncode}: {err[-2000:]}"}
    if proc.returncode != 0:
        report["ok"] = False
    report["mode"] = mode
    report["probe_s"] = probe_s
    return report


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize(samples: list[dict], traced: bool) -> dict[str, float]:
    """The metrics the mode reports: medians of times, means of quality.

    End-to-end times are in reference-host seconds (see hostprobe.py): the
    median time scaled by the run's median probe, not sample by sample,
    because one probe is noisier than the run's median of them.
    """
    plain = [s for s in samples if s["mode"] == "run"]
    if not traced:
        scale = hostprobe.REFERENCE_S / _median([s["probe_s"] for s in samples])
        out = {
            "setup_s": _median([s["setup_s"] for s in samples]) * scale,
            "pipeline_s": _median([s["pipeline_s"] for s in plain]) * scale,
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        }
        # A mean, not a median: it averages over the run's graphs.
        for name in plain[0]["quality"]:
            out[name] = statistics.fmean(s["quality"][name] for s in plain)
        return out
    layered = [s for s in samples if s["mode"] == "trace"]
    out = {"host.probe_s": _median([s["probe_s"] for s in samples])}
    for section in ("layers", "kernels"):
        for name in layered[0][section]:
            out[name] = _median([s[section][name] for s in layered])
    untraced = _median([s["pipeline_s"] for s in plain])
    traced_s = _median([s["pipeline_s"] for s in layered])
    out["trace.overhead_pct"] = (traced_s / untraced - 1.0) * 100.0
    return out


def run_workload(workload, args, root: Path, units: dict[str, str]) -> bool:
    """Sample ``workload`` for ``args.seconds``; print and return success.

    ``units`` maps the metrics the mode reports (the manifest's end-to-end
    or per-layer ones) to their units.

    A round is one full sample (untraced runs) or an untraced and a
    traced sample (traced runs), on the next of the run's graphs. Rounds
    go on while the time lasts; untraced runs then top ``setup_s`` up to
    ``MIN_SETUPS`` process starts with set-up-only samples.
    """
    src = root / "src"
    work = root / ".perfbench-work"
    inputs = prepare_inputs(workload, args.seed, work)
    # Before the first sample, so its imports leave bytecode caches behind.
    meta = run_metadata(workload, args.seed)
    schedule = ("run", "trace") if args.trace else ("run",)
    samples: list[dict] = []
    seeds = graph_seeds(args.seed)

    def sample(mode: str, seed: int) -> None:
        report = run_sample(
            workload, seed, inputs / str(seed), work / "sample", src, mode
        )
        samples.append(report)
        brief = {
            k: report.get(k) for k in ("probe_s", "setup_s", "pipeline_s", "quality")
        }
        print(f"{workload.name}: {mode} sample {brief}", file=sys.stderr)

    started = time.monotonic()
    rounds: list[float] = []
    while len(rounds) < MIN_ROUNDS or (
        time.monotonic() - started + _median(rounds) <= args.seconds
    ):
        began = time.monotonic()
        for mode in schedule:
            sample(mode, seeds[len(rounds) % len(seeds)])
        rounds.append(time.monotonic() - began)
    while not args.trace and len(samples) < MIN_SETUPS:
        sample("setup", seeds[len(samples) % len(seeds)])
    failed = [s for s in samples if not s["ok"]]
    for report in failed:
        print(
            f"{workload.name}: {report['mode']} sample failed: {report['error']}",
            file=sys.stderr,
        )
    meta["samples"] = {
        mode: sum(s["mode"] == mode for s in samples)
        for mode in ("run", "trace", "setup")
    }
    if not failed:
        meta["unscaled_median_s"] = {
            key: _median([s[key] for s in samples if key in s])
            for key in ("setup_s", "pipeline_s", "probe_s")
        }
    print("meta " + json.dumps(meta, sort_keys=True))
    values = {} if failed else summarize(samples, bool(args.trace))
    if args.trace:
        spans = work / f"spans-{workload.name}-{args.seed}.json"
        spans.write_text(
            json.dumps([s.get("spans") for s in samples if s["mode"] == "trace"])
        )
        print(f"spans written to {spans}")
    missing = [name for name in units if values and name not in values]
    if missing:
        raise RuntimeError(f"{workload.name} measured no {', '.join(missing)}")
    metrics = {name: values[name] for name in units if values}
    # What only some workloads have (a store, a training stage, detect or
    # predict) cannot be a metric of the manifest, which every workload
    # reports in full; it is printed here for the reader instead.
    details = {name: v for name, v in values.items() if name not in units}
    print("details " + json.dumps(details, sort_keys=True))
    for name, value in metrics.items():
        print(f"{workload.name}  {name:<28} {value:>16.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(samples),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return not failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {root / 'src' / 'repro'}")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [str(HERE), str(root / "src")]
    import workloads

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in reported}
    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        return _fail(f"unknown workload {args.workload!r}")
    ok = True
    for workload in chosen:
        ok = run_workload(workload, args, root, units) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
