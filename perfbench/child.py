"""One measured process: set up, run the workload's pipeline once, check it.

Started fresh for every sample by ``run.py``, so ``setup_s`` (process
start to the first stage: interpreter start, ``import repro``,
``read_edge_list``, ``GraphStore.build``) and ``peak_rss_mb`` belong to
this sample alone. Usage::

    python3 perfbench/child.py WORKLOAD SEED INPUT_DIR SCRATCH_DIR T0 MODE

``T0`` is the spawner's ``time.monotonic()`` just before the process was
started (CLOCK_MONOTONIC is system-wide, so it compares across
processes). ``MODE`` is ``run`` (untraced), ``trace`` (spans, per-layer
metrics and the kernel table) or ``setup`` (stop before the first stage:
a set-up time only). Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _plain_call(_layer, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def main(argv: list[str]) -> int:
    name, seed, inputs, scratch, t0, mode = argv
    workload = workloads.WORKLOADS[name]
    seed, t0 = int(seed), float(t0)
    inputs, scratch = Path(inputs), Path(scratch)
    report: dict = {"ok": False}
    tracer = None
    try:
        if mode == "trace":
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install()
            call = tracer.call
        else:
            call = _plain_call
        graph, view, labels = workloads.setup(workload, seed, inputs, scratch, call)
        pipe, context = workloads.pipeline(workload, seed, labels)
        started = time.monotonic()
        report["setup_s"] = started - t0
        if mode == "setup":
            report["ok"] = True
            return 0
        result = pipe.execute(view, context)
        report.update(
            pipeline_s=time.monotonic() - started,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            report["layers"] = tracer.layers(workload, result, graph, scratch)
            report["kernels"] = layertrace.kernel_table(workload, seed, result, labels)
            report["spans"] = tracer.spans
        report["quality"] = workloads.check(workload, result, graph, view, labels)
        report["ok"] = True
    except workloads.CheckFailed as exc:
        report["error"] = f"check failed: {exc}"
    except Exception:  # noqa: BLE001 - the sample fails, the run goes on
        report["error"] = traceback.format_exc()
    finally:
        if "repro.parallel.persistent" in sys.modules:
            sys.modules["repro.parallel.persistent"].shutdown_pools()
        print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
