"""One single-threaded measuring process for one workload.

Started by run.py with `PYTHONPATH=<checkout>/src` and BLAS threads capped.
It imports qrelay, makes one minimal warm-up call and prints `ready`; the
parent times spawn-to-ready as set-up. With `--setup-only` it stops there.
Otherwise it makes one full-size warm-up call, then calls the workload in a
closed loop for `--seconds`, checking every output, and prints one JSON
summary line. With `--trace 1` it alternates untraced and traced calls so
the trace overhead is measured in the same process, and writes the spans
to `--spans`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import workloads
from spans import SpanRecorder, layer_metrics


def _import_qrelay(src: Path):
    import qrelay
    import qrelay.cli  # noqa: F401  (the CLI entry point the workloads call)

    where = Path(qrelay.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"qrelay was imported from {where}, not from {src}")
    return qrelay


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--inputs", required=True, help="JSON inputs made by run.py")
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    name = args.workload
    inputs = json.loads(args.inputs)
    qrelay = _import_qrelay(args.src)
    workloads.timed_call(qrelay, name, inputs, warmup=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    spec = workloads.WORKLOADS[name]
    check = workloads.CHECKS[name]
    attempted = failed = 0
    first_report = None

    def call() -> float:
        nonlocal attempted, failed, first_report
        wall, output = workloads.timed_call(qrelay, name, inputs)
        bad = check(output, inputs)
        if isinstance(output, tuple):
            # repeated calls at the same seed must give byte-identical reports
            if first_report is None:
                first_report = output[1]
            elif output[1] != first_report:
                bad = spec.ops_per_call
        attempted += spec.ops_per_call
        failed += bad
        return wall

    call()  # full-size warm-up, checked but not timed
    untraced: list[float] = []
    traced: list[float] = []
    recorder = None
    if args.trace:
        recorder = SpanRecorder(qrelay, op_function=spec.op_function)
    deadline = time.perf_counter() + args.seconds
    while True:
        if recorder is not None and len(traced) < len(untraced):
            with recorder:
                traced.append(call())
        else:
            untraced.append(call())
        if time.perf_counter() >= deadline and (recorder is None or traced):
            break

    summary = {
        "attempted": attempted,
        "failed": failed,
        "call_s": untraced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
    }
    if recorder is not None:
        layers = layer_metrics(recorder, spec.root, spec.hops_per_call)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        hops = layers["teleport.teleport_hop.calls"]
        unique = sum(spec.d**i for i in range(1, spec.n + 1))
        inside = layers["chain.enumerate_branches.calls"] > 0
        layers["chain.enumerate_branches.unique_hop_ratio"] = unique / hops if inside else 0.0
        summary["traced_call_s"] = traced
        summary["layers"] = layers
        summary["ops_traced"] = recorder.op_count
        if args.spans:
            recorder.save(args.spans)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
