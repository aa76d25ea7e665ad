"""qrelay benchmark: one workload, one seed, one result line.

    python3 benchmarks/run.py --workload run_qutrit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds nothing: qrelay is imported from
the checkout's `src/`. Steps:

1. Derive the workload inputs from `--seed` (and check that seed + 1 gives
   different inputs of the same size).
2. Untimed pre-check: `python -m qrelay selftest` must exit 0.
3. With `--trace 0`: spawn the measuring child, which reports `hops_per_s`
   (median over calls) and `peak_rss_mb`. `setup_s` is the median
   spawn-to-ready time over that child and `SETUP_SPAWNS` set-up-only
   spawns, half made before it and half after, so that they sample the
   machine at different moments of the run.
   With `--trace 1`: one measuring child alternates untraced and traced
   calls and reports the per-layer metrics.

Every output is checked against an exact oracle; operations that fail count
in `failed` (error rate = failed / attempted). A detail record (inputs,
environment, every sample, every per-function metric) is printed on the line
before the result and written under `benchmarks/out/`. The last stdout line
is the JSON result with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SPAWNS = 6
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _read_cache_sizes() -> dict[str, str]:
    """L2/L3 sizes of cpu0 as the kernel reports them (read-only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = f"{size} (shared by cpus {shared})"
    return sizes


def environment(name: str) -> dict:
    w = workloads.WORKLOADS[name]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_cap": BLAS_THREADS,
        "blas_cap_vars": list(BLAS_VARS),
        "caches": _read_cache_sizes(),
        "largest_array_bytes": w.largest_array_bytes,
        "bandwidth_note": "bytes are computed from array sizes, not measured",
    }


def inputs_for(name: str, seed: int) -> dict:
    inputs = workloads.make_inputs(name, seed)
    other = workloads.make_inputs(name, seed + 1)
    same_size = {k: len(v) for k, v in inputs.items() if isinstance(v, list)} == {
        k: len(v) for k, v in other.items() if isinstance(v, list)
    }
    if not same_size or inputs["psi"] == other["psi"]:
        raise BenchError("seeds must give different inputs of identical size")
    return inputs


def selftest(deadline: float) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "qrelay", "selftest"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"qrelay selftest exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def spawn(argv: list[str], deadline: float) -> tuple[float, str]:
    """Start the child, time spawn-to-`ready`, and return (set-up s, rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"child failed (exit {proc.returncode}): {(first + err).strip()[-800:]}")
    return ready, rest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "qrelay" / "__init__.py").is_file():
        raise BenchError("no qrelay sources under src/ in this checkout")

    name = args.workload
    inputs = inputs_for(name, args.seed)
    selftest(deadline)
    child_args = ["--workload", name, "--inputs", json.dumps(inputs), "--src", str(ROOT / "src")]
    setup_spawns = 0 if args.trace else SETUP_SPAWNS
    setups = [spawn([*child_args, "--setup-only"], deadline)[0] for _ in range(setup_spawns // 2)]
    spans_file = OUT / f"spans-{name}.npz"
    ready, rest = spawn(
        [*child_args, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spans", str(spans_file)],
        deadline,
    )
    setups.append(ready)
    setups += [spawn([*child_args, "--setup-only"], deadline)[0] for _ in range(setup_spawns // 2)]
    child = json.loads(rest.strip().splitlines()[-1])

    w = workloads.WORKLOADS[name]
    calls = child["call_s"]
    if args.trace:
        values = child["layers"]
    else:
        values = {
            "hops_per_s": w.hops_per_call / statistics.median(calls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    attempted, failed = child["attempted"], child["failed"]
    correct = failed == 0
    if args.trace:
        gap = values["trace.self_sum_gap_s"]
        correct = correct and gap <= time.get_clock_info("perf_counter").resolution
    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": inputs,
        "environment": {**environment(name), "numpy": child["numpy"]},
        "error_rate": failed / attempted,
        "calls": len(calls),
        "call_s": calls,
        "setup_samples_s": setups,
        "child": child,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({k: detail[k] for k in ("workload", "seed", "error_rate", "calls", "environment")}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
