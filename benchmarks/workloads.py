"""The three benchmark workloads: seeded inputs, the timed call, exact checks.

Every workload is a closed loop: one caller makes one call at a time and
waits for it. The benchmark derives all inputs from the workload seed; the
program receives only those inputs (amplitudes through `--state`, the
master `--seed`, and the forced path).

- `run_qutrit`: `qrelay run --d 3 --n 4 --mode deferred --noise
  0.9,0.05,0.05` on a random psi, 1000 trials per call. The README's
  flagship call; 27-amplitude registers, so per-call overhead and rng
  sampling dominate.
- `enumerate_d8`: `qrelay enumerate --d 8 --n 4 --mode local`, noiseless.
  4096 paths at the path budget, 512-amplitude registers, forced outcomes
  and a render-heavy report; the only workload in `enumerate_branches`.
- `joint_register`: `qrelay.full_register_chain(2, 7, psi, path)`. Each
  state holds 2^21 amplitudes (32 MiB), past the per-core L2, so `gates`
  and `core` are memory-bound; the only workload that runs
  `reduced_density`. `teleport_hop` never runs here.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

TOL = 1e-12
AMP_BYTES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    hops_per_call: int  # logical hops a call completes, fixed by the workload
    ops_per_call: int  # checked operations: trials, paths or registers
    largest_amplitudes: int  # amplitudes in the largest register a call builds
    op_function: str  # the traced function whose span is one operation
    root: str  # the traced entry point whose span is one call

    @property
    def largest_array_bytes(self) -> int:
        return self.largest_amplitudes * AMP_BYTES


RUN_TRIALS = 1000
RUN_NOISE = (0.9, 0.05, 0.05)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_qutrit", 3, 4, RUN_TRIALS * 4, RUN_TRIALS, 3**3, "chain.run_chain", "cli.main"),
        Workload("enumerate_d8", 8, 4, 8**4 * 4, 8**4, 8**3, "chain.run_chain", "cli.main"),
        Workload(
            "joint_register", 2, 7, 7, 1, 2 ** (3 * 7),
            "chain.full_register_chain", "chain.full_register_chain",
        ),
    )
}


def make_inputs(name: str, seed: int) -> dict:
    """Inputs for one workload, a pure function of (workload, seed)."""
    w = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    amps = rng.standard_normal(w.d) + 1j * rng.standard_normal(w.d)
    amps /= np.linalg.norm(amps)
    inputs = {
        "workload": name,
        "workload_seed": seed,
        "psi": [[float(a.real), float(a.imag)] for a in amps],
        "master_seed": int(rng.integers(2**32)),
    }
    if name == "joint_register":
        inputs["path"] = rng.integers(0, w.d, size=(w.n, 2)).tolist()
    return inputs


def psi_of(inputs: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in inputs["psi"]])


def cli_argv(name: str, inputs: dict, warmup: bool = False) -> list[str]:
    """The command line for a CLI workload; `warmup` shrinks it to one hop."""
    w = WORKLOADS[name]
    n = 1 if warmup else w.n
    state = ",".join(repr(x) for pair in inputs["psi"] for x in pair)
    common = ["--d", str(w.d), "--n", str(n), "--seed", str(inputs["master_seed"]), f"--state={state}"]
    if name == "run_qutrit":
        noise = ",".join(repr(p) for p in RUN_NOISE)
        trials = 1 if warmup else RUN_TRIALS
        return ["run", *common, "--mode", "deferred", "--noise", noise, "--trials", str(trials)]
    return ["enumerate", *common, "--mode", "local"]


def timed_call(qrelay, name: str, inputs: dict, warmup: bool = False):
    """Make one call through qrelay's public entry point.

    Returns (wall seconds, output). The output is (exit code, report text)
    for the CLI workloads and the FullRegisterResult for `joint_register`;
    an exception raised by the call is returned as the output.
    """
    if name == "joint_register":
        w = WORKLOADS[name]
        n = 1 if warmup else w.n
        psi = qrelay.make_state(w.d, psi_of(inputs))
        path = [tuple(pair) for pair in inputs["path"][:n]]
        start = time.perf_counter()
        try:
            output = qrelay.full_register_chain(w.d, n, psi, path)
        except Exception as exc:  # a failed call is counted, not fatal
            output = exc
        return time.perf_counter() - start, output
    argv = cli_argv(name, inputs, warmup)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = qrelay.cli.main(argv)
        wall = time.perf_counter() - start
    return wall, (code, buffer.getvalue())


# -- exact checks: each returns the number of failed operations ---------------


def fidelity_of_phase(psi: np.ndarray, d: int) -> np.ndarray:
    """F(K) = |sum_j |alpha_j|^2 w^(jK)|^2 for K = 0..d-1."""
    probs = np.abs(psi) ** 2
    j = np.arange(d)
    return np.array([abs(np.sum(probs * np.exp(2j * np.pi * j * k / d))) ** 2 for k in range(d)])


def check_run(output, inputs: dict) -> int:
    """Every trial's fidelity is F(K), K = sum of noise exponents mod d;
    deferred_exponent = sum of results mod d; the histogram counts every dit."""
    w = WORKLOADS["run_qutrit"]
    code, text = output
    if code != 0:
        return w.ops_per_call
    report = json.loads(text)
    trials = report["trials"]
    if len(trials) != w.ops_per_call:
        return w.ops_per_call
    expected = fidelity_of_phase(psi_of(inputs), w.d)
    histogram = [0] * w.d
    failed = 0
    for record in trials:
        results, noise = record["results"], record["noise_exponents"]
        ok = (
            len(results) == w.n
            and len(noise) == w.n
            and all(0 <= r < w.d for r in results + noise)
            and record["deferred_exponent"] == sum(results) % w.d
            and abs(record["fidelity"] - expected[sum(noise) % w.d]) <= TOL
        )
        failed += not ok
        for r in results:
            if 0 <= r < w.d:
                histogram[r] += 1
    reported = report["aggregate"]["outcome_histogram"]
    if reported != histogram or sum(reported) != w.ops_per_call * w.n:
        return w.ops_per_call
    return failed


def check_enumerate(output, inputs: dict) -> int:
    """4096 distinct paths, probabilities summing to 1, every final state psi."""
    w = WORKLOADS["enumerate_d8"]
    code, text = output
    if code != 0:
        return w.ops_per_call
    report = json.loads(text)
    paths = report["paths"]
    aggregate = report["aggregate"]
    if (
        len(paths) != w.ops_per_call
        or aggregate["path_count"] != w.ops_per_call
        or abs(aggregate["probability_sum"] - 1.0) > TOL
    ):
        return w.ops_per_call
    psi = psi_of(inputs)
    all_paths = set(itertools.product(range(w.d), repeat=w.n))
    failed = 0
    for entry in paths:
        path = tuple(entry["path"])
        final = np.array([complex(re, im) for re, im in entry["final_state"]])
        ok = path in all_paths and final.shape == psi.shape and np.max(np.abs(final - psi)) <= TOL
        all_paths.discard(path)
        failed += not ok
    return failed


def check_joint(output, inputs: dict) -> int:
    """The received state is psi and every boundary entropy is zero."""
    w = WORKLOADS["joint_register"]
    if isinstance(output, Exception):
        return w.ops_per_call
    final = np.asarray(output.final.amps)
    entropies = output.boundary_entropies
    ok = (
        final.shape == (w.d,)
        and np.max(np.abs(final - psi_of(inputs))) <= TOL
        and len(entropies) == w.n - 1
        and all(e <= TOL for e in entropies)
    )
    return 0 if ok else w.ops_per_call


CHECKS = {"run_qutrit": check_run, "enumerate_d8": check_enumerate, "joint_register": check_joint}
