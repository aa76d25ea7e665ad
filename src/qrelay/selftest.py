"""Embedded correctness checks and the `qrelay selftest` command, `main`.

Each check is independent of the code path it validates: the golden
matrices are hard-coded, the expansion oracle is a formula rather than a
circuit, permutations are rebuilt from basis arithmetic, the joint
3n-qudit register is compared with the factorized chain, and the CLI's
closed-form engines are compared with the state-vector chain.
It is the top layer: it imports `cli`, and only `cli.main` imports it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import gates
from .chain import enumerate_branches, full_register_chain, run_chain
from .cli import ExperimentConfig, cmd_enumerate, cmd_run
from .core import ChainConfig, CorrectionMode, NoiseSpec, flat_index, random_state, root_of_unity
from .teleport import hop_circuit, hop_expansion, teleport_hop

TOL = 1e-12

# qutrit CNOT |a,b> -> |a,(a+b) mod 3>, written out rather than derived
QUTRIT_CNOT_GOLDEN = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=np.complex128,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_qutrit_cnot_golden() -> tuple[bool, str]:
    deviation = float(np.max(np.abs(gates.cnot(3).mat - QUTRIT_CNOT_GOLDEN)))
    return deviation == 0.0, f"max deviation {deviation}"


def basis_permutation_cnot(d: int) -> np.ndarray:
    """Reference CNOT built column-by-column from |a,b> -> |a,(a+b) mod d>."""
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            mat[flat_index(d, (a, (a + b) % d)), flat_index(d, (a, b))] = 1.0
    return mat


def check_direct_sum_permutation() -> tuple[bool, str]:
    bad = [d for d in range(2, 17) if not np.array_equal(gates.cnot(d).mat, basis_permutation_cnot(d))]
    return not bad, f"mismatch for d={bad}"


def check_circuit_matches_expansion() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(20):
            psi = random_state(d, 1, rng)
            circuit = hop_circuit(psi).amps
            expansion = hop_expansion(psi).amps
            worst = max(worst, float(np.max(np.abs(circuit - expansion))))
    return worst <= TOL, f"max deviation {worst:.3e}"


def check_exact_recovery() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for d in (2, 3, 5):
        for _ in range(5):
            psi = random_state(d, 1, rng)
            for a in range(d):
                for b in range(d):
                    hop = teleport_hop(psi, CorrectionMode.LOCAL_EACH_HOP, forced=(a, b))
                    worst = max(worst, float(np.max(np.abs(hop.bob_post.amps - psi.amps))))
    return worst <= TOL, f"max deviation {worst:.3e}"


def check_strategy_equivalence() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for d, n in ((2, 4), (3, 3), (5, 2)):
        noise = NoiseSpec.noiseless(d)
        for _ in range(5):
            psi = random_state(d, 1, rng)
            path = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(n)]
            final = {}
            for mode in CorrectionMode:
                config = ChainConfig(d=d, n=n, mode=mode, noise=noise, seed=0)
                final[mode] = run_chain(config, psi, forced_outcomes=path).final.amps
            delta = np.abs(final[CorrectionMode.LOCAL_EACH_HOP] - final[CorrectionMode.DEFERRED_FINAL])
            worst = max(worst, float(np.max(delta)))
    return worst <= TOL, f"max deviation {worst:.3e}"


# the gates the sweep builds for d = 2..16, by name; its Z^d, X^d and Weyl laws
# take Z and X from here too
GATE_CONSTRUCTORS: dict[str, Callable[[int], gates.GateMatrix]] = {
    "pauli_z": gates.pauli_z,
    "pauli_x": gates.pauli_x,
    "hadamard": gates.hadamard,
    "hadamard_inverse": gates.hadamard_inverse,
    "cnot": gates.cnot,
    "cnot_dagger": gates.cnot_dagger,
    "pauli_z_power": lambda d: gates.pauli_z_power(d, d - 1),
}


def check_unitarity_sweep() -> tuple[bool, str]:
    """Unitarity of every constructor in GATE_CONSTRUCTORS plus the cyclic and
    commutation laws of its Z and X.

    A constructor passes if it builds: GateMatrix refuses a non-unitary matrix.
    """
    failures = []
    for d in range(2, 17):
        built = {}
        for name, build in GATE_CONSTRUCTORS.items():
            try:
                built[name] = build(d)
            except ValueError as exc:
                failures.append(f"{name}(d={d}): {exc}")
        if "pauli_z" not in built or "pauli_x" not in built:
            continue  # failed above; the laws need both
        z, x = built["pauli_z"], built["pauli_x"]
        for law, deviation in (
            (f"Z^{d} != I", gates.gate_power(z, d).mat - np.eye(d)),
            (f"X^{d} != I", gates.gate_power(x, d).mat - np.eye(d)),
            ("ZX != wXZ", z.mat @ x.mat - root_of_unity(d, 1) * (x.mat @ z.mat)),
        ):
            if float(np.max(np.abs(deviation))) > TOL:
                failures.append(f"{law} for d={d}")
    return not failures, "; ".join(failures)


def check_noiseless_transmission() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    worst = 1.0
    for d, n in ((2, 5), (3, 4)):
        psi = random_state(d, 1, rng)
        config = ChainConfig(
            d=d, n=n, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(d), seed=17
        )
        worst = min(worst, run_chain(config, psi).fidelity_vs_initial)
    return worst >= 1.0 - TOL, f"min fidelity {worst!r}"


def check_joint_register() -> tuple[bool, str]:
    """The joint 3n-qudit register for d = 2, 3, 4 and 5 at n = 8, 5, 4 and 3,
    and for the paper's d = 16 at n = 2 and at n = 100, both modes: the final
    state is psi, every handoff boundary is unentangled, and the final state
    equals run_chain's on the same forced path."""
    rng = np.random.default_rng(29)
    failures = []
    for d, n in ((2, 8), (3, 5), (4, 4), (5, 3), (16, 2), (16, 100)):
        psi = random_state(d, 1, rng)
        path = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(n)]
        for mode in CorrectionMode:
            joint = full_register_chain(d, n, psi, path, mode)
            config = ChainConfig(d=d, n=n, mode=mode, noise=NoiseSpec.noiseless(d), seed=0)
            factorized = run_chain(config, psi, forced_outcomes=path).final
            if (
                float(np.max(np.abs(joint.final.amps - psi.amps))) > TOL
                or float(np.max(np.abs(joint.final.amps - factorized.amps))) > TOL
                or max(joint.boundary_entropies) > TOL
            ):
                failures.append(f"d={d} {mode.value} path {path}")
    return not failures, "; ".join(failures)


def check_engines_match_oracles() -> tuple[bool, str]:
    """The rendered `run` and `enumerate` reports against the state-vector
    oracles in both modes: `run` trial for trial against
    `run_chain(..., trial=i)` at d=3, n=3, and `enumerate` path by path
    against `enumerate_branches` at d=3, n=2, where the fixed channel's
    total exponent K = n*k mod d is not 0. Parsing the report text checks
    the hand-written records, their `null` and their floats, too."""
    failures = []
    noisy = ChainConfig(
        d=3, n=3, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec((0.4, 0.3, 0.3)), seed=19
    )
    fixed = replace(noisy, n=2, noise=NoiseSpec((0.0, 1.0, 0.0)))
    for mode in CorrectionMode:
        config = ExperimentConfig(chain=replace(noisy, mode=mode), trials=6, state="random")
        trials = json.loads(cmd_run(config))["trials"]
        if len(trials) != config.trials:
            failures.append(f"{mode.value} run lists {len(trials)} trials, not {config.trials}")
        for i, record in enumerate(trials):
            oracle = run_chain(config.chain, config.psi0, trial=i)
            if (
                record["trial"] != i
                or record["results"] != list(oracle.results)
                or record["noise_exponents"] != list(oracle.noise_exponents)
                or record["deferred_exponent"] != oracle.deferred_exponent
                or abs(record["fidelity"] - oracle.fidelity_vs_initial) > TOL
            ):
                failures.append(f"{mode.value} run trial {i}")

        config = ExperimentConfig(chain=replace(fixed, mode=mode), trials=None, state="random")
        paths = json.loads(cmd_enumerate(config))["paths"]
        branches = enumerate_branches(config.chain, config.psi0)
        if len(paths) != len(branches):
            failures.append(
                f"{mode.value} enumerate lists {len(paths)} paths, the oracle {len(branches)}"
            )
        for record, branch in zip(paths, branches):
            final = np.array([complex(re, im) for re, im in record["final_state"]])
            if (
                tuple(record["path"]) != branch.path
                or record["probability"] != branch.probability
                or abs(record["fidelity"] - branch.fidelity) > TOL
                or float(np.max(np.abs(final - branch.final.amps))) > TOL
            ):
                failures.append(f"{mode.value} enumerate path {record['path']}")
    return not failures, "; ".join(failures)


# every check, by the name its PASS or FAIL line gives, in the order they print
CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "qutrit cnot golden matrix": check_qutrit_cnot_golden,
    "cnot direct sum equals basis permutation": check_direct_sum_permutation,
    "hop circuit matches closed-form expansion": check_circuit_matches_expansion,
    "corrected hop returns the input exactly": check_exact_recovery,
    "local and deferred corrections agree": check_strategy_equivalence,
    "gate unitarity and commutation sweep": check_unitarity_sweep,
    "noiseless chain preserves fidelity": check_noiseless_transmission,
    "joint register matches psi and the factorized chain": check_joint_register,
    "closed-form engines match the state-vector oracles": check_engines_match_oracles,
}


def run_all() -> list[CheckResult]:
    """Run every check in CHECKS. Each returns (passed, detail); an Exception a
    check raises is its FAIL, with `<ExceptionType>: <message>` as the detail,
    and the checks after it still run."""
    results = []
    for name, check in CHECKS.items():
        try:
            passed, detail = check()
        except Exception as exc:  # a check that raises has failed; it must not stop the others
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), "" if passed else detail))
    return results


def main() -> int:
    """`qrelay selftest`: one PASS or FAIL line per check; 0 iff all pass, else 3."""
    results = run_all()
    for check in results:
        print(f"PASS {check.name}" if check.passed else f"FAIL {check.name}: {check.detail}")
    failed = [check.name for check in results if not check.passed]
    if failed:
        print(f"self-test failed: {', '.join(failed)}", file=sys.stderr)
    return 3 if failed else 0
