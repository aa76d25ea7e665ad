"""Embedded correctness checks, runnable from the CLI without pytest.

Each check is independent of the code path it validates: the golden
matrices are hard-coded, the expansion oracle is a formula rather than a
circuit, permutations are rebuilt from basis arithmetic, the joint
3n-qudit register is compared with the factorized chain, and the CLI's
closed-form engines are compared with the state-vector chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import gates
from .chain import ChainConfig, NoiseSpec, enumerate_branches, full_register_chain, run_chain
from .core import flat_index, random_state, root_of_unity
from .teleport import CorrectionMode, hop_circuit, hop_expansion, prepare_hop, teleport_hop

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


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), "" if passed else detail)


def check_qutrit_cnot_golden() -> CheckResult:
    deviation = float(np.max(np.abs(gates.cnot(3).mat - QUTRIT_CNOT_GOLDEN)))
    return _result("qutrit cnot golden matrix", deviation == 0.0, f"max deviation {deviation}")


def basis_permutation_cnot(d: int) -> np.ndarray:
    """Reference CNOT built column-by-column from |a,b> -> |a,(a+b) mod d>."""
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            mat[flat_index(d, (a, (a + b) % d)), flat_index(d, (a, b))] = 1.0
    return mat


def check_direct_sum_permutation() -> CheckResult:
    bad = [d for d in range(2, 17) if not np.array_equal(gates.cnot(d).mat, basis_permutation_cnot(d))]
    return _result("cnot direct sum equals basis permutation", not bad, f"mismatch for d={bad}")


def check_circuit_matches_expansion() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(20):
            psi = random_state(d, 1, rng)
            circuit = hop_circuit(prepare_hop(psi)).amps
            expansion = hop_expansion(psi).amps
            worst = max(worst, float(np.max(np.abs(circuit - expansion))))
    return _result(
        "hop circuit matches closed-form expansion", worst <= TOL, f"max deviation {worst:.3e}"
    )


def check_exact_recovery() -> CheckResult:
    rng = np.random.default_rng(11)
    worst = 0.0
    for d in (2, 3, 5):
        for _ in range(5):
            psi = random_state(d, 1, rng)
            for a in range(d):
                for b in range(d):
                    hop = teleport_hop(psi, CorrectionMode.LOCAL_EACH_HOP, forced=(a, b))
                    worst = max(worst, float(np.max(np.abs(hop.bob_post.amps - psi.amps))))
    return _result(
        "corrected hop returns the input exactly", worst <= TOL, f"max deviation {worst:.3e}"
    )


def check_strategy_equivalence() -> CheckResult:
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
    return _result(
        "local and deferred corrections agree", worst <= TOL, f"max deviation {worst:.3e}"
    )


def check_unitarity_sweep(
    hadamard_factory: Callable[[int], gates.GateMatrix] = gates.hadamard,
) -> CheckResult:
    """Unitarity of every constructor plus the cyclic and commutation laws.

    `hadamard_factory` is an injection point so a deliberately corrupted
    gate can prove the sweep is able to fail.
    """
    failures = []
    for d in range(2, 17):
        z, x = gates.pauli_z(d), gates.pauli_x(d)
        constructors = {
            "pauli_z": z,
            "pauli_x": x,
            "hadamard": hadamard_factory(d),
            "hadamard_inverse": gates.hadamard_inverse(d),
            "cnot": gates.cnot(d),
            "cnot_dagger": gates.cnot_dagger(d),
            "pauli_z_power": gates.pauli_z_power(d, d - 1),
        }
        for name, gate in constructors.items():
            if not gate.unitary:
                failures.append(f"{name}(d={d}) not unitary")
        eye = np.eye(d)
        if float(np.max(np.abs(gates.gate_power(z, d).mat - eye))) > TOL:
            failures.append(f"Z^{d} != I for d={d}")
        if float(np.max(np.abs(gates.gate_power(x, d).mat - eye))) > TOL:
            failures.append(f"X^{d} != I for d={d}")
        weyl = z.mat @ x.mat - root_of_unity(d, 1) * (x.mat @ z.mat)
        if float(np.max(np.abs(weyl))) > TOL:
            failures.append(f"ZX != wXZ for d={d}")
    return _result("gate unitarity and commutation sweep", not failures, "; ".join(failures))


def check_noiseless_transmission() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = 1.0
    for d, n in ((2, 5), (3, 4)):
        psi = random_state(d, 1, rng)
        config = ChainConfig(
            d=d, n=n, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(d), seed=17
        )
        worst = min(worst, run_chain(config, psi).fidelity_vs_initial)
    return _result(
        "noiseless chain preserves fidelity", worst >= 1.0 - TOL, f"min fidelity {worst!r}"
    )


def check_joint_register() -> CheckResult:
    """The joint 3n-qudit register at d in {2, 3}, n = 2, both modes: the
    final state is psi, every handoff boundary is unentangled, and the final
    state equals run_chain's on the same forced path."""
    rng = np.random.default_rng(29)
    failures = []
    for d in (2, 3):
        psi = random_state(d, 1, rng)
        for _ in range(2):
            path = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(2)]
            for mode in CorrectionMode:
                joint = full_register_chain(d, 2, psi, path, mode)
                config = ChainConfig(d=d, n=2, mode=mode, noise=NoiseSpec.noiseless(d), seed=0)
                factorized = run_chain(config, psi, forced_outcomes=path).final
                if (
                    float(np.max(np.abs(joint.final.amps - psi.amps))) > TOL
                    or float(np.max(np.abs(joint.final.amps - factorized.amps))) > TOL
                    or max(joint.boundary_entropies) > TOL
                ):
                    failures.append(f"d={d} {mode.value} path {path}")
    return _result("joint register matches psi and the factorized chain", not failures, "; ".join(failures))


def check_engines_match_oracles() -> CheckResult:
    """The rendered `run` and `enumerate` reports against the state-vector
    oracles in both modes: `run` trial for trial against
    `run_chain(..., trial=i)` at d=3, n=3, and `enumerate` path by path
    against `enumerate_branches` at d=3, n=2, where the fixed channel's
    total exponent K = n*k mod d is not 0. Parsing the report text checks
    the hand-written records, their `null` and their floats, too."""
    from .cli import ExperimentConfig, cmd_enumerate, cmd_run, initial_state  # cli imports this module

    failures = []
    noisy = ChainConfig(
        d=3, n=3, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec((0.4, 0.3, 0.3)), seed=19
    )
    fixed = replace(noisy, n=2, noise=NoiseSpec((0.0, 1.0, 0.0)))
    for mode in CorrectionMode:
        config = ExperimentConfig(chain=replace(noisy, mode=mode), trials=6, state="random")
        psi = initial_state(config)
        trials = json.loads(cmd_run(config))["trials"]
        if len(trials) != config.trials:
            failures.append(f"{mode.value} run lists {len(trials)} trials, not {config.trials}")
        for i, record in enumerate(trials):
            oracle = run_chain(config.chain, psi, trial=i)
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
        branches = enumerate_branches(config.chain, initial_state(config))
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
    return _result(
        "closed-form engines match the state-vector oracles", not failures, "; ".join(failures)
    )


def run_all(
    hadamard_factory: Callable[[int], gates.GateMatrix] = gates.hadamard,
) -> list[CheckResult]:
    """Run every check; basis vector for cmd_selftest and the negative control."""
    return [
        check_qutrit_cnot_golden(),
        check_direct_sum_permutation(),
        check_circuit_matches_expansion(),
        check_exact_recovery(),
        check_strategy_equivalence(),
        check_unitarity_sweep(hadamard_factory=hadamard_factory),
        check_noiseless_transmission(),
        check_joint_register(),
        check_engines_match_oracles(),
    ]


def corrupted_hadamard(d: int) -> gates.GateMatrix:
    """Fourier gate without its normalization; exists to fail the sweep."""
    return gates.GateMatrix(d, 1, gates.hadamard(d).mat * np.sqrt(d))
