"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS line on success (shown with pytest -s; pytest -v
reports the same verdict per test). Expected values are hard-coded or come
from independent reconstructions, never from the code paths under test.
"""

import itertools
import json
import math

import numpy as np

from qrelay import gates
from qrelay.chain import (
    ChainConfig,
    NoiseSpec,
    enumerate_branches,
    full_register_chain,
    run_chain,
)
from qrelay.cli import build_parser, cmd_run, main, parse_config
from qrelay.core import flat_index, random_state
from qrelay.teleport import CorrectionMode, hop_circuit, hop_expansion, prepare_hop, teleport_hop

TOL = 1e-12
LOCAL = CorrectionMode.LOCAL_EACH_HOP
DEFERRED = CorrectionMode.DEFERRED_FINAL

# |a,b> -> |a,(a+b) mod 3> written out entry by entry
CNOT3_GOLDEN = np.array(
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
    dtype=complex,
)


def _noiseless(d, n, mode, seed=0):
    return ChainConfig(d=d, n=n, mode=mode, noise=NoiseSpec.noiseless(d), seed=seed)


def test_criterion_1_qutrit_cnot_golden_matrix():
    assert np.array_equal(gates.cnot(3).mat, CNOT3_GOLDEN)
    print("PASS criterion 1: qutrit cnot equals the golden 9x9 matrix exactly")


def test_criterion_2_direct_sum_law():
    for d in range(2, 17):
        expected = np.zeros((d * d, d * d), dtype=complex)
        for a in range(d):
            for b in range(d):
                expected[flat_index(d, (a, (a + b) % d)), flat_index(d, (a, b))] = 1.0
        assert np.array_equal(gates.cnot(d).mat, expected), f"d={d}"
    print("PASS criterion 2: direct-sum construction equals the addition permutation, d=2..16")


def test_criterion_3_circuit_matches_expansion():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for _ in range(200):
            psi = random_state(d, 1, rng)
            circuit = hop_circuit(prepare_hop(psi))
            worst = max(worst, float(np.max(np.abs(circuit.amps - hop_expansion(psi).amps))))
    assert worst <= TOL, f"max deviation {worst:.3e}"
    print(f"PASS criterion 3: circuit matches expansion, 200 states x d=2..5 (max dev {worst:.2e})")


def test_criterion_4_exact_teleportation_recovery():
    rng = np.random.default_rng(2025)
    worst = 0.0
    worst_fidelity = 1.0
    for d in range(2, 9):
        for _ in range(50):
            psi = random_state(d, 1, rng)
            for a in range(d):
                for b in range(d):
                    hop = teleport_hop(psi, LOCAL, forced=(a, b))
                    worst = max(worst, float(np.max(np.abs(hop.bob_post.amps - psi.amps))))
                    overlap = abs(np.vdot(psi.amps, hop.bob_post.amps)) ** 2
                    worst_fidelity = min(worst_fidelity, overlap)
    assert worst <= TOL, f"max elementwise deviation {worst:.3e}"
    assert worst_fidelity >= 1 - TOL, f"min fidelity {worst_fidelity!r}"
    print(
        "PASS criterion 4: exact recovery for d=2..8, all forced outcomes, 50 states each "
        f"(max dev {worst:.2e})"
    )


def test_criterion_5_strategy_equivalence():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for d in (2, 3, 4, 5):
        for trial in range(50):
            n = trial % 10 + 1
            psi = random_state(d, 1, rng)
            path = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(n)]
            local = run_chain(_noiseless(d, n, LOCAL), psi, forced_outcomes=path)
            deferred = run_chain(_noiseless(d, n, DEFERRED), psi, forced_outcomes=path)
            worst = max(worst, float(np.max(np.abs(local.final.amps - deferred.final.amps))))
            assert deferred.deferred_exponent == sum(r for r in deferred.results) % d
            assert local.results == deferred.results == tuple(a for a, _ in path)
    assert worst <= TOL, f"max deviation {worst:.3e}"
    print(
        "PASS criterion 5: local and deferred corrections agree for d<=5, n<=10 "
        f"(max dev {worst:.2e})"
    )


def test_criterion_6_full_register_oracle():
    rng = np.random.default_rng(2027)
    worst = 0.0
    worst_entropy = 0.0
    cases = [(2, 2, None), (2, 3, None), (3, 2, 0)]
    for d, n, fixed_b in cases:
        psi = random_state(d, 1, rng)
        if fixed_b is None:
            paths = itertools.product(itertools.product(range(d), repeat=2), repeat=n)
        else:
            paths = (
                tuple((a, fixed_b) for a in combo)
                for combo in itertools.product(range(d), repeat=n)
            )
        for path in paths:
            joint = full_register_chain(d, n, psi, list(path))
            factorized = run_chain(_noiseless(d, n, LOCAL), psi, forced_outcomes=list(path))
            worst = max(worst, float(np.max(np.abs(joint.final.amps - factorized.final.amps))))
            if joint.boundary_entropies:
                worst_entropy = max(worst_entropy, max(abs(e) for e in joint.boundary_entropies))
    assert worst <= TOL, f"max deviation {worst:.3e}"
    assert worst_entropy <= 1e-10, f"max cross-block entropy {worst_entropy:.3e}"
    print(
        "PASS criterion 6: joint 3n-qudit register matches the factorized chain "
        f"(max dev {worst:.2e}, max cross-block entropy {worst_entropy:.2e})"
    )


def test_criterion_7_unitarity_sweep():
    for d in range(2, 17):
        z, x = gates.pauli_z(d), gates.pauli_x(d)
        for gate in (z, x, gates.hadamard(d), gates.hadamard_inverse(d), gates.cnot(d),
                     gates.cnot_dagger(d), gates.pauli_z_power(d, d - 1)):
            assert gate.unitary, f"d={d}"
        assert np.max(np.abs(gates.gate_power(z, d).mat - np.eye(d))) <= TOL
        assert np.max(np.abs(gates.gate_power(x, d).mat - np.eye(d))) <= TOL
        omega = complex(math.cos(2 * math.pi / d), math.sin(2 * math.pi / d))
        assert np.max(np.abs(z.mat @ x.mat - omega * (x.mat @ z.mat))) <= TOL
    print("PASS criterion 7: unitarity, cyclic powers and commutation law for d=2..16")


def test_criterion_8_noise_sanity():
    for d, n in ((2, 3), (3, 2)):
        psi = random_state(d, 1, np.random.default_rng(2028))
        branches = enumerate_branches(_noiseless(d, n, DEFERRED), psi)
        assert min(branch.fidelity for branch in branches) >= 1 - TOL
    argv = ["run", "--d", "2", "--n", "1", "--noise", "0.5,0.5",
            "--trials", "10000", "--seed", "8", "--state", "uniform"]
    report = json.loads(cmd_run(parse_config(build_parser().parse_args(argv))))
    mean = report["aggregate"]["fidelity_mean"]
    assert abs(mean - 0.5) <= 0.02, f"mean fidelity {mean}"
    print(f"PASS criterion 8: noiseless paths at fidelity 1; dephased mean {mean:.4f} in 0.50+-0.02")


def test_criterion_9_byte_identical_reports(tmp_path):
    argv = ["run", "--d", "3", "--n", "4", "--noise", "0.6,0.2,0.2",
            "--trials", "25", "--seed", "123", "--state", "random"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    assert bytes_a == bytes_b
    print(f"PASS criterion 9: repeated runs byte-identical ({len(bytes_a)} bytes)")
