import cmath
import math
import re

import numpy as np
import pytest

from qrelay import gates
from qrelay.chain import _phase_pairs
from qrelay.core import basis_state, flat_index, make_state, random_state, tensor_product

ALL_DIMS = range(2, 17)

# qutrit CNOT |a,b> -> |a,(a+b) mod 3>, written out by hand
QUTRIT_CNOT = np.array(
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

# its Hermitian conjugate, |a,b> -> |a,(b-a) mod 3>, also written out
QUTRIT_CNOT_DAGGER = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0],
    ],
    dtype=complex,
)


class TestPauliZ:
    def test_qubit(self):
        np.testing.assert_array_equal(gates.pauli_z(2).mat, np.diag([1.0, -1.0]))

    def test_qutrit(self):
        w = cmath.exp(2j * cmath.pi / 3)
        np.testing.assert_allclose(gates.pauli_z(3).mat, np.diag([1, w, w**2]), atol=1e-15)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_dth_power_is_identity(self, d):
        power = gates.gate_power(gates.pauli_z(d), d)
        np.testing.assert_allclose(power.mat, np.eye(d), atol=1e-12)


class TestPauliX:
    def test_qubit_not(self):
        np.testing.assert_array_equal(gates.pauli_x(2).mat, np.array([[0, 1], [1, 0]]))

    def test_wraparound(self):
        state = gates.apply_1q(basis_state(3, (2,)), gates.pauli_x(3), 0)
        np.testing.assert_array_equal(state.amps, basis_state(3, (0,)).amps)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_full_cycle(self, d):
        power = gates.gate_power(gates.pauli_x(d), d)
        np.testing.assert_allclose(power.mat, np.eye(d), atol=1e-12)


class TestGatePower:
    def test_zero_power_is_identity(self):
        np.testing.assert_array_equal(gates.gate_power(gates.pauli_x(5), 0).mat, np.eye(5))

    def test_diagonal_powers(self):
        for d in (3, 7):
            for r in range(2 * d):
                expected = np.diag([cmath.exp(2j * cmath.pi * r * j / d) for j in range(d)])
                np.testing.assert_allclose(gates.gate_power(gates.pauli_z(d), r).mat, expected, atol=1e-12)

    def test_shift_power(self):
        state = gates.apply_1q(basis_state(3, (0,)), gates.gate_power(gates.pauli_x(3), 2), 0)
        np.testing.assert_array_equal(state.amps, basis_state(3, (2,)).amps)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            gates.gate_power(gates.pauli_z(3), -1)

    @pytest.mark.parametrize("r", [2.0, True, -1, "2", None])
    @pytest.mark.parametrize("cached_first", [False, True])
    def test_malformed_exponent_rejected_whatever_is_cached(self, r, cached_first):
        if cached_first:
            gates.pauli_z_power(5, 2)
            gates.pauli_z_power(5, 1)
        else:
            gates._z_power.cache_clear()
        for power in (lambda: gates.pauli_z_power(5, r), lambda: gates.gate_power(gates.pauli_x(5), r)):
            with pytest.raises(ValueError, match=r"^r: "):
                power()

    def test_numpy_integer_exponent_accepted(self):
        assert gates.pauli_z_power(5, np.int64(2)) is gates.pauli_z_power(5, 2)
        np.testing.assert_array_equal(gates.gate_power(gates.pauli_x(5), np.int32(5)).mat, np.eye(5))

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_z_power_cache_is_keyed_on_r_mod_d(self, d):
        gates._z_power.cache_clear()
        for r in range(3 * d):
            for k in (1, 2, 10**20):
                assert gates.pauli_z_power(d, r + k * d) is gates.pauli_z_power(d, r)
        assert gates._z_power.cache_info().currsize <= d

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_fresh_diagonal_matches_repeated_product(self, d):
        for r in range(2 * d):
            repeated = gates.gate_power(gates.pauli_z(d), r)
            np.testing.assert_allclose(gates.pauli_z_power(d, r).mat, repeated.mat, atol=1e-12)


class TestHadamard:
    def test_qubit(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(gates.hadamard(2).mat, expected, atol=1e-15)

    def test_maps_zero_to_uniform(self):
        for d in (2, 3, 5):
            state = gates.apply_1q(basis_state(d, (0,)), gates.hadamard(d), 0)
            np.testing.assert_allclose(state.amps, np.full(d, 1 / math.sqrt(d)), atol=1e-15)

    def test_qutrit_vandermonde(self):
        w = cmath.exp(2j * cmath.pi / 3)
        expected = np.array([[w ** (j * k) for j in range(3)] for k in range(3)]) / math.sqrt(3)
        np.testing.assert_allclose(gates.hadamard(3).mat, expected, atol=1e-12)

    def test_inverse_cancels(self):
        for d in (2, 3, 7, 16):
            product = gates.hadamard_inverse(d).mat @ gates.hadamard(d).mat
            np.testing.assert_allclose(product, np.eye(d), atol=1e-12)

    def test_qubit_inverse_is_itself(self):
        np.testing.assert_allclose(gates.hadamard_inverse(2).mat, gates.hadamard(2).mat, atol=1e-15)

    def test_inverse_entry_conjugated(self):
        w = cmath.exp(2j * cmath.pi / 3)
        assert gates.hadamard_inverse(3).mat[1, 1] == pytest.approx(w.conjugate() / math.sqrt(3))


def reference_cnot(d):
    """Permutation |a,b> -> |a,(a+b) mod d> built from basis arithmetic."""
    mat = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            mat[flat_index(d, (a, (a + b) % d)), flat_index(d, (a, b))] = 1.0
    return mat


class TestCnot:
    def test_qutrit_golden(self):
        assert np.array_equal(gates.cnot(3).mat, QUTRIT_CNOT)

    def test_qutrit_dagger_golden(self):
        assert np.array_equal(gates.cnot_dagger(3).mat, QUTRIT_CNOT_DAGGER)

    def test_qubit_standard(self):
        expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        assert np.array_equal(gates.cnot(2).mat, expected)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_direct_sum_equals_permutation(self, d):
        assert np.array_equal(gates.cnot(d).mat, reference_cnot(d))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_basis_action(self, d):
        for a in range(d):
            for b in range(d):
                out = gates.apply_2q(basis_state(d, (a, b)), gates.cnot(d), 0, 1)
                digits = divmod(int(np.argmax(np.abs(out.amps))), d)
                assert digits == (a, (a + b) % d)

    def test_dagger_cancels(self):
        for d in (2, 3, 5):
            product = gates.cnot_dagger(d).mat @ gates.cnot(d).mat
            np.testing.assert_allclose(product, np.eye(d * d), atol=1e-15)

    def test_qubit_cnot_self_inverse(self):
        assert np.array_equal(gates.cnot_dagger(2).mat, gates.cnot(2).mat)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_dagger_subtracts(self, d):
        for a in range(d):
            for b in range(d):
                out = gates.apply_2q(basis_state(d, (a, b)), gates.cnot_dagger(d), 0, 1)
                digits = divmod(int(np.argmax(np.abs(out.amps))), d)
                assert digits == (a, (b - a) % d)

    def test_qutrit_dagger_example(self):
        out = gates.apply_2q(basis_state(3, (1, 0)), gates.cnot_dagger(3), 0, 1)
        np.testing.assert_array_equal(out.amps, basis_state(3, (1, 2)).amps)


class TestAlgebraicLaws:
    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_weyl_commutation(self, d):
        z, x = gates.pauli_z(d).mat, gates.pauli_x(d).mat
        w = cmath.exp(2j * cmath.pi / d)
        np.testing.assert_allclose(z @ x, w * (x @ z), atol=1e-12)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_fourier_conjugation_maps_shift_to_phase(self, d):
        conjugated = gates.hadamard(d).mat @ gates.pauli_x(d).mat @ gates.hadamard_inverse(d).mat
        z = gates.pauli_z(d).mat
        np.testing.assert_allclose(np.abs(conjugated), np.abs(z), atol=1e-12)
        # equality holds exactly under this phase convention, not just in modulus
        np.testing.assert_allclose(conjugated, z, atol=1e-12)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_all_constructors_unitary(self, d):
        constructors = [
            gates.pauli_z_power(d, 0),
            gates.pauli_z(d),
            gates.pauli_x(d),
            gates.pauli_z_power(d, d - 1),
            gates.hadamard(d),
            gates.hadamard_inverse(d),
            gates.cnot(d),
            gates.cnot_dagger(d),
        ]
        for g in constructors:
            assert np.max(np.abs(g.mat @ g.mat.conj().T - np.eye(len(g.mat)))) <= 1e-12


class TestApply1q:
    def test_identity_leaves_state(self):
        rng = np.random.default_rng(21)
        state = random_state(3, 2, rng)
        out = gates.apply_1q(state, gates.pauli_z_power(3, 0), 1)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-15)

    def test_not_on_second_qudit(self):
        out = gates.apply_1q(basis_state(2, (0, 0)), gates.pauli_x(2), 1)
        np.testing.assert_array_equal(out.amps, basis_state(2, (0, 1)).amps)

    def test_two_applications_equal_power(self):
        rng = np.random.default_rng(22)
        state = random_state(3, 2, rng)
        twice = gates.apply_1q(gates.apply_1q(state, gates.pauli_z(3), 0), gates.pauli_z(3), 0)
        power = gates.apply_1q(state, gates.gate_power(gates.pauli_z(3), 2), 0)
        np.testing.assert_allclose(twice.amps, power.amps, atol=1e-14)

    def test_errors(self):
        state = basis_state(2, (0, 0))
        with pytest.raises(ValueError):
            gates.apply_1q(state, gates.cnot(2), 0)  # wrong arity
        with pytest.raises(ValueError):
            gates.apply_1q(state, gates.pauli_x(3), 0)  # wrong dimension
        with pytest.raises(ValueError):
            gates.apply_1q(state, gates.pauli_x(2), 2)  # bad index


class TestApply2q:
    def test_qubit_cnot_adjacent(self):
        out = gates.apply_2q(basis_state(2, (1, 0)), gates.cnot(2), 0, 1)
        np.testing.assert_array_equal(out.amps, basis_state(2, (1, 1)).amps)

    def test_qutrit_cnot_non_adjacent(self):
        out = gates.apply_2q(basis_state(3, (1, 0, 1)), gates.cnot(3), 0, 2)
        np.testing.assert_array_equal(out.amps, basis_state(3, (1, 0, 2)).amps)

    def test_reversed_positions(self):
        # control on the later qudit: |b, a> with a controlling
        for a in range(3):
            for b in range(3):
                out = gates.apply_2q(basis_state(3, (b, a)), gates.cnot(3), 1, 0)
                digits = divmod(int(np.argmax(np.abs(out.amps))), 3)
                assert digits == ((a + b) % 3, a)

    def test_dagger_undoes(self):
        rng = np.random.default_rng(23)
        state = random_state(3, 3, rng)
        forward = gates.apply_2q(state, gates.cnot(3), 2, 0)
        back = gates.apply_2q(forward, gates.cnot_dagger(3), 2, 0)
        np.testing.assert_allclose(back.amps, state.amps, atol=1e-14)

    def test_errors(self):
        state = basis_state(2, (0, 0, 0))
        with pytest.raises(ValueError):
            gates.apply_2q(state, gates.pauli_x(2), 0, 1)  # wrong arity
        with pytest.raises(ValueError):
            gates.apply_2q(state, gates.cnot(2), 1, 1)  # control == target
        with pytest.raises(ValueError):
            gates.apply_2q(state, gates.cnot(2), 0, 3)  # out of range


class TestTensorStructure:
    def test_1q_gate_acts_within_factor(self):
        rng = np.random.default_rng(24)
        left = random_state(3, 2, rng)
        right = random_state(3, 1, rng)
        gate = gates.hadamard(3)
        joint = tensor_product(left, right)
        applied_left = gates.apply_1q(joint, gate, 1)
        expected_left = tensor_product(gates.apply_1q(left, gate, 1), right)
        np.testing.assert_allclose(applied_left.amps, expected_left.amps, atol=1e-13)
        applied_right = gates.apply_1q(joint, gate, 2)
        expected_right = tensor_product(left, gates.apply_1q(right, gate, 0))
        np.testing.assert_allclose(applied_right.amps, expected_right.amps, atol=1e-13)

    def test_2q_gate_acts_within_factor(self):
        rng = np.random.default_rng(25)
        left = random_state(2, 2, rng)
        right = random_state(2, 1, rng)
        joint = tensor_product(left, right)
        applied = gates.apply_2q(joint, gates.cnot(2), 0, 1)
        expected = tensor_product(gates.apply_2q(left, gates.cnot(2), 0, 1), right)
        np.testing.assert_allclose(applied.amps, expected.amps, atol=1e-14)


def embedded_1q(g, n, target):
    """kron(I_pre, G, I_post): the full operator of a one-qudit gate."""
    d = g.d
    return np.kron(np.kron(np.eye(d**target), g.mat), np.eye(d ** (n - target - 1)))


def embedded_2q(g, n, control, target):
    """Full operator of a two-qudit gate, column by column from basis arithmetic."""
    d = g.d
    columns = np.arange(d**n)
    digits = np.stack(np.unravel_index(columns, (d,) * n), axis=1)
    slot_in = digits[:, control] * d + digits[:, target]
    op = np.zeros((d**n, d**n), dtype=complex)
    for slot_out in range(d * d):
        moved = digits.copy()
        moved[:, control], moved[:, target] = divmod(slot_out, d)
        op[np.ravel_multi_index(moved.T, (d,) * n), columns] = g.mat[slot_out, slot_in]
    return op


def random_unitary(side, rng):
    q, r = np.linalg.qr(rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def one_qudit_gates(d, rng):
    """Diagonal, monomial (with and without phases) and dense one-qudit gates."""
    return {
        "pauli_z_power": gates.pauli_z_power(d, d - 1),
        "pauli_x": gates.pauli_x(d),
        "phased_shift": gates.GateMatrix(d, gates.pauli_x(d).mat @ gates.pauli_z(d).mat),
        "hadamard": gates.hadamard(d),
        "random_dense": gates.GateMatrix(d, random_unitary(d, rng)),
    }


def two_qudit_gates(d, rng):
    """Diagonal, monomial (with and without phases) and dense two-qudit gates."""
    return {
        "random_phases": gates.GateMatrix(d, np.diag(np.exp(2j * np.pi * rng.random(d * d)))),
        "cnot": gates.cnot(d),
        "cnot_dagger": gates.cnot_dagger(d),
        "phased_cnot": gates.GateMatrix(d, np.kron(gates.pauli_z(d).mat, np.eye(d)) @ gates.cnot(d).mat),
        "random_dense": gates.GateMatrix(d, random_unitary(d * d, rng)),
    }


# every kernel branch: pre = 1 and pre > 1 around the gate, adjacent and
# split axes, on registers of up to 256 amplitudes
KERNEL_CASES = [(d, n) for d in (2, 3, 5) for n in range(1, 5)] + [(3, 5), (2, 8)]


class TestKernelAgainstFullOperator:
    @staticmethod
    def check(out, expected_amps, label):
        assert out.amps.flags.writeable is False
        np.testing.assert_allclose(out.amps, expected_amps, rtol=0, atol=1e-12, err_msg=label)

    @pytest.mark.parametrize("d,n", KERNEL_CASES)
    def test_apply_1q_every_target(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        state = random_state(d, n, rng)
        before = state.amps.copy()
        for name, g in one_qudit_gates(d, rng).items():
            for target in range(n):
                out = gates.apply_1q(state, g, target)
                self.check(out, embedded_1q(g, n, target) @ before, f"{name} on {target}")
        np.testing.assert_array_equal(state.amps, before)

    @pytest.mark.parametrize("d,n", [case for case in KERNEL_CASES if case[1] >= 2])
    def test_apply_2q_every_pair(self, d, n):
        rng = np.random.default_rng(100 * d + n)
        state = random_state(d, n, rng)
        before = state.amps.copy()
        pairs = [(c, t) for c in range(n) for t in range(n) if c != t]
        for name, g in two_qudit_gates(d, rng).items():
            for control, target in pairs:
                out = gates.apply_2q(state, g, control, target)
                self.check(out, embedded_2q(g, n, control, target) @ before, f"{name} on {control}, {target}")
        np.testing.assert_array_equal(state.amps, before)


def python_product(g, x):
    """G @ x in pure Python complex arithmetic: each product rounded part by
    part with no fused multiply-add, summed term by term, then added to +0.
    0j, not 0.0, since newer Pythons add a real only to the real part."""
    G, x = g.mat.tolist(), x.tolist()
    return [sum((G[i][j] * x[j] for j in range(len(x))), 0j) + 0j for i in range(len(x))]


@pytest.mark.parametrize("d", ALL_DIMS)
def test_z_power_bits_match_python_product(d):
    # the Z^k psi0 that run --history and enumerate report has these bits on every BLAS kernel
    rng = np.random.default_rng(d)
    states = [random_state(d, 1, rng) for _ in range(3)] + [make_state(d, [1 / math.sqrt(d)] * d)]
    states += [basis_state(d, (j,)) for j in range(d)]
    # real parts that are zeros of both signs
    states.append(make_state(d, [complex(-0.0, (-1) ** j / math.sqrt(d)) for j in range(d)]))
    for k in range(d):
        g = gates.pauli_z_power(d, k)
        for state in states:
            out = np.array([complex(re, im) for re, im in _phase_pairs(state, k)])
            expected = np.array(python_product(g, state.amps))
            np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64), err_msg=f"k={k}")


class TestNonUnitaryGate:
    @pytest.mark.parametrize(
        "d, arity, mat, deviation",
        [
            (3, 1, np.ones((3, 3)), "3.000e+00"),
            (2, 2, 3 * np.eye(4), "8.000e+00"),
            (2, 1, np.array([[np.nan, 0], [0, 1]]), "nan"),
            # an overflowing product is refused by name too, with no numpy warning
            (2, 1, np.array([[np.inf, 0], [0, 1]]), "nan"),
            (2, 1, np.array([[1e200, 0], [0, 1]]), "inf"),
        ],
    )
    def test_construction_refuses(self, d, arity, mat, deviation):
        message = f"gate must be unitary: this d={d} arity-{arity} gate has max |G G^dagger - I| = {deviation} > 1e-12"
        with pytest.raises(ValueError, match=re.escape(message)):
            gates.GateMatrix(d, mat)

    def test_within_the_tolerance_constructs(self):
        g = gates.GateMatrix(2, np.eye(2) * (1 + 4e-13))
        state = basis_state(2, (0, 1))
        np.testing.assert_allclose(gates.apply_1q(state, g, 0).amps, state.amps, rtol=0, atol=1e-12)


def test_gate_matrix_shape_validation():
    """The side of the matrix gives the arity; every other shape names the two it may take."""
    assert (gates.GateMatrix(3, np.eye(3)).arity, gates.GateMatrix(3, np.eye(9)).arity) == (1, 2)
    for d, mat in ((2, np.eye(3)), (2, np.eye(8)), (3, np.zeros((3, 9))), (2, np.zeros(4)), (2, np.zeros((2, 2, 2)))):
        message = f"gate matrix must be {d}x{d} or {d * d}x{d * d}, got shape {mat.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gates.GateMatrix(d, mat)
    with pytest.raises(TypeError):
        gates.GateMatrix(2, 1, np.eye(2))  # the arity is not an input
