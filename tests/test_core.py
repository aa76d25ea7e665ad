import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelay import core, gates, teleport
from qrelay.chain import (
    ChainConfig,
    NoiseSpec,
    apply_phase_noise,
    deferred_exponent,
    full_register_chain,
    run_chain,
)
from qrelay.core import (
    PureState,
    ValidationError,
    basis_state,
    fidelity,
    flat_index,
    inner_product,
    make_state,
    phase_exponent,
    random_state,
    reduced_density,
    root_of_unity,
    tensor_product,
)
from qrelay.teleport import CorrectionMode, apply_correction, measure_standard

ALL_DIMS = range(2, 17)


class TestRootOfUnity:
    def test_square_root(self):
        assert root_of_unity(2, 1) == pytest.approx(-1.0)

    def test_quarter_turn(self):
        assert root_of_unity(4, 1) == pytest.approx(1j)

    def test_cube_root(self):
        # reference values from sqrt arithmetic, independent of cos/sin
        expected = complex(-0.5, math.sqrt(3.0) / 2.0)
        assert root_of_unity(3, 1) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_dth_power_is_one(self, d):
        for k in range(d):
            assert root_of_unity(d, k) ** d == pytest.approx(1.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            root_of_unity(3, 3)
        with pytest.raises(ValueError):
            root_of_unity(3, -1)

    def test_bad_dimension(self):
        with pytest.raises(ValidationError):
            root_of_unity(1, 0)
        with pytest.raises(ValidationError):
            root_of_unity(17, 0)


class TestModAdd:
    """Dit addition mod d, as deferred_exponent sums the carrier results."""

    def test_wraps(self):
        assert deferred_exponent([1, 2], 3) == 0

    def test_identity_element(self):
        for d in (2, 5, 16):
            for b in range(d):
                assert deferred_exponent([0, b], d) == b

    def test_direct(self):
        assert deferred_exponent([4, 5], 7) == 2

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_group_axioms(self, d):
        def mod_add(a, b, d):
            return deferred_exponent([a, b], d)

        values = range(d)
        for a in values:
            assert mod_add(a, (d - a) % d, d) == 0  # inverse
            for b in values:
                assert 0 <= mod_add(a, b, d) < d
                for c in values:
                    left = mod_add(mod_add(a, b, d), c, d)
                    right = mod_add(a, mod_add(b, c, d), d)
                    assert left == right

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            deferred_exponent([3, 0], 3)
        with pytest.raises(ValueError):
            deferred_exponent([0, -1], 3)


class TestPhaseExponent:
    def test_zero_row(self):
        for d in (2, 3, 7, 16):
            for b in range(d):
                assert phase_exponent(0, b, d) == 0

    def test_known_values(self):
        assert phase_exponent(1, 1, 3) == 2
        assert phase_exponent(2, 2, 5) == 1
        for d in ALL_DIMS:
            assert phase_exponent(1, d - 1, d) == 1

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_range_and_symmetry(self, d):
        for a in range(d):
            for b in range(d):
                value = phase_exponent(a, b, d)
                assert 0 <= value < d
                assert value == phase_exponent(b, a, d)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            phase_exponent(5, 0, 5)


class TestBasisEncoding:
    def test_qutrit_two(self):
        state = basis_state(3, 1, (2,))
        assert np.array_equal(state.amps, np.array([0, 0, 1], dtype=complex))

    def test_qubit_zero(self):
        state = basis_state(2, 1, (0,))
        assert np.array_equal(state.amps, np.array([1, 0], dtype=complex))

    def test_big_endian_flat_position(self):
        state = basis_state(3, 2, (1, 0))
        assert state.amps[3] == 1.0
        assert np.sum(np.abs(state.amps)) == 1.0

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(3, 2, (1, 3))

    def test_wrong_digit_count(self):
        with pytest.raises(ValueError):
            basis_state(3, 2, (1,))

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_round_trip(self, d, n):
        for index in range(d**n):
            digits = np.unravel_index(index, (d,) * n)
            assert flat_index(d, digits) == index


class TestMakeState:
    def test_uniform_qubit(self):
        state = make_state(2, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert state.num_qudits == 1
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-15

    def test_two_qutrit_basis(self):
        state = make_state(3, [1, 0, 0, 0, 0, 0, 0, 0, 0])
        assert state.num_qudits == 2
        assert state.amps[0] == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            make_state(2, [1, 1])
        # finite amplitudes whose norm overflows get the named error and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"\(norm inf\)"):
                make_state(2, [1e308, 1e308])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            make_state(2, [0, 0])

    def test_rejects_non_power_length(self):
        with pytest.raises(ValidationError):
            make_state(3, [1, 0, 0, 0, 0, 0])

    def test_renormalizes_small_deviation(self):
        amp = math.sqrt(0.5) * (1 + 4e-10)
        state = make_state(2, [amp, amp])
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-14

    def test_rejects_larger_deviation(self):
        amp = math.sqrt(0.5) * (1 + 1e-6)
        with pytest.raises(ValidationError):
            make_state(2, [amp, amp])

    def test_amps_are_read_only(self):
        state = make_state(2, [1, 0])
        with pytest.raises(ValueError):
            state.amps[0] = 0.0


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 5):
            state = random_state(d, 2, rng)
            assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= fidelity(state, random_state(d, 2, rng)) <= fidelity(state, state) <= 1.0
        # |<s|s>|^2 of the uniform qubit rounds to 1 + 4e-16 before the clip
        uniform = make_state(2, [1 / math.sqrt(2)] * 2)
        assert fidelity(uniform, uniform) == 1.0

    def test_orthogonal(self):
        zero = basis_state(2, 1, (0,))
        one = basis_state(2, 1, (1,))
        assert inner_product(zero, one) == 0.0
        assert fidelity(zero, one) == 0.0

    def test_uniform_overlap(self):
        zero = basis_state(2, 1, (0,))
        plus = make_state(2, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert inner_product(zero, plus) == pytest.approx(1 / math.sqrt(2))
        assert fidelity(zero, plus) == pytest.approx(0.5)

    def test_conjugation_side(self):
        # <x|y> conjugates the first argument
        x = make_state(2, [1 / math.sqrt(2), 1j / math.sqrt(2)])
        y = basis_state(2, 1, (1,))
        assert inner_product(x, y) == pytest.approx(-1j / math.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state(2, 1, (0,)), basis_state(3, 1, (0,)))
        with pytest.raises(ValueError):
            inner_product(basis_state(2, 1, (0,)), basis_state(2, 2, (0, 0)))


class TestTensorProduct:
    def test_basis_concatenation(self):
        product = tensor_product(basis_state(2, 1, (1,)), basis_state(2, 1, (0,)))
        assert product.num_qudits == 2
        assert product.amps[2] == 1.0

    def test_stride_placement(self):
        rng = np.random.default_rng(9)
        state = random_state(3, 1, rng)
        product = tensor_product(state, basis_state(3, 1, (0,)))
        np.testing.assert_allclose(product.amps[::3], state.amps)
        assert np.all(product.amps[1::3] == 0)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(10)
        product = tensor_product(random_state(2, 2, rng), random_state(2, 1, rng))
        assert np.linalg.norm(product.amps) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(basis_state(2, 1, (0,)), basis_state(3, 1, (0,)))


class TestReducedDensity:
    def test_product_state_projector(self):
        rng = np.random.default_rng(11)
        factor = random_state(3, 1, rng)
        state = tensor_product(factor, basis_state(3, 1, (2,)))
        rho = reduced_density(state, 0)
        np.testing.assert_allclose(rho, np.outer(factor.amps, factor.amps.conj()), atol=1e-14)

    @pytest.mark.parametrize("keep", [0, 1])
    def test_maximally_entangled_qubits(self, keep):
        bell = make_state(2, np.array([1, 0, 0, 1]) / math.sqrt(2))
        rho = reduced_density(bell, keep)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-14)

    def test_maximally_entangled_qutrits(self):
        amps = np.zeros(9)
        amps[[0, 4, 8]] = 1 / math.sqrt(3)
        rho = reduced_density(make_state(3, amps), 1)
        np.testing.assert_allclose(rho, np.eye(3) / 3, atol=1e-14)

    def test_multi_qudit_keep(self):
        rng = np.random.default_rng(12)
        left = random_state(2, 2, rng)
        state = tensor_product(left, random_state(2, 1, rng))
        rho = reduced_density(state, (0, 1))
        np.testing.assert_allclose(rho, np.outer(left.amps, left.amps.conj()), atol=1e-13)

    def test_invariants_on_random_states(self):
        rng = np.random.default_rng(13)
        cases = [(d, n) for d in range(2, 6) for n in range(1, 5)]
        per_case = 1000 // len(cases) + 1
        for d, n in cases:
            for _ in range(per_case):
                state = random_state(d, n, rng)
                rho = reduced_density(state, int(rng.integers(n)))
                # reduced_density skips validation, so check its invariants here
                assert abs(np.trace(rho) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            reduced_density(basis_state(2, 2, (0, 0)), 2)

    def test_duplicate_keep(self):
        with pytest.raises(ValueError):
            reduced_density(basis_state(2, 2, (0, 0)), (0, 0))


class TestStateValidation:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            PureState(2, 1, np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PureState(2, 1, np.array([np.nan, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, 2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("num_qudits", [0.5, 1.0, True, -1, 0])
    def test_rejects_non_integer_num_qudits(self, num_qudits):
        with pytest.raises(ValueError, match="num_qudits must be a positive integer"):
            PureState(2, num_qudits, np.array([1.0, 0.0]))


# every library entry point that takes a dit, with the argument its error names
DIT_ARGUMENTS = {
    "measure_standard": (lambda v: measure_standard(basis_state(2, 2, (0, 0)), 1, forced=v), "forced"),
    "apply_phase_noise": (
        lambda v: apply_phase_noise(basis_state(2, 1, (0,)), NoiseSpec.noiseless(2), forced=v),
        "forced",
    ),
    "apply_correction": (lambda v: apply_correction(basis_state(2, 1, (0,)), v), "r"),
    "deferred_exponent": (lambda v: deferred_exponent([0, v], 2), "results[1]"),
    "run_chain": (
        lambda v: run_chain(
            ChainConfig(2, 2, CorrectionMode.LOCAL_EACH_HOP, NoiseSpec.noiseless(2), 0),
            basis_state(2, 1, (0,)),
            forced_noise=[v, 0],
        ),
        "forced",
    ),
    "full_register_chain": (
        lambda v: full_register_chain(2, 1, basis_state(2, 1, (0,)), [(v, 0)]),
        "forced",
    ),
}


@pytest.mark.parametrize("value", [0.5, 1.0, True, -1, 2])
@pytest.mark.parametrize("entry", sorted(DIT_ARGUMENTS))
def test_dit_arguments_reject_non_dits(entry, value):
    """Floats, bools and out-of-range values all fail the one dit rule (d = 2)."""
    call, name = DIT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer in [0, 2), got {value!r}")):
        call(value)


amplitude_lists = st.lists(
    st.tuples(
        st.floats(min_value=-1, max_value=1, allow_nan=False),
        st.floats(min_value=-1, max_value=1, allow_nan=False),
    ),
    min_size=2,
    max_size=2,
)


@settings(max_examples=100, deadline=None)
@given(amplitude_lists)
def test_make_state_normalizes_self_overlap(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        return
    state = make_state(2, amps / norm)
    assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_tensor_norm_and_encoding(d, seed):
    rng = np.random.default_rng(seed)
    product = tensor_product(random_state(d, 1, rng), random_state(d, 1, rng))
    assert np.linalg.norm(product.amps) == pytest.approx(1.0, abs=1e-12)
    index = int(np.argmax(np.abs(product.amps)))
    assert flat_index(d, divmod(index, d)) == index


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_reduced_density_is_a_density_matrix(d, n, seed):
    """reduced_density returns its partial trace unchecked; check its invariants here."""
    rng = np.random.default_rng(seed)
    state = random_state(d, n, rng)
    keep = tuple(int(q) for q in rng.permutation(n)[: int(rng.integers(1, n + 1))])
    rho = reduced_density(state, keep)
    assert rho.shape == (d ** len(keep),) * 2
    assert rho.flags.writeable is False
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def assert_state_invariants(state, d, num_qudits):
    assert state.amps.shape == (d**num_qudits,)
    assert np.all(np.isfinite(state.amps))
    assert abs(np.linalg.norm(state.amps) - 1.0) <= core.INTERNAL_TOL
    assert state.amps.flags.writeable is False


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_trusted_results_keep_state_invariants(d, n, seed):
    """Gate, kron, basis and collapse results skip validation; check them here."""
    rng = np.random.default_rng(seed)
    digits = tuple(int(k) for k in rng.integers(d, size=n))
    assert_state_invariants(basis_state(d, n, digits), d, n)
    state = random_state(d, n, rng)
    assert_state_invariants(tensor_product(state, random_state(d, 1, rng)), d, n + 1)
    one_qudit = [gates.pauli_z_power(d, 0), gates.pauli_z(d), gates.pauli_x(d), gates.hadamard(d),
                 gates.hadamard_inverse(d), gates.pauli_z_power(d, int(rng.integers(d)))]
    for target in range(n):
        for gate in one_qudit:
            state = gates.apply_1q(state, gate, target)
            assert_state_invariants(state, d, n)
        for control in range(n):
            if control != target:
                for gate in (gates.cnot(d), gates.cnot_dagger(d)):
                    state = gates.apply_2q(state, gate, control, target)
                    assert_state_invariants(state, d, n)
    for target in range(n):
        forced = measure_standard(state, target, forced=int(rng.integers(d))).state
        assert_state_invariants(forced, d, n)
        state = measure_standard(state, target, rng=rng).state
        assert_state_invariants(state, d, n)


def test_internal_tolerance_constants():
    assert core.INPUT_NORM_TOL == 1e-9
    assert core.INTERNAL_TOL == 1e-12


# the documented library face: every name README.md or benchmarks/ uses, plus
# the exceptions callers catch
PUBLIC_NAMES = [
    "ChainConfig", "CorrectionMode", "GateMatrix", "HistoryEntry", "ImpossibleOutcomeError",
    "NoiseSpec", "PureState", "ResourceLimitError", "ValidationError", "__version__",
    "apply_1q", "apply_2q", "apply_phase_noise", "basis_state", "enumerate_branches",
    "expected_fidelity", "fidelity", "full_register_chain", "hop_expansion", "inner_product",
    "make_state", "measure_standard", "random_state", "reduced_density", "run_chain",
    "run_trajectories", "teleport_hop", "tensor_product",
]


def test_public_names_resolve_once():
    import qrelay

    assert len(qrelay.__all__) == len(set(qrelay.__all__))
    assert sorted(qrelay.__all__) == PUBLIC_NAMES
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in qrelay.__all__:
        assert hasattr(qrelay, name), name
        value = getattr(qrelay, name)
        if name != "__version__" and not (isinstance(value, type) and issubclass(value, Exception)):
            assert re.search(rf"\b{name}\b", readme), f"{name} is exported but README.md never names it"
    for module in (core, gates, teleport):
        for deleted in ("DensityMatrix", "identity", "is_unitary"):
            assert not hasattr(module, deleted), f"{module.__name__}.{deleted}"
