import math
import re
import warnings
from fractions import Fraction
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

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_opposite_powers_are_exact_conjugates(self, d):
        for k in range(1, d):
            z, w = root_of_unity(d, k), root_of_unity(d, d - k)
            assert (w.real, w.imag) == (z.real, -z.imag), (k, z, w)

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


def reference_root(d, k):
    """The bit-for-bit reference for `core._roots`, one root at a time: conjugates
    above d/2, exact quadrant angles, libm's cos and sin elsewhere."""
    if 2 * k > d:
        return reference_root(d, d - k).conjugate()
    if k == 0:
        return complex(1.0, 0.0)
    if 2 * k == d:
        return complex(-1.0, 0.0)
    if 4 * k == d:
        return complex(0.0, 1.0)
    angle = 2.0 * math.pi * k / d
    return complex(math.cos(angle), math.sin(angle))


class TestRootTable:
    """Every w^k comes from one table per d, `core._roots`, with the bits of the reference formula."""

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_roots_match_the_reference_bit_for_bit(self, d):
        expected = [repr(reference_root(d, k)) for k in range(d)]
        assert [repr(root_of_unity(d, k)) for k in range(d)] == expected
        assert [repr(z) for z in core._roots(d)] == expected

    def test_the_table_is_built_once_per_d(self):
        assert core._roots(7) is core._roots(7)

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_fourier_and_z_gates_match_the_reference_bit_for_bit(self, d):
        fourier = np.empty((d, d), dtype=np.complex128)
        for k in range(d):
            for j in range(d):
                fourier[k, j] = reference_root(d, j * k % d)
        assert gates.hadamard(d).mat.tobytes() == (fourier / math.sqrt(d)).tobytes()
        for r in range(2 * d):
            z_power = np.diag([reference_root(d, r * j % d) for j in range(d)])
            assert gates.pauli_z_power(d, r).mat.tobytes() == z_power.tobytes(), r

    @pytest.mark.parametrize("d", ALL_DIMS)
    def test_hop_expansion_matches_the_reference_loop_bit_for_bit(self, d):
        psi = random_state(d, 1, np.random.default_rng(300 + d))
        amps = np.zeros(d**3, dtype=np.complex128)
        for a in range(d):
            for b in range(d):
                for j in range(d):
                    amps[(a * d + b) * d + j] = reference_root(d, phase_exponent(a, j, d)) * psi.amps[j] / d
        assert teleport.hop_expansion(psi).amps.tobytes() == amps.tobytes()


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
        state = basis_state(3, (2,))
        assert np.array_equal(state.amps, np.array([0, 0, 1], dtype=complex))

    def test_qubit_zero(self):
        state = basis_state(2, (0,))
        assert np.array_equal(state.amps, np.array([1, 0], dtype=complex))

    def test_big_endian_flat_position(self):
        state = basis_state(3, (1, 0))
        assert state.num_qudits == 2
        assert state.amps[3] == 1.0
        assert np.sum(np.abs(state.amps)) == 1.0

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError):
            basis_state(3, (1, 3))

    def test_empty_digits(self):
        with pytest.raises(ValidationError, match=r"^digits: must list at least one digit, got \(\)$"):
            basis_state(3, ())

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
            for amps in ([1e308, 1e308], [1e154, 1e154j]):  # squares overflow, or only their sum
                with pytest.raises(ValidationError, match=r"\(norm inf\)"):
                    make_state(2, amps)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            make_state(2, [0, 0])

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


class TestNorm:
    def test_matches_exact_norm(self):
        rng = np.random.default_rng(21)
        for size in (2, 3, 16, 256):
            amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            exact = sum(Fraction(float(x)) ** 2 for x in np.concatenate([amps.real, amps.imag]))
            # fsum rounds the sum of the rounded squares once, and sqrt rounds once more
            assert abs(core._norm(amps) - math.sqrt(exact)) <= 2 * math.ulp(math.sqrt(exact))

    def test_state_builders_make_no_blas_call(self, monkeypatch):
        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS call")

        for name in ("vdot", "dot", "inner"):
            monkeypatch.setattr(np, name, no_blas)
        monkeypatch.setattr(np.linalg, "norm", no_blas)
        make_state(3, [0.6, 0.0, 0.8j])
        random_state(4, 2, np.random.default_rng(3))


def _draw_law(probs) -> list[int]:
    """How many of the 2^53 doubles Generator.random() returns _draw_dit maps to each dit.

    random() returns m * 2^-53 for m in [0, 2^53), and dit j takes the m with
    c_(j-1) <= m * 2^-53 < c_j, so its count is ceil(c_j * 2^53) - ceil(c_(j-1) * 2^53),
    with c the float cdf _draw_dit builds and c_(-1) = 0.
    """
    p = np.asarray(probs, dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    edges = [0] + [math.ceil(Fraction(float(c)) * 2**53) for c in cdf]
    return [hi - lo for lo, hi in zip(edges, edges[1:])]


# the noise channels the test suite runs, besides the uniform 1/d carrier draw
TESTED_NOISE = [
    (0.5, 0.5), (0.7, 0.3), (0.8, 0.2), (0.0, 1.0), (0.6, 0.2, 0.2), (0.4, 0.3, 0.3), (0.8, 0.1, 0.1),
    (0.9, 0.05, 0.05), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, 0.1, 0.1, 0.1, 0.1), (0.0625,) * 16,
    *[(0.5,) + (0.5 / (d - 1),) * (d - 1) for d in (2, 3, 10, 11, 16)],
    *[(0.9,) + (0.1 / (d - 1),) * (d - 1) for d in (2, 3, 5)],
    *[tuple(np.eye(d)[1]) for d in (2, 3, 5, 16)],
    *[tuple(w / w.sum()) for w in (np.random.default_rng(46 + d).random(d) for d in ALL_DIMS)],
]


class TestDrawDitLaw:
    @pytest.mark.parametrize("probs", [np.full(d, 1.0 / d) for d in ALL_DIMS] + TESTED_NOISE)
    def test_exact_law_is_within_two_grid_points_of_probs(self, probs):
        counts = _draw_law(probs)
        assert sum(counts) == 2**53
        for count, p in zip(counts, probs):
            # 2^-52 = 2 * 2^-53, one ulp of 1.0: the cdf's roundings move each step by less
            assert abs(count - Fraction(float(p)) * 2**53) <= 2

    def test_pinned_count_matches_a_brute_force_scan(self):
        probs = (0.9, 0.05, 0.05)
        counts = _draw_law(probs)
        assert counts == [8106479329266893, 450359962737050, 450359962737049]
        # scan 16 doubles either side of each cdf step: the dit changes exactly at the step
        step = 0
        for j, count in enumerate(counts[:-1]):
            step += count
            m = np.arange(step - 16, step + 16)
            assert core._draw_dit(probs, m / 2**53).tolist() == [j] * 16 + [j + 1] * 16


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
        zero = basis_state(2, (0,))
        one = basis_state(2, (1,))
        assert inner_product(zero, one) == 0.0
        assert fidelity(zero, one) == 0.0

    def test_uniform_overlap(self):
        zero = basis_state(2, (0,))
        plus = make_state(2, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert inner_product(zero, plus) == pytest.approx(1 / math.sqrt(2))
        assert fidelity(zero, plus) == pytest.approx(0.5)

    def test_conjugation_side(self):
        # <x|y> conjugates the first argument
        x = make_state(2, [1 / math.sqrt(2), 1j / math.sqrt(2)])
        y = basis_state(2, (1,))
        assert inner_product(x, y) == pytest.approx(-1j / math.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_state(2, (0,)), basis_state(3, (0,)))
        with pytest.raises(ValueError):
            inner_product(basis_state(2, (0,)), basis_state(2, (0, 0)))


class TestForcedOutcomeFloor:
    def test_an_outcome_at_the_floor_is_possible_and_one_below_it_is_not(self):
        floor = core.FORCED_OUTCOME_MIN_PROB
        assert core._check_possible("forced", 1, 0, floor) is None
        below = r"^forced: outcome 1 on qudit 0 has probability 1.000e-15$"
        with pytest.raises(core.ImpossibleOutcomeError, match=below):
            core._check_possible("forced", 1, 0, math.nextafter(floor, 0.0))


class TestTensorProduct:
    def test_basis_concatenation(self):
        product = tensor_product(basis_state(2, (1,)), basis_state(2, (0,)))
        assert product.num_qudits == 2
        assert product.amps[2] == 1.0

    def test_stride_placement(self):
        rng = np.random.default_rng(9)
        state = random_state(3, 1, rng)
        product = tensor_product(state, basis_state(3, (0,)))
        np.testing.assert_allclose(product.amps[::3], state.amps)
        assert np.all(product.amps[1::3] == 0)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(10)
        product = tensor_product(random_state(2, 2, rng), random_state(2, 1, rng))
        assert np.linalg.norm(product.amps) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product(basis_state(2, (0,)), basis_state(3, (0,)))

    def test_a_product_past_the_index_range_is_refused_before_kron(self, monkeypatch):
        """Two 16^8-amplitude operands make 16^16 > sys.maxsize amplitudes. The operands are
        read-only zero-stride views, so the test allocates nothing, and np.kron never runs."""
        big = PureState._trusted(16, 8, np.broadcast_to(np.complex128(0), (16**8,)))

        def no_kron(*args):
            raise AssertionError("np.kron ran")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(core.ResourceLimitError, match=r"^y: 16\^16 amplitudes are more than can be allocated$"):
            tensor_product(big, big)

    def test_a_product_the_host_cannot_allocate_is_refused_naming_y(self):
        """Two 16^7-amplitude operands make 16^14 amplitudes, 1 EiB: inside the index range,
        so np.kron runs, and numpy's MemoryError becomes the allocation rule's refusal. The
        operands are read-only zero-stride views, and the 1 EiB request fails, so the test
        allocates nothing."""
        big = PureState._trusted(16, 7, np.broadcast_to(np.complex128(1), (16**7,)))
        with pytest.raises(core.ResourceLimitError, match=r"^y: 16\^14 amplitudes are more than can be allocated$"):
            tensor_product(big, big)


class TestReducedDensity:
    def test_product_state_projector(self):
        rng = np.random.default_rng(11)
        factor = random_state(3, 1, rng)
        state = tensor_product(factor, basis_state(3, (2,)))
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
            reduced_density(basis_state(2, (0, 0)), 2)

    def test_duplicate_keep(self):
        with pytest.raises(ValueError):
            reduced_density(basis_state(2, (0, 0)), (0, 0))

    def test_empty_keep(self):
        with pytest.raises(ValueError, match=r"^keep: must keep at least one qudit$"):
            reduced_density(basis_state(2, (0, 0)), [])

    @pytest.mark.parametrize(
        "keep",
        [(0, 1, 2), (0,), (4, 5, 6), (5,), (7, 8, 9), (9,), (1, 2, 3, 4, 5), (6, 1, 8), (2, 1, 0), (9, 0)],
    )
    def test_matches_moveaxis_reference(self, keep):
        state = random_state(3, 10, np.random.default_rng(14))
        rho = reduced_density(state, keep)
        np.testing.assert_allclose(rho, reference_density(state, keep), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (5, 3)])
    def test_every_contiguous_keep(self, d, n):
        # keeping every qudit included, in both orders
        state = random_state(d, n, np.random.default_rng(15))
        for k in range(1, n + 1):
            for first in range(n - k + 1):
                keep = tuple(range(first, first + k))
                np.testing.assert_allclose(
                    reduced_density(state, keep), reference_density(state, keep), rtol=0, atol=1e-12
                )
        keep = tuple(range(n))[::-1]
        np.testing.assert_allclose(reduced_density(state, keep), reference_density(state, keep), rtol=0, atol=1e-12)


def reference_density(state, keep):
    """The partial trace written out: kept axes to the front, then M M^dagger."""
    moved = np.moveaxis(state.tensor(), keep, range(len(keep)))
    block = moved.reshape(state.d ** len(keep), -1)
    return block @ block.conj().T


class TestStateValidation:
    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="^amps: state norm must be 1 within 1e-12"):
            PureState(2, np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        # the finiteness rule is make_state's too, with the same message
        for build in (make_state, PureState):
            with pytest.raises(ValidationError, match="^amps: amplitudes must be finite$"):
                build(2, np.array([np.nan, 0.0]))

    def test_num_qudits_is_derived(self):
        state = PureState(np.int64(3), np.eye(9)[4])
        assert (state.d, state.num_qudits) == (3, 2)
        assert type(state.num_qudits) is int
        with pytest.raises(TypeError):
            PureState(2, 1, np.array([1.0, 0.0]))  # the count is not an input

    @pytest.mark.parametrize(
        "d,amps",
        [(2, [[1, 0], [0, 0]]), (2, 1.0), (2, []), (2, [1.0]), (3, [1, 0]), (3, [1, 0, 0, 0, 0, 0]), (2, [1, 0, 0])],
        ids=["2-d", "scalar", "empty", "one-of-two", "two-of-three", "six-at-3", "three-at-2"],
    )
    def test_amplitude_count_rule_has_one_message(self, d, amps):
        """A flat array of d^n amplitudes, n >= 1: make_state and PureState give one message."""
        shape = np.shape(amps)
        message = f"amps: amplitudes must form a flat array of d^n, n >= 1 (d={d}), got shape {shape}"
        for build in (make_state, PureState):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                build(d, amps)

    @pytest.mark.parametrize("num_qudits", [0.5, 1.0, True, -1, 0])
    def test_rejects_non_integer_num_qudits(self, num_qudits):
        """random_state is the one public builder that takes a qudit count."""
        message = f"num_qudits: must be an integer >= 1, got {num_qudits!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_state(2, num_qudits, np.random.default_rng(0))


# every library entry point that takes a dit, with the argument its error names
# qudit positions follow the same rule on 2-qudit states, so their range is [0, 2) too
DIT_ARGUMENTS = {
    "measure_standard": (lambda v: measure_standard(basis_state(2, (0, 0)), 1, forced=v), "forced"),
    "measure_standard/target": (lambda v: measure_standard(basis_state(2, (0, 0)), v, forced=0), "target"),
    "apply_1q/target": (lambda v: gates.apply_1q(basis_state(2, (0, 0)), gates.hadamard(2), v), "target"),
    "apply_2q/control": (lambda v: gates.apply_2q(basis_state(2, (0, 0)), gates.cnot(2), v, 0), "control"),
    "apply_2q/target": (lambda v: gates.apply_2q(basis_state(2, (0, 0)), gates.cnot(2), 0, v), "target"),
    "reduced_density/keep": (lambda v: reduced_density(basis_state(2, (0, 0)), v), "keep"),
    "reduced_density/keep_item": (lambda v: reduced_density(basis_state(2, (0, 0)), (0, v)), "keep[1]"),
    "entanglement_entropy/keep": (lambda v: teleport.entanglement_entropy(basis_state(2, (0, 0)), v), "keep"),
    "entanglement_entropy/keep_item": (
        lambda v: teleport.entanglement_entropy(basis_state(2, (0, 0)), (v,)),
        "keep[0]",
    ),
    "apply_phase_noise": (
        lambda v: apply_phase_noise(basis_state(2, (0,)), NoiseSpec.noiseless(2), forced=v),
        "forced",
    ),
    "apply_correction": (lambda v: apply_correction(basis_state(2, (0,)), v), "r"),
    "deferred_exponent": (lambda v: deferred_exponent([0, v], 2), "results[1]"),
    "run_chain": (
        lambda v: run_chain(
            ChainConfig(2, 2, CorrectionMode.LOCAL_EACH_HOP, NoiseSpec.noiseless(2), 0),
            basis_state(2, (0,)),
            forced_noise=[v, 0],
        ),
        "forced_noise[0]",
    ),
    "full_register_chain": (
        lambda v: full_register_chain(2, 1, basis_state(2, (0,)), [(v, 0)]),
        "forced_path[0][0]",
    ),
}


@pytest.mark.parametrize("value", [0.5, 1.0, True, -1, 2])
@pytest.mark.parametrize("entry", sorted(DIT_ARGUMENTS))
def test_dit_arguments_reject_non_dits(entry, value):
    """Floats, bools and out-of-range values all fail the one dit rule (d = 2)."""
    call, name = DIT_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=re.escape(f"{name}: must be an integer in [0, 2), got {value!r}")):
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_state_builders_return_unit_norm(d, n, seed):
    """make_state and random_state normalize once and skip PureState's re-check; check it here."""
    rng = np.random.default_rng(seed)
    state = random_state(d, n, rng)
    assert abs(core._norm(state.amps) - 1.0) <= core.INTERNAL_TOL
    # input off by up to INPUT_NORM_TOL is renormalized
    scale = 1.0 + core.INPUT_NORM_TOL * (2.0 * rng.random() - 1.0)
    built = make_state(d, state.amps * scale)
    assert abs(core._norm(built.amps) - 1.0) <= core.INTERNAL_TOL
    assert built.amps.flags.writeable is False and built.amps.dtype == np.complex128


def assert_state_invariants(state, d, num_qudits):
    assert (state.d, state.num_qudits) == (d, num_qudits)
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
    assert_state_invariants(basis_state(d, digits), d, n)
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
