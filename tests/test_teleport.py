import cmath
import math

import numpy as np
import pytest

from qrelay.core import (
    PureState,
    basis_state,
    fidelity,
    make_state,
    random_state,
    reduced_density,
    tensor_product,
)
from qrelay.gates import apply_1q, apply_2q, cnot, hadamard
from qrelay.teleport import (
    FORCED_OUTCOME_MIN_PROB,
    CorrectionMode,
    ImpossibleOutcomeError,
    apply_correction,
    entanglement_entropy,
    hop_circuit,
    hop_expansion,
    measure_standard,
    prepare_hop,
    teleport_hop,
)


def uniform_state(d):
    return make_state(d, np.full(d, 1 / math.sqrt(d)))


def plus_zero_zero_register():
    """(|0> + |1>)/sqrt(2) on the carrier, |0> on ancilla and receiver."""
    plus = apply_1q(basis_state(2, (0,)), hadamard(2), 0)
    return tensor_product(plus, basis_state(2, (0, 0)))


class TestPrepareHop:
    def test_basis_input(self):
        register = prepare_hop(basis_state(3, (1,)))
        np.testing.assert_array_equal(register.amps, basis_state(3, (1, 0, 0)).amps)

    def test_norm_preserved(self):
        register = prepare_hop(random_state(4, 1, np.random.default_rng(0)))
        assert np.linalg.norm(register.amps) == pytest.approx(1.0, abs=1e-13)

    def test_receiver_starts_in_zero(self):
        register = prepare_hop(random_state(3, 1, np.random.default_rng(1)))
        rho = reduced_density(register, 2)
        np.testing.assert_allclose(rho, np.outer([1, 0, 0], [1, 0, 0]), atol=1e-14)

    def test_rejects_multi_qudit_input(self):
        with pytest.raises(ValueError):
            prepare_hop(basis_state(2, (0, 0)))


class TestHopCircuit:
    def test_zero_input_gives_flat_magnitudes(self):
        for d in (2, 3, 5):
            out = hop_circuit(prepare_hop(basis_state(d, (0,))))
            tensor = out.tensor()
            # every branch carries |0> on the receiver with amplitude 1/d
            np.testing.assert_allclose(tensor[:, :, 0], np.full((d, d), 1 / d), atol=1e-12)
            assert np.max(np.abs(tensor[:, :, 1:])) < 1e-14

    def test_qutrit_branch_phases(self):
        psi = random_state(3, 1, np.random.default_rng(2))
        w = cmath.exp(2j * cmath.pi / 3)
        tensor = hop_circuit(prepare_hop(psi)).tensor()
        expected = np.array([psi.amps[0], w**2 * psi.amps[1], w * psi.amps[2]]) / 3
        for b in range(3):
            np.testing.assert_allclose(tensor[1, b, :], expected, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_expansion(self, d):
        rng = np.random.default_rng(3)
        for _ in range(25):
            psi = random_state(d, 1, rng)
            circuit = hop_circuit(prepare_hop(psi))
            np.testing.assert_allclose(circuit.amps, hop_expansion(psi).amps, atol=1e-12)

    def test_rejects_malformed_register(self):
        with pytest.raises(ValueError):
            hop_circuit(basis_state(3, (0, 1, 0)))
        with pytest.raises(ValueError):
            hop_circuit(basis_state(3, (0, 0)))


class TestHopExpansion:
    def test_normalized(self):
        for d in (2, 3, 7):
            out = hop_expansion(random_state(d, 1, np.random.default_rng(d)))
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-13)

    def test_receiver_factor_ignores_ancilla_outcome(self):
        psi = random_state(4, 1, np.random.default_rng(6))
        tensor = hop_expansion(psi).tensor()
        for a in range(4):
            for b in range(1, 4):
                np.testing.assert_allclose(tensor[a, b, :], tensor[a, 0, :], atol=1e-14)

    def test_qubit_sign_flip_branch(self):
        psi = random_state(2, 1, np.random.default_rng(7))
        tensor = hop_expansion(psi).tensor()
        expected = np.array([psi.amps[0], -psi.amps[1]]) / 2
        np.testing.assert_allclose(tensor[1, 0, :], expected, atol=1e-14)


class TestMeasureStandard:
    def test_definite_outcome(self):
        outcome, prob, collapsed = measure_standard(basis_state(3, (1, 0, 0)), 0, forced=1)
        assert outcome == 1
        assert prob == pytest.approx(1.0)
        np.testing.assert_allclose(collapsed.amps, basis_state(3, (1, 0, 0)).amps, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_uniform_marginal_on_hop_output(self, d):
        pre = hop_circuit(prepare_hop(random_state(d, 1, np.random.default_rng(8))))
        for a in range(d):
            _, prob, _ = measure_standard(pre, 0, forced=a)
            assert prob == pytest.approx(1 / d, abs=1e-12)

    def test_forced_impossible_outcome(self):
        with pytest.raises(ImpossibleOutcomeError):
            measure_standard(basis_state(2, (0,)), 0, forced=1)

    def test_completeness_and_collapse_norm(self):
        state = random_state(3, 2, np.random.default_rng(9))
        total = 0.0
        for outcome in range(3):
            _, prob, collapsed = measure_standard(state, 1, forced=outcome)
            total += prob
            assert np.linalg.norm(collapsed.amps) == pytest.approx(1.0, abs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_sampling_follows_born_rule(self):
        rng = np.random.default_rng(10)
        state = make_state(2, [math.sqrt(0.9), math.sqrt(0.1)])
        outcomes = [measure_standard(state, 0, rng=rng).outcome for _ in range(2000)]
        assert 0.06 < np.mean(outcomes) < 0.14

    def test_measurement_order_is_irrelevant(self):
        psi = random_state(3, 1, np.random.default_rng(11))
        pre = hop_circuit(prepare_hop(psi))
        for a in range(3):
            for b in range(3):
                _, pa, s01 = measure_standard(pre, 0, forced=a)
                _, pb, s01 = measure_standard(s01, 1, forced=b)
                _, qb, s10 = measure_standard(pre, 1, forced=b)
                _, qa, s10 = measure_standard(s10, 0, forced=a)
                assert pa * pb == pytest.approx(qb * qa, abs=1e-12)
                np.testing.assert_allclose(s01.amps, s10.amps, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_every_target_of_four_qudits(self, d):
        rng = np.random.default_rng(30 + d)
        state = random_state(d, 4, rng)
        for target in range(4):
            block = state.amps.reshape(d**target, d, d ** (3 - target))
            expected = np.sum(np.abs(block) ** 2, axis=(0, 2))
            for outcome in range(d):
                _, prob, collapsed = measure_standard(state, target, forced=outcome)
                assert abs(prob - expected[outcome]) <= 1e-15
                kept = collapsed.amps.reshape(block.shape)
                assert np.all(np.delete(kept, outcome, axis=1) == 0)
                np.testing.assert_allclose(
                    kept[:, outcome, :], block[:, outcome, :] / math.sqrt(prob), rtol=0, atol=1e-15
                )
            # an outcome whose whole slice carries less than the floor cannot be forced
            faint = block.copy()
            faint[:, d - 1, :] = 0
            faint[0, d - 1, 0] = math.sqrt(FORCED_OUTCOME_MIN_PROB / 4)
            faint_state = PureState(d, faint.reshape(-1) / np.linalg.norm(faint))
            with pytest.raises(ImpossibleOutcomeError):
                measure_standard(faint_state, target, forced=d - 1)

    def test_requires_rng_or_forced(self):
        with pytest.raises(ValueError):
            measure_standard(basis_state(2, (0,)), 0)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            measure_standard(basis_state(2, (0,)), 1)


class TestApplyCorrection:
    def test_zero_exponent_is_identity(self):
        psi = random_state(5, 1, np.random.default_rng(12))
        np.testing.assert_allclose(apply_correction(psi, 0).amps, psi.amps, atol=1e-15)

    def test_qutrit_phase_unwinding(self):
        psi = random_state(3, 1, np.random.default_rng(13))
        w = cmath.exp(2j * cmath.pi / 3)
        twisted = make_state(3, [psi.amps[0], w**2 * psi.amps[1], w * psi.amps[2]])
        corrected = apply_correction(twisted, 1)
        np.testing.assert_allclose(corrected.amps, psi.amps, atol=1e-13)

    def test_exponent_out_of_range(self):
        psi = basis_state(3, (0,))
        with pytest.raises(ValueError):
            apply_correction(psi, 3)
        with pytest.raises(ValueError):
            apply_correction(psi, -1)


class TestTeleportHop:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exact_recovery_everywhere(self, d):
        rng = np.random.default_rng(14)
        for _ in range(5):
            psi = random_state(d, 1, rng)
            for a in range(d):
                for b in range(d):
                    hop = teleport_hop(psi, CorrectionMode.LOCAL_EACH_HOP, forced=(a, b))
                    assert np.max(np.abs(hop.bob_post.amps - psi.amps)) < 1e-12
                    assert fidelity(psi, hop.bob_post) > 1 - 1e-12

    def test_zero_outcome_needs_no_correction(self):
        psi = random_state(5, 1, np.random.default_rng(15))
        for b in range(5):
            hop = teleport_hop(psi, CorrectionMode.DEFERRED_FINAL, forced=(0, b))
            np.testing.assert_allclose(hop.bob_pre.amps, psi.amps, atol=1e-12)

    def test_ancilla_outcome_never_matters(self):
        psi = random_state(4, 1, np.random.default_rng(16))
        for a in range(4):
            reference = teleport_hop(psi, CorrectionMode.DEFERRED_FINAL, forced=(a, 0))
            for b in range(1, 4):
                hop = teleport_hop(psi, CorrectionMode.DEFERRED_FINAL, forced=(a, b))
                np.testing.assert_allclose(hop.bob_pre.amps, reference.bob_pre.amps, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_outcome_probabilities_uniform(self, d):
        psi = random_state(d, 1, np.random.default_rng(17))
        total = 0.0
        for a in range(d):
            for b in range(d):
                hop = teleport_hop(psi, CorrectionMode.DEFERRED_FINAL, forced=(a, b))
                assert hop.prob == pytest.approx(1 / d**2, abs=1e-12)
                total += hop.prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_deferred_mode_skips_correction(self):
        psi = random_state(3, 1, np.random.default_rng(18))
        hop = teleport_hop(psi, CorrectionMode.DEFERRED_FINAL, forced=(2, 1))
        assert hop.bob_post is hop.bob_pre

    def test_sampled_outcomes_recover_too(self):
        rng = np.random.default_rng(19)
        psi = random_state(3, 1, rng)
        for _ in range(20):
            hop = teleport_hop(psi, CorrectionMode.LOCAL_EACH_HOP, rng=rng)
            assert np.max(np.abs(hop.bob_post.amps - psi.amps)) < 1e-12

    def test_entropy_diagnostic(self):
        # the receiver's entanglement with the rest of the register, just before measurement
        basis_pre = hop_circuit(prepare_hop(basis_state(3, (1,))))
        assert entanglement_entropy(basis_pre, 2) == pytest.approx(0.0, abs=1e-10)
        uniform_pre = hop_circuit(prepare_hop(uniform_state(3)))
        assert entanglement_entropy(uniform_pre, 2) == pytest.approx(1.0, abs=1e-10)

    def test_requires_randomness_source(self):
        with pytest.raises(ValueError):
            teleport_hop(basis_state(2, (0,)), CorrectionMode.LOCAL_EACH_HOP)


class TestEntanglementEntropy:
    def test_one_eigendecomposition_per_entropy(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(mat.shape) or eigvalsh(mat))
        entanglement_entropy(random_state(3, 3, np.random.default_rng(31)), (0, 1))
        assert calls == [(9, 9)]

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(20)
        state = tensor_product(random_state(3, 1, rng), random_state(3, 1, rng))
        assert entanglement_entropy(state, 0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_entangled_pair(self, d):
        amps = np.zeros(d * d)
        amps[[j * d + j for j in range(d)]] = 1 / math.sqrt(d)
        state = make_state(d, amps)
        assert entanglement_entropy(state, 0) == pytest.approx(1.0, abs=1e-12)
        assert entanglement_entropy(state, 1) == pytest.approx(1.0, abs=1e-12)

    def test_entangling_gate_creates_one_dit(self):
        entangled = apply_2q(plus_zero_zero_register(), cnot(2), 0, 2)
        assert entanglement_entropy(entangled, 2) == pytest.approx(1.0, abs=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            entanglement_entropy(basis_state(2, (0, 0)), 5)
