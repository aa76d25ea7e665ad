import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qrelay import chain, gates, teleport
from qrelay.chain import (
    ChainConfig,
    NoiseSpec,
    ResourceLimitError,
    _JointRegister,
    _register_block_entropy,
    _register_gate,
    _register_measure,
    apply_phase_noise,
    deferred_exponent,
    enumerate_branches,
    expected_fidelity,
    fidelity_table,
    full_register_chain,
    run_chain,
    run_trajectories,
)
from qrelay.core import (
    PureState,
    ValidationError,
    _draw_dit,
    basis_state,
    fidelity,
    make_state,
    random_state,
    tensor_product,
)
from qrelay.gates import apply_1q, apply_2q
from qrelay.teleport import (
    CorrectionMode,
    ImpossibleOutcomeError,
    apply_correction,
    entanglement_entropy,
    measure_standard,
    teleport_hop,
)

LOCAL = CorrectionMode.LOCAL_EACH_HOP
DEFERRED = CorrectionMode.DEFERRED_FINAL


def config(d=2, n=2, mode=DEFERRED, noise=None, seed=0):
    return ChainConfig(d=d, n=n, mode=mode, noise=noise or NoiseSpec.noiseless(d), seed=seed)


def uniform_state(d):
    return make_state(d, np.full(d, 1 / math.sqrt(d)))


def random_path(d, n, rng):
    return [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(n)]


class TestNoiseSpec:
    def test_noiseless(self):
        spec = NoiseSpec.noiseless(4)
        assert spec.probs == (1.0, 0.0, 0.0, 0.0)
        assert spec.deterministic_exponent() == 0

    def test_deterministic_nonzero(self):
        assert NoiseSpec((0.0, 0.0, 1.0)).deterministic_exponent() == 2

    def test_stochastic_has_no_fixed_exponent(self):
        assert NoiseSpec((0.5, 0.5)).deterministic_exponent() is None

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            NoiseSpec((1.5, -0.5))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            NoiseSpec((0.5, 0.4))
        with pytest.raises(ValidationError, match="noise.probs"):
            NoiseSpec((math.nan, 1.0))

    def test_rejects_single_entry(self):
        with pytest.raises(ValidationError):
            NoiseSpec((1.0,))

    def test_rejects_booleans(self):
        for probs in ((True, False), (1.0, False), np.array([True, False])):
            with pytest.raises(ValidationError, match="^noise.probs: booleans"):
                NoiseSpec(probs)


class TestChainConfig:
    def test_rejects_bad_hop_count(self):
        with pytest.raises(ValidationError):
            config(n=0)
        with pytest.raises(ValidationError, match="n:"):
            config(n=True)
        # the joint-register oracle shares the check
        for n in (0, True, 1.0):
            with pytest.raises(ValidationError, match="n:"):
                full_register_chain(2, n, uniform_state(2), [(0, 0)])

    def test_rejects_noise_length_mismatch(self):
        with pytest.raises(ValidationError):
            ChainConfig(d=3, n=1, mode=LOCAL, noise=NoiseSpec((0.5, 0.5)), seed=0)

    @pytest.mark.parametrize("noise", [(1.0, 0.0), [1.0, 0.0], None])
    def test_rejects_noise_that_is_not_a_spec(self, noise):
        with pytest.raises(ValidationError, match="^noise: expected NoiseSpec"):
            ChainConfig(2, 2, LOCAL, noise, 0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            config(seed=-1)
        with pytest.raises(ValidationError):
            config(seed=2**64)
        with pytest.raises(ValidationError, match="seed:"):
            config(seed=True)

    def test_rejects_non_enum_mode(self):
        with pytest.raises(ValidationError):
            ChainConfig(d=2, n=1, mode="local", noise=NoiseSpec.noiseless(2), seed=0)
        # a bare string would otherwise skip the local correction or run deferred
        psi = uniform_state(2)
        for mode in ("local", "bogus"):
            with pytest.raises(ValidationError, match="mode:"):
                teleport_hop(psi, mode, forced=(1, 0))
            with pytest.raises(ValidationError, match="mode:"):
                full_register_chain(2, 1, psi, [(1, 0)], mode=mode)


class TestDeferredExponent:
    def test_all_zero(self):
        assert deferred_exponent([0, 0, 0, 0], 3) == 0

    def test_wraps(self):
        assert deferred_exponent([1, 2, 2], 3) == 2

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            deferred_exponent([0, 3], 3)

    def test_single_correction_equals_sequence(self):
        rng = np.random.default_rng(30)
        for d in (2, 3, 5):
            psi = random_state(d, 1, rng)
            results = [int(rng.integers(d)) for _ in range(8)]
            sequential = psi
            for r in results:
                sequential = apply_correction(sequential, r)
            at_once = apply_correction(psi, deferred_exponent(results, d))
            np.testing.assert_allclose(sequential.amps, at_once.amps, atol=1e-12)
            # diagonal corrections commute: order of application is irrelevant
            shuffled = psi
            for r in reversed(results):
                shuffled = apply_correction(shuffled, r)
            np.testing.assert_allclose(shuffled.amps, at_once.amps, atol=1e-12)


class TestApplyPhaseNoise:
    def test_noiseless_is_identity(self):
        psi = random_state(3, 1, np.random.default_rng(31))
        out, k = apply_phase_noise(psi, NoiseSpec.noiseless(3), rng=np.random.default_rng(0))
        assert k == 0
        assert out is psi

    def test_basis_states_only_pick_up_global_phase(self):
        for d in (2, 3):
            for j in range(d):
                psi = basis_state(d, (j,))
                for k in range(d):
                    out, applied = apply_phase_noise(psi, NoiseSpec.noiseless(d), forced=k)
                    assert applied == k
                    assert fidelity(psi, out) == pytest.approx(1.0, abs=1e-12)

    def test_phase_flip_orthogonalizes_uniform_qubit(self):
        out, k = apply_phase_noise(uniform_state(2), NoiseSpec.noiseless(2), forced=1)
        assert k == 1
        assert fidelity(uniform_state(2), out) == pytest.approx(0.0, abs=1e-12)

    def test_forced_out_of_range(self):
        with pytest.raises(ValueError):
            apply_phase_noise(uniform_state(2), NoiseSpec.noiseless(2), forced=2)

    def test_needs_rng_or_forced(self):
        with pytest.raises(ValueError):
            apply_phase_noise(uniform_state(2), NoiseSpec.noiseless(2))

    def test_noise_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"^noise has 3 probabilities but state has d=2$"):
            apply_phase_noise(uniform_state(2), NoiseSpec.noiseless(3), forced=0)

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(32)
        spec = NoiseSpec((0.7, 0.3))
        draws = [apply_phase_noise(uniform_state(2), spec, rng=rng)[1] for _ in range(2000)]
        assert 0.25 < np.mean(draws) < 0.35


class TestRunChain:
    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 6), (3, 3), (5, 2)])
    def test_noiseless_fidelity_one(self, mode, d, n):
        rng = np.random.default_rng(33)
        psi = random_state(d, 1, rng)
        result = run_chain(config(d=d, n=n, mode=mode), psi, forced_outcomes=random_path(d, n, rng))
        assert result.fidelity_vs_initial == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(result.final.amps - psi.amps)) < 1e-12

    def test_strategy_equivalence_same_seed(self):
        rng = np.random.default_rng(34)
        noise = NoiseSpec((0.6, 0.2, 0.2))
        psi = random_state(3, 1, rng)
        for seed in range(6):
            finals = [
                run_chain(config(d=3, n=5, mode=mode, noise=noise, seed=seed), psi).final
                for mode in (LOCAL, DEFERRED)
            ]
            np.testing.assert_allclose(finals[0].amps, finals[1].amps, atol=1e-12)

    def test_single_hop_zero_result_is_identity(self):
        psi = random_state(4, 1, np.random.default_rng(35))
        result = run_chain(config(d=4, n=1), psi, forced_outcomes=[(0, 2)])
        assert result.results == (0,)
        assert result.deferred_exponent == 0
        np.testing.assert_allclose(result.final.amps, psi.amps, atol=1e-12)

    def test_history_contract(self):
        rng = np.random.default_rng(36)
        psi = random_state(3, 1, rng)
        path = [(2, 1), (1, 0), (0, 2)]
        result = run_chain(config(d=3, n=3, mode=LOCAL), psi, forced_outcomes=path)
        assert len(result.history) == 4
        first = result.history[0]
        assert first.r == 0
        np.testing.assert_array_equal(first.state.amps, psi.amps)
        assert [entry.r for entry in result.history[1:]] == [2, 1, 0]

    def test_history_snapshots_are_pre_correction(self):
        psi = random_state(3, 1, np.random.default_rng(37))
        result = run_chain(config(d=3, n=1, mode=LOCAL), psi, forced_outcomes=[(2, 0)])
        hop = teleport_hop(psi, DEFERRED, forced=(2, 0))
        snapshot = result.history[1].state
        np.testing.assert_allclose(snapshot.amps, hop.bob_pre.amps, atol=1e-12)
        np.testing.assert_allclose(result.final.amps, apply_correction(snapshot, 2).amps, atol=1e-12)

    def test_history_snapshots_include_noise(self):
        psi = random_state(2, 1, np.random.default_rng(38))
        result = run_chain(
            config(d=2, n=1, mode=LOCAL), psi, forced_outcomes=[(1, 0)], forced_noise=[1]
        )
        hop = teleport_hop(psi, DEFERRED, forced=(1, 0))
        noisy, _ = apply_phase_noise(hop.bob_pre, NoiseSpec.noiseless(2), forced=1)
        np.testing.assert_allclose(result.history[1].state.amps, noisy.amps, atol=1e-12)

    def test_noise_and_correction_commute(self):
        psi = random_state(3, 1, np.random.default_rng(39))
        result = run_chain(
            config(d=3, n=2, mode=DEFERRED), psi, forced_outcomes=[(1, 0), (2, 2)], forced_noise=[2, 1]
        )
        # applying the channel exponents after the deferred correction instead
        clean = run_chain(config(d=3, n=2, mode=DEFERRED), psi, forced_outcomes=[(1, 0), (2, 2)])
        late_noise = clean.final
        for k in (2, 1):
            late_noise, _ = apply_phase_noise(late_noise, NoiseSpec.noiseless(3), forced=k)
        np.testing.assert_allclose(result.final.amps, late_noise.amps, atol=1e-12)

    def test_deferred_exponent_field(self):
        psi = random_state(3, 1, np.random.default_rng(40))
        path = [(1, 0), (2, 0), (2, 1)]
        deferred = run_chain(config(d=3, n=3, mode=DEFERRED), psi, forced_outcomes=path)
        assert deferred.deferred_exponent == (1 + 2 + 2) % 3
        local = run_chain(config(d=3, n=3, mode=LOCAL), psi, forced_outcomes=path)
        assert local.deferred_exponent is None
        assert local.noise_exponents == (0, 0, 0)

    def test_reproducible_for_fixed_seed(self):
        psi = uniform_state(3)
        noise = NoiseSpec((0.4, 0.3, 0.3))
        first = run_chain(config(d=3, n=4, noise=noise, seed=77), psi)
        second = run_chain(config(d=3, n=4, noise=noise, seed=77), psi)
        assert first.results == second.results
        assert first.noise_exponents == second.noise_exponents
        np.testing.assert_array_equal(first.final.amps, second.final.amps)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_chain(config(d=3, n=1), uniform_state(2))

    def test_forced_length_mismatch(self):
        with pytest.raises(ValueError):
            run_chain(config(d=2, n=2), uniform_state(2), forced_outcomes=[(0, 0)])
        with pytest.raises(ValueError):
            run_chain(config(d=2, n=2), uniform_state(2), forced_noise=[0])
        for trial in (-1, 1.0, True, "0"):
            with pytest.raises(ValidationError, match="trial:"):
                run_chain(config(d=2, n=2), uniform_state(2), trial=trial)


class TestRunTrajectories:
    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    @pytest.mark.parametrize("d", [2, 3, 5, 16])
    def test_matches_state_vector_oracle(self, d, mode):
        """The closed-form engine reports what run_chain reports, trial for trial.

        Equal dits are not guaranteed: run_chain samples the carrier from
        Born probabilities that equal 1/d only up to rounding, so a double
        within a few ulps of a cdf step may fall on the other side of it
        there (at most d * 2^-50 of the doubles per hop, as the next test
        checks).
        """
        rng = np.random.default_rng(46 + d)
        # the batch holds no state, so one batch serves every psi sent through it
        states = (random_state(d, 1, rng), random_state(d, 1, rng))
        weights = rng.random(d)
        noises = (
            NoiseSpec.noiseless(d),
            NoiseSpec(tuple(np.eye(d)[1])),  # Z^1 on every hop
            NoiseSpec(tuple(weights / weights.sum())),
        )
        for n, noise, master in itertools.product((1, 4, 16), noises, (0, 2**63 + 5)):
            chain = config(d=d, n=n, mode=mode, noise=noise, seed=master)
            batch = run_trajectories(chain, 3)
            for psi, i in itertools.product(states, range(3)):
                oracle = run_chain(chain, psi, trial=i)
                results, noise_exponents = batch.results[i].tolist(), batch.noise_exponents[i].tolist()
                assert tuple(results) == oracle.results
                assert tuple(noise_exponents) == oracle.noise_exponents
                deferred = None if batch.deferred_exponents is None else batch.deferred_exponents[i]
                assert deferred == oracle.deferred_exponent
                fid = fidelity_table(psi)[batch.phase_exponents[i]]
                assert abs(fid - oracle.fidelity_vs_initial) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 17))
    def test_engines_disagree_on_at_most_d_2_to_the_minus_50_of_a_hop(self, d, monkeypatch):
        """Bound the doubles on which run_chain's carrier dit differs from run_trajectories'.

        Generator.random() returns m * 2^-53, and a cdf step c splits them at
        ceil(c * 2^53), so the doubles between the oracle's Born cdf and the
        uniform k/d cdf number sum_j |ceil(born_j * 2^53) - ceil(k_j * 2^53)|.
        """
        def grid(probs):
            p = np.asarray(probs, dtype=np.float64)
            cdf = (p / p.sum()).cumsum()
            cdf /= cdf[-1]
            return [math.ceil(Fraction(float(c)) * 2**53) for c in cdf]

        draws = []

        def recorded(probs, u):
            draws.append(probs)
            return _draw_dit(probs, u)

        monkeypatch.setattr(teleport, "_draw_dit", recorded)
        uniform = grid(np.full(d, 1.0 / d))
        rng = np.random.default_rng(100 + d)
        worst = 0
        for psi in [random_state(d, 1, rng) for _ in range(40)] + [uniform_state(d), basis_state(d, (d - 1,))]:
            draws.clear()
            teleport_hop(psi, DEFERRED, rng=rng)
            born = grid(draws[0])  # the carrier's; the ancilla's comes second
            worst = max(worst, sum(abs(b - u) for b, u in zip(born, uniform)))
        assert worst <= d * 2**3  # d * 2^-50 of the 2^53 doubles

    def test_trial_i_is_block_i_of_the_seed_stream(self):
        """Trial i maps doubles [3n*i, 3n*(i+1)) of default_rng(seed), so adjacent
        master seeds share no trial, not even in another order."""
        d, n, trials = 16, 4, 1000
        noise = NoiseSpec((1 / d,) * d)
        rows = []
        for master in (0, 1):
            chain = config(d=d, n=n, noise=noise, seed=master)
            batch = run_trajectories(chain, trials)
            doubles = np.random.default_rng(master).random((trials, n, 3))
            np.testing.assert_array_equal(batch.results, _draw_dit(np.full(d, 1 / d), doubles[..., 0]))
            np.testing.assert_array_equal(batch.noise_exponents, _draw_dit(noise.probs, doubles[..., 2]))
            dits = np.hstack([batch.results, batch.noise_exponents])
            rows.append({tuple(row) for row in dits.tolist()})
        assert len(rows[0]) == len(rows[1]) == trials
        assert not rows[0] & rows[1]

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError, match="trials:"):
            run_trajectories(config(d=2), 0)

    def test_fidelity_table(self):
        # a Z power only rephases basis states; Z^1 makes the uniform qubit orthogonal
        np.testing.assert_allclose(fidelity_table(basis_state(3, (1,))), [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(fidelity_table(uniform_state(2)), [1, 0], atol=1e-12)
        with pytest.raises(ValidationError, match="psi0: must be a single qudit"):
            fidelity_table(basis_state(2, (0, 1)))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16])
    def test_fidelity_table_matches_state_vector_oracle(self, d, monkeypatch):
        """The closed form against fidelity(psi0, Z^K psi0), built and overlapped as states."""
        states = [random_state(d, 1, np.random.default_rng(seed)) for seed in range(5)]
        states += [uniform_state(d), basis_state(d, (d - 1,))]
        oracle = [[fidelity(psi, apply_1q(psi, gates.pauli_z_power(d, k), 0)) for k in range(d)] for psi in states]

        def no_blas(*args, **kwargs):
            raise AssertionError("BLAS call")

        monkeypatch.setattr(np, "vdot", no_blas)
        monkeypatch.setattr(np, "dot", no_blas)
        for psi, expected in zip(states, oracle):
            np.testing.assert_allclose(fidelity_table(psi), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_fidelity_table_is_symmetric_bit_for_bit(self, d):
        # F[d-K] sums the conjugates of F[K]'s phases with the same weights, so its modulus is equal
        rng = np.random.default_rng(70 + d)
        for psi in [random_state(d, 1, rng) for _ in range(5)] + [uniform_state(d)]:
            table = fidelity_table(psi).tolist()
            assert table[1:] == table[:0:-1]

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (5, 2)])
    def test_expected_fidelity_sums_the_oracle_over_noise_paths(self, d, n):
        rng = np.random.default_rng(47 + d)
        psi = random_state(d, 1, rng)
        weights = rng.random(d)
        probs = weights / weights.sum()
        chain = config(d=d, n=n, noise=NoiseSpec(tuple(probs)))
        exact = 0.0
        for path in itertools.product(range(d), repeat=n):
            result = run_chain(chain, psi, forced_outcomes=random_path(d, n, rng), forced_noise=path)
            exact += math.prod(probs[k] for k in path) * result.fidelity_vs_initial
        assert abs(expected_fidelity(chain, psi) - exact) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_expected_fidelity_matches_exact_noise_law(self, d):
        """P(K) summed exactly over all d^n noise sequences, against the FFT convolution."""
        rng = np.random.default_rng(50 + d)
        psi = random_state(d, 1, rng)
        table = [Fraction(f) for f in fidelity_table(psi)]
        weights = rng.random(d)
        noises = (
            NoiseSpec.noiseless(d),
            NoiseSpec((0.9,) + (0.1 / (d - 1),) * (d - 1)),
            NoiseSpec(tuple(weights / weights.sum())),
        )
        for noise, n in itertools.product(noises, range(1, 5)):
            probs = [Fraction(p) for p in noise.probs]
            exact = sum(
                math.prod(probs[k] for k in ks) * table[sum(ks) % d]
                for ks in itertools.product(range(d), repeat=n)
            )
            chain = config(d=d, n=n, noise=noise)
            assert abs(expected_fidelity(chain, psi) - float(exact)) <= 1e-12, (noise, n)


class TestNumpyIntegers:
    """A numpy integer is accepted wherever an int is, stored as an int, and
    gives the same results as that int."""

    def test_constructors_store_ints(self):
        chain = ChainConfig(
            d=np.int64(3), n=np.int32(2), mode=LOCAL, noise=NoiseSpec.noiseless(3), seed=np.uint64(5)
        )
        state = PureState(np.int64(3), uniform_state(3).amps)
        gate = gates.GateMatrix(np.int8(3), np.eye(3))
        for value in (chain.d, chain.n, chain.seed, state.d, state.num_qudits, gate.d, gate.arity):
            assert type(value) is int
        assert chain == config(d=3, n=2, mode=LOCAL, seed=5)

    def test_counts_give_the_int_rows(self):
        psi = random_state(3, 1, np.random.default_rng(48))
        chain = config(d=3, n=4, noise=NoiseSpec((0.8, 0.1, 0.1)), seed=7)
        plain, numpy = run_trajectories(chain, 10), run_trajectories(chain, np.int64(10))
        for field in ("results", "noise_exponents", "phase_exponents", "deferred_exponents"):
            np.testing.assert_array_equal(getattr(numpy, field), getattr(plain, field))
        plain, numpy = run_chain(chain, psi, trial=1), run_chain(chain, psi, trial=np.int64(1))
        assert (numpy.results, numpy.noise_exponents) == (plain.results, plain.noise_exponents)
        np.testing.assert_array_equal(numpy.final.amps, plain.final.amps)

    def test_joint_register_dimension_and_hops(self):
        psi = random_state(3, 1, np.random.default_rng(49))
        path = [(1, 2), (0, 1)]
        plain = full_register_chain(3, 2, psi, path)
        numpy = full_register_chain(np.int64(3), np.int64(2), psi, path)
        assert type(numpy.final.d) is int
        np.testing.assert_array_equal(numpy.final.amps, plain.final.amps)
        assert numpy.boundary_entropies == plain.boundary_entropies

    def test_numpy_dimension_gives_the_int_register(self):
        # 16^18 wraps to 0 in int64: no size of the whole register may be formed from d
        psi = random_state(16, 1, np.random.default_rng(50))
        plain = full_register_chain(16, 6, psi, [(1, 2)] * 6)
        numpy = full_register_chain(np.int64(16), 6, psi, [(1, 2)] * 6)
        np.testing.assert_array_equal(numpy.final.amps, plain.final.amps)
        assert numpy.boundary_entropies == plain.boundary_entropies == (0.0,) * 5


class TestEnumerateBranches:
    def test_eight_uniform_paths(self):
        branches = enumerate_branches(config(d=2, n=3), uniform_state(2))
        assert len(branches) == 8
        assert {branch.path for branch in branches} == set(itertools.product(range(2), repeat=3))
        for branch in branches:
            assert branch.probability == pytest.approx(1 / 8)
            assert branch.fidelity == pytest.approx(1.0, abs=1e-12)
        assert sum(branch.probability for branch in branches) == pytest.approx(1.0, abs=1e-15)

    def test_budget_exceeded(self):
        with pytest.raises(ResourceLimitError):
            enumerate_branches(config(d=3, n=8), uniform_state(3))

    def test_stochastic_noise_rejected(self):
        noisy = config(d=2, n=2, noise=NoiseSpec((0.5, 0.5)))
        with pytest.raises(ValidationError):
            enumerate_branches(noisy, uniform_state(2))

    def test_deterministic_phase_error_breaks_fidelity(self):
        # an always-on, uncorrected Z flips the uniform qubit to orthogonal
        flipping = config(d=2, n=1, noise=NoiseSpec((0.0, 1.0)))
        branches = enumerate_branches(flipping, uniform_state(2))
        for branch in branches:
            assert branch.fidelity == pytest.approx(0.0, abs=1e-12)


class TestFullRegisterChain:
    def test_single_hop_reduces_to_teleport(self):
        for d in (2, 3):
            psi = random_state(d, 1, np.random.default_rng(41))
            for a in range(d):
                for b in range(d):
                    joint = full_register_chain(d, 1, psi, [(a, b)])
                    hop = teleport_hop(psi, LOCAL, forced=(a, b))
                    np.testing.assert_allclose(joint.final.amps, hop.bob_post.amps, atol=1e-12)

    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    def test_matches_factorized_chain(self, mode):
        psi = random_state(2, 1, np.random.default_rng(42))
        for path in itertools.product(itertools.product(range(2), repeat=2), repeat=2):
            joint = full_register_chain(2, 2, psi, list(path), mode=mode)
            factorized = run_chain(config(d=2, n=2, mode=mode), psi, forced_outcomes=list(path))
            np.testing.assert_allclose(joint.final.amps, factorized.final.amps, atol=1e-12)
            assert all(abs(e) < 1e-10 for e in joint.boundary_entropies)

    def test_product_boundaries_have_entropy_plus_zero(self):
        # the largest Schmidt weight of these boundaries rounds just above 1
        psi = random_state(2, 1, np.random.default_rng(1))
        path = [(1, 0), (0, 1), (1, 1), (0, 0), (1, 0), (0, 1), (1, 1)]
        entropies = full_register_chain(2, 7, psi, path).boundary_entropies
        assert [(e, math.copysign(1.0, e)) for e in entropies] == [(0.0, 1.0)] * 6

    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    def test_seven_hops_take_no_svd_and_hold_at_most_three_live_qudits(self, mode, monkeypatch):
        # every handed-off block is constant, and only a hop's carrier, ancilla and receiver are ever live
        live = []

        def watched(routine, slot):
            def call(*args):
                routine(*args)
                reg = args[slot]
                live.append(len(reg.axes))
                assert reg.amps.shape == (2,) * len(reg.axes)

            return call

        def no_svd(*args, **kwargs):
            raise AssertionError("a constant boundary took the SVD")

        # the register is the gate routine's second argument and the measurement's first
        for name, slot in (("_register_gate", 1), ("_register_measure", 0)):
            monkeypatch.setattr(chain, name, watched(getattr(chain, name), slot))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        psi = random_state(2, 1, np.random.default_rng(46))
        joint = full_register_chain(2, 7, psi, [(1, 0), (0, 1), (1, 1), (0, 0), (1, 0), (0, 1), (1, 1)], mode=mode)
        assert joint.boundary_entropies == (0.0,) * 6
        # a Z^a per hop in local mode, one Z^f at the end in deferred mode
        assert len(live) == 7 * 5 + 6 * 2 + (7 if mode is LOCAL else 1)
        assert max(live) == 3
        np.testing.assert_allclose(joint.final.amps, psi.amps, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_runs_without_the_dense_kernel(self, d, mode, monkeypatch):
        # the deferred Z^f acts inside the register too, so the register checks the kernel in both modes
        def no_kernel(*args):
            raise AssertionError("the joint register ran the dense gate kernel")

        rng = np.random.default_rng(47 + d)
        psi = random_state(d, 1, rng)
        path = [(int(rng.integers(d)), int(rng.integers(d))) for _ in range(5)]
        monkeypatch.setattr(gates, "_apply", no_kernel)
        joint = full_register_chain(d, 5, psi, path, mode)
        np.testing.assert_allclose(joint.final.amps, psi.amps, rtol=0, atol=1e-12)
        assert [(e, math.copysign(1.0, e)) for e in joint.boundary_entropies] == [(0.0, 1.0)] * 4

    def test_boundary_entropy_count(self):
        psi = random_state(2, 1, np.random.default_rng(43))
        joint = full_register_chain(2, 3, psi, [(0, 0), (1, 1), (0, 1)])
        assert len(joint.boundary_entropies) == 2

    def test_paper_dimension_runs_past_two_hops(self):
        # 16^9 amplitudes, past any dense register; the live block holds at most 16^3
        psi = random_state(16, 1, np.random.default_rng(44))
        joint = full_register_chain(16, 3, psi, [(0, 0)] * 3)
        np.testing.assert_allclose(joint.final.amps, psi.amps, rtol=0, atol=1e-12)
        assert joint.boundary_entropies == (0.0, 0.0)

    def test_path_length_checked(self):
        with pytest.raises(ValueError):
            full_register_chain(2, 2, uniform_state(2), [(0, 0)])

    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_public_api_oracle_on_every_path(self, d, n, mode):
        psi = random_state(d, 1, np.random.default_rng(10 * d + n))
        for path in itertools.product(itertools.product(range(d), repeat=2), repeat=n):
            joint = full_register_chain(d, n, psi, list(path), mode=mode)
            final, entropies = joint_register_oracle(d, n, psi, path, mode)
            np.testing.assert_allclose(joint.final.amps, final, rtol=0, atol=1e-12, err_msg=str(path))
            assert len(joint.boundary_entropies) == len(entropies) == n - 1
            np.testing.assert_allclose(joint.boundary_entropies, entropies, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", [LOCAL, DEFERRED])
    @pytest.mark.parametrize("d,n", [(2, 8), (16, 2), (16, 100)])
    def test_peak_memory_does_not_grow_with_the_register(self, d, n, mode):
        # a dense d^(3n) register is 256 MiB at (2, 8) and (16, 2); the live block holds at most d^3 amplitudes
        psi = random_state(d, 1, np.random.default_rng(45))
        path = [(i % d, (i * 7 + 3) % d) for i in range(n)]
        full_register_chain(d, n, psi, path, mode)  # builds the cached gates first
        tracemalloc.start()
        try:
            full_register_chain(d, n, psi, path, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


HOP_GATES = {
    "cnot": gates.cnot,
    "cnot_dagger": gates.cnot_dagger,
    "hadamard": gates.hadamard,
    "hadamard_inverse": gates.hadamard_inverse,
    "pauli_z_power": lambda d: gates.pauli_z_power(d, d - 1),
}


def live_register(state):
    """`state` as a joint register with every qudit live."""
    return _JointRegister(state.d, [None] * state.num_qudits, list(range(state.num_qudits)), state.tensor())


def product_register(d, width, constants, rng):
    """A product state whose qudits in `constants` (qudit -> digit) hold those basis digits and
    the rest random states: as a joint register with just those qudits constant, and as a PureState."""
    factors = [basis_state(d, (constants[q],)) if q in constants else random_state(d, 1, rng) for q in range(width)]
    live = [q for q in range(width) if q not in constants]
    amps = functools.reduce(tensor_product, [factors[q] for q in live]).tensor() if live else np.array(1.0 + 0j)
    reg = _JointRegister(d, [constants.get(q) for q in range(width)], live, amps)
    return reg, functools.reduce(tensor_product, factors)


def dense(reg):
    """The register's full d^width amplitude vector, after checking that its parts agree."""
    d, width = reg.d, len(reg.digits)
    live = [q for q, digit in enumerate(reg.digits) if digit is None]
    assert sorted(reg.axes) == live and reg.amps.shape == (d,) * len(live)
    full = np.zeros((d,) * width, dtype=complex)
    full[tuple(slice(None) if digit is None else digit for digit in reg.digits)] = reg.amps.transpose(
        [reg.axes.index(q) for q in live]
    )
    return full.reshape(-1)


class TestJointRegisterRoutines:
    """The joint register's routines against the dense public API."""

    @pytest.mark.parametrize("name", sorted(HOP_GATES))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_dense_kernel_on_full_support(self, d, name):
        g = HOP_GATES[name](d)
        width = 3
        state = random_state(d, width, np.random.default_rng(50 + d))
        assert np.all(state.amps != 0)
        if g.arity == 1:
            cases = [((q,), apply_1q(state, g, q)) for q in range(width)]
        else:
            pairs = [(c, t) for c in range(width) for t in range(width) if c != t]
            cases = [((c, t), apply_2q(state, g, c, t)) for c, t in pairs]
        for positions, expected in cases:
            reg = live_register(state)
            _register_gate(g, reg, positions)
            np.testing.assert_allclose(dense(reg), expected.amps, rtol=0, atol=1e-12, err_msg=str(positions))

    @pytest.mark.parametrize("name", sorted(HOP_GATES))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_dense_kernel_on_constant_operands(self, d, name):
        # some or all of the gate's qudits hold basis digits, the rest is random
        g = HOP_GATES[name](d)
        rng = np.random.default_rng(80 + d)
        width = 4
        cases = [(1,), (3,)] if g.arity == 1 else [(0, 2), (3, 1)]
        for positions in cases:
            # one qudit off the gate is constant too, and must stay so
            bystander = min(q for q in range(width) if q not in positions)
            for held in [positions] + ([positions[:1], positions[1:]] if g.arity == 2 else []):
                constants = {q: int(rng.integers(d)) for q in (*held, bystander)}
                reg, state = product_register(d, width, constants, rng)
                expected = apply_1q(state, g, *positions) if g.arity == 1 else apply_2q(state, g, *positions)
                _register_gate(g, reg, positions)
                np.testing.assert_allclose(dense(reg), expected.amps, rtol=0, atol=1e-12, err_msg=str(held))
                if held == positions:
                    # a permutation or phase keeps its operands constant; F spreads its one
                    assert all((reg.digits[q] is None) == name.startswith("hadamard") for q in positions)
                assert reg.digits[bystander] == constants[bystander]
                assert all(reg.digits[q] is None for q in range(width) if q not in (*positions, bystander))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_uneven_controlled_fourier_matches_dense_kernel(self, d):
        # controlled Fourier: one nonzero in each control-0 column, d in every other
        mat = np.zeros((d * d, d * d), dtype=complex)
        mat[:d, :d] = np.eye(d)
        for a in range(1, d):
            mat[a * d : (a + 1) * d, a * d : (a + 1) * d] = gates.hadamard(d).mat
        g = gates.GateMatrix(d, mat)
        assert np.max(np.abs(g.mat @ g.mat.conj().T - np.eye(d * d))) <= 1e-12
        rng = np.random.default_rng(90 + d)
        # control in superposition, target in F^-1|0>, which F sends back to |0>
        target = apply_1q(basis_state(d, (0,)), gates.hadamard_inverse(d), 0)
        state = tensor_product(random_state(d, 2, rng), target)
        reg = live_register(state)
        _register_gate(g, reg, (0, 2))
        np.testing.assert_allclose(dense(reg), apply_2q(state, g, 0, 2).amps, rtol=0, atol=1e-12)
        # a constant control joins as a one-hot axis and settles back to its digit
        for a in (0, d - 1):
            reg, state = product_register(d, 3, {0: a}, rng)
            _register_gate(g, reg, (0, 2))
            np.testing.assert_allclose(dense(reg), apply_2q(state, g, 0, 2).amps, rtol=0, atol=1e-12)
            assert reg.digits[0] == a and reg.digits[2] is None
        # constant digits on both operands: a control-0 column has one nonzero, so both stay
        # constant; any other control's column has d, so the target spreads and the control
        # settles back to its digit
        for a in (0, 1, d - 1):
            reg, state = product_register(d, 3, {0: a, 2: 1}, rng)
            _register_gate(g, reg, (0, 2))
            np.testing.assert_allclose(dense(reg), apply_2q(state, g, 0, 2).amps, rtol=0, atol=1e-12)
            assert reg.digits[0] == a and (reg.digits[2] == 1 if a == 0 else reg.digits[2] is None)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_fourier_then_inverse_returns_the_basis_state(self, d):
        reg = _JointRegister(d, [1, d - 1], [], np.array(1.0 + 0j))
        _register_gate(gates.hadamard(d), reg, (1,))
        assert reg.axes == [1] and reg.amps.shape == (d,)
        _register_gate(gates.hadamard_inverse(d), reg, (1,))
        expected = basis_state(d, (1, d - 1)).amps
        np.testing.assert_allclose(dense(reg), expected, rtol=0, atol=1e-15)
        if d == 2:
            # the two cross terms cancel exactly, so the qudit settles back to its digit
            assert reg.digits == [1, 1] and reg.axes == []

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_measure_matches_measure_standard(self, d):
        state = random_state(d, 3, np.random.default_rng(55 + d))
        for target in range(3):
            for outcome in range(d):
                expected = measure_standard(state, target, forced=outcome).state.amps
                reg = live_register(state)
                _register_measure(reg, target, outcome)
                assert reg.digits[target] == outcome and target not in reg.axes
                np.testing.assert_allclose(dense(reg), expected, rtol=0, atol=1e-12)
        # a constant qudit: the whole block if the digit matches, probability 0 if not
        reg, state = product_register(d, 3, {1: 1}, np.random.default_rng(56 + d))
        _register_measure(reg, 1, 1)
        np.testing.assert_allclose(dense(reg), state.amps, rtol=0, atol=1e-12)
        with pytest.raises(ImpossibleOutcomeError, match="outcome 0 on qudit 1 has probability 0.000e"):
            _register_measure(reg, 1, 0)
        # a live qudit whose slice is empty: the same error, and the register is left as it was
        reg = live_register(tensor_product(random_state(d, 1, np.random.default_rng(57)), basis_state(d, (1, 0))))
        with pytest.raises(ImpossibleOutcomeError, match="outcome 0 on qudit 1 has probability 0.000e"):
            _register_measure(reg, 1, 0)
        assert reg.axes == [0, 1, 2] and reg.digits == [None] * 3

    @pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
    def test_block_entropy_matches_dense_entropy(self, d, n):
        # entangled blocks, which the protocol's product boundaries never give
        rng = np.random.default_rng(60 + d)
        width = 3 * n
        for _ in range(3):
            state = random_state(d, width, rng)
            for first in range(0, width - 2, 3):
                expected = entanglement_entropy(state, (first, first + 1, first + 2))
                assert abs(_register_block_entropy(live_register(state), first) - expected) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_entangled_block_is_not_taken_for_rank_one(self, d):
        # sum_j |j00>|j00> / sqrt(d): qudits 0 and 3 share a maximally entangled pair, the rest are 0
        for axes in ([0, 3], [3, 0]):
            reg = _JointRegister(d, [None, 0, 0, None, 0, 0], axes, np.eye(d, dtype=complex) / math.sqrt(d))
            assert abs(_register_block_entropy(reg, 0) - 1.0) <= 1e-12
            assert abs(_register_block_entropy(reg, 3) - 1.0) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_basis_block_has_entropy_plus_zero(self, d, monkeypatch):
        # block 1 is the constant |1,0,d-1>; block 0, a random live state, is a product with it
        # too, but it is live, so its entropy comes from the singular values
        reg, _ = product_register(d, 6, {3: 1, 4: 0, 5: d - 1}, np.random.default_rng(95 + d))
        def no_svd(*args, **kwargs):
            raise AssertionError("a constant block took the SVD")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", no_svd)
            entropy = _register_block_entropy(reg, 3)
        assert (entropy, math.copysign(1.0, entropy)) == (0.0, 1.0)
        assert 0.0 <= _register_block_entropy(reg, 0) <= 1e-12


def joint_register_oracle(d, n, psi0, path, mode):
    """The joint 3n-qudit register rebuilt from the allocating public API:
    (final receiver amplitudes, boundary entropies)."""
    state = tensor_product(psi0, basis_state(d, (0,) * (3 * n - 1)))
    entropies = []
    for i, (a, b) in enumerate(path):
        carrier, ancilla, receiver = 3 * i, 3 * i + 1, 3 * i + 2
        if i > 0:
            state = apply_2q(state, gates.cnot(d), carrier - 1, carrier)
            state = apply_2q(state, gates.cnot_dagger(d), carrier, carrier - 1)
            entropies.append(entanglement_entropy(state, (carrier - 3, carrier - 2, carrier - 1)))
        state = apply_2q(state, gates.cnot(d), carrier, receiver)
        state = apply_1q(state, gates.hadamard_inverse(d), carrier)
        state = apply_1q(state, gates.hadamard(d), ancilla)
        state = measure_standard(state, carrier, forced=a).state
        state = measure_standard(state, ancilla, forced=b).state
        if mode is LOCAL:
            state = apply_1q(state, gates.pauli_z_power(d, a), receiver)
    digits = [dit for i, (a, b) in enumerate(path) for dit in (a, b, 0)][:-1]
    final = state.tensor()[tuple(digits)]
    if mode is DEFERRED:
        final = final * np.exp(2j * np.pi * np.arange(d) * sum(a for a, _ in path) / d)
    return final, entropies


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the calls of the dense gate kernel and of the joint register's
    sparse gate routine, whatever public function makes them."""
    calls = []
    for module, name in ((gates, "_apply"), (chain, "_register_gate")):

        def counted(*args, name=name, routine=getattr(module, name)):
            calls.append(name)
            return routine(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_kernel_calls_sees_both_gate_routines(kernel_calls):
    full_register_chain(2, 2, uniform_state(2), [(0, 0), (1, 1)])
    # per hop three hop gates and one correction, plus one CNOT pair per handoff
    assert kernel_calls.count("_register_gate") == 10 and "_apply" not in kernel_calls
    run_chain(config(d=2, n=1), uniform_state(2), forced_outcomes=[(0, 0)])
    assert "_apply" in kernel_calls


class TestForcedPathValidatedFirst:
    @pytest.mark.parametrize(
        "last,field",
        [((0.5, 0), "forced_path[6][0]"), ((0, True), "forced_path[6][1]"), ((0, 2), "forced_path[6][1]")],
    )
    def test_bad_last_dit_is_named_before_any_gate(self, kernel_calls, last, field):
        psi = uniform_state(2)
        message = f"{field}: must be an integer in [0, 2), got {last[int(field[-2])]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            full_register_chain(2, 7, psi, [(0, 0)] * 6 + [last])
        assert kernel_calls == []

    @pytest.mark.parametrize("last", [(0, 0, 0), (1,), 0, "01", {1: 0, 0: 1}, {0, 1}, np.array([0.0, 1.0])])
    def test_bad_last_entry_is_named_before_any_gate(self, kernel_calls, last):
        psi = uniform_state(2)
        with pytest.raises(ValueError, match=re.escape("forced_path[6]")):
            full_register_chain(2, 7, psi, [(0, 0)] * 6 + [last])
        assert kernel_calls == []

    def test_run_chain_forced_outcomes(self, kernel_calls):
        with pytest.raises(ValueError, match=re.escape("forced_outcomes[1]: must list 2 dits, got (1,)")):
            run_chain(config(d=2, n=2), uniform_state(2), forced_outcomes=[(0, 0), (1,)])
        message = "forced_outcomes[1][0]: must be an integer in [0, 2), got 1.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_chain(config(d=2, n=2), uniform_state(2), forced_outcomes=[(0, 0), (1.0, 0)])
        assert kernel_calls == []

    def test_run_chain_forced_noise(self, kernel_calls):
        message = "forced_noise[1]: must be an integer in [0, 3), got 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_chain(config(d=3, n=2), uniform_state(3), forced_noise=[0, 3])
        assert kernel_calls == []

    @pytest.mark.parametrize(
        "field,values",
        [("forced_noise", {1: 2, 0: 1}), ("forced_noise", {1, 0}), ("forced_noise", "01"),
         ("forced_noise", np.array([0.0, 1.0])), ("forced_outcomes", {0: (0, 0), 1: (1, 1)})],
    )
    def test_only_sequences_are_forced(self, kernel_calls, field, values):
        """A dict would run in key order and a set in hash order, so both are refused by name."""
        with pytest.raises(ValidationError, match=f"^{field}: must be a tuple, list or integer array of "):
            run_chain(config(d=3, n=2), uniform_state(3), **{field: values})
        assert kernel_calls == []

    @pytest.mark.parametrize(
        "forced,field",
        [((1,), "forced"), ((1, 2, 3), "forced"), (7, "forced"), (np.array(7), "forced"),
         ((0, 5), "forced[1]"), ({1: 2, 0: 1}, "forced"), ({1, 0}, "forced"), (range(2), "forced")],
    )
    def test_teleport_hop_forced_pair(self, kernel_calls, forced, field):
        with pytest.raises(ValidationError, match="^" + re.escape(field) + ": "):
            teleport_hop(uniform_state(3), LOCAL, forced=forced)
        assert kernel_calls == []

    def test_numpy_pairs_are_accepted(self):
        psi = random_state(3, 1, np.random.default_rng(46))
        path = np.array([[1, 2], [0, 1]])
        joint = full_register_chain(3, 2, psi, path)
        np.testing.assert_allclose(joint.final.amps, psi.amps, atol=1e-12)
        result = run_chain(config(d=3, n=2, mode=LOCAL), psi, forced_outcomes=path, forced_noise=np.zeros(2, int))
        assert result.results == (1, 0)


def test_monte_carlo_outcome_uniformity():
    # 10,000 sampled hops: every (a, b) cell within five standard errors of 1/d^2
    rng = np.random.default_rng(45)
    d = 2
    psi = uniform_state(d)
    counts = np.zeros((d, d))
    hops = 10_000
    for _ in range(hops):
        outcome = teleport_hop(psi, LOCAL, rng=rng)
        counts[outcome.a, outcome.b] += 1
    expected = hops / d**2
    sigma = math.sqrt(hops * (1 / d**2) * (1 - 1 / d**2))
    assert np.max(np.abs(counts - expected)) < 5 * sigma
