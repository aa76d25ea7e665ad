"""One-way transmission chains built from teleportation hops.

A chain run is strictly sequential: hop i+1 consumes hop i's output qudit.
Randomness comes from one seeded stream per run, `default_rng(seed)`,
consumed in a fixed order per hop (carrier outcome, ancilla outcome, noise
exponent), one double per draw, mapped to a dit by one rule
(`core._draw_dit`), so runs are bit-reproducible. Trial i is block i of
3n doubles (`_trial_stream`), so trials are independent and replayable.

Two engines share that draw contract. `run_chain` is the state-vector
oracle: it builds, measures and slices every hop register. Because every
hop is corrected by a Z power and every channel error is a Z power, a run
always delivers Z^K psi0 with K = (sum of noise exponents) mod d, so
`run_trajectories`, the engine `qrelay run` uses, only draws the dits and
reads the fidelity from a d-entry table. The two agree exactly on the
dits almost surely: the oracle's Born cdf equals k/d only up to rounding.

The same fact makes `qrelay enumerate` closed-form: under a fixed channel
exponent k every carrier path delivers Z^K psi0 with K = n*k mod d.
`enumerate_branches` walks the d^n paths through `run_chain` and stays in
the library as that command's oracle; both share the enumeration
preconditions (`_enumeration_exponent`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import gates
from .core import (
    PureState,
    ValidationError,
    _check_dit,
    _draw_dit,
    basis_state,
    check_dim,
    check_positive_int,
    fidelity,
    tensor_product,
)
from .teleport import (
    CorrectionMode,
    apply_correction,
    entanglement_entropy,
    measure_standard,
    teleport_hop,
)

PROBABILITY_TOL = 1e-12
# joint-register runs are capped at this many amplitudes
FULL_REGISTER_AMPLITUDE_LIMIT = 2**24
DEFAULT_PATH_BUDGET = 4096


class ResourceLimitError(RuntimeError):
    """An exhaustive mode was asked to exceed its stated budget."""


@dataclass(frozen=True)
class NoiseSpec:
    """Phase-noise channel: apply Z^k with probability probs[k] between hops."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            probs = tuple(float(p) for p in self.probs)
        except (TypeError, ValueError):
            raise ValidationError(f"noise.probs: expected reals, got {self.probs!r}") from None
        if len(probs) < 2:
            raise ValidationError("noise.probs: need one probability per dit value")
        if not all(math.isfinite(p) for p in probs):
            raise ValidationError(f"noise.probs: probabilities must be finite, got {probs}")
        if any(p < 0.0 for p in probs):
            raise ValidationError(f"noise.probs: probabilities must be >= 0, got {probs}")
        if abs(sum(probs) - 1.0) > PROBABILITY_TOL:
            raise ValidationError(f"noise.probs: must sum to 1, got sum {sum(probs)!r}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def noiseless(cls, d: int) -> "NoiseSpec":
        check_dim(d)
        return cls((1.0,) + (0.0,) * (d - 1))

    def deterministic_exponent(self) -> int | None:
        """The fixed exponent this channel always applies, or None if random."""
        for k, p in enumerate(self.probs):
            if abs(p - 1.0) <= PROBABILITY_TOL:
                return k
        return None


@dataclass(frozen=True)
class ChainConfig:
    """Static parameters of one transmission chain."""

    d: int
    n: int
    mode: CorrectionMode
    noise: NoiseSpec
    seed: int

    def __post_init__(self) -> None:
        check_dim(self.d)
        check_positive_int("n", self.n)
        CorrectionMode.check(self.mode)
        if len(self.noise.probs) != self.d:
            raise ValidationError(
                f"noise.probs: expected {self.d} probabilities, got {len(self.noise.probs)}"
            )
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ValidationError(f"seed: must be a 64-bit unsigned integer, got {seed!r}")


class HistoryEntry(NamedTuple):
    state: PureState
    r: int


@dataclass(frozen=True, eq=False)
class ChainResult:
    """Outcome of one chain run, after all corrections.

    `history` is the initial state plus one (snapshot, r) entry per hop.
    Snapshots are recorded after channel noise but before any correction,
    so the applied correction is reconstructible from r.
    """

    final: PureState
    results: tuple[int, ...]
    history: tuple[HistoryEntry, ...]
    fidelity_vs_initial: float
    deferred_exponent: int | None
    noise_exponents: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class BranchOutcome:
    path: tuple[int, ...]
    probability: float
    final: PureState
    fidelity: float


@dataclass(frozen=True, eq=False)
class FullRegisterResult:
    """Joint-register run: received state plus per-handoff block entropies."""

    final: PureState
    boundary_entropies: tuple[float, ...]


def deferred_exponent(results: Sequence[int], d: int) -> int:
    """Single end-of-chain correction exponent, (sum of results) mod d."""
    check_dim(d)
    return sum(_check_dit(r, d, f"results[{i}]") for i, r in enumerate(results)) % d


def apply_phase_noise(
    state: PureState,
    noise: NoiseSpec,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[PureState, int]:
    """Sample one Z^k error and apply it; returns (state, k).

    Trajectory semantics: one exponent is drawn per call, the state stays
    pure. `forced` pins the exponent for exhaustive or replay runs.
    """
    d = state.d
    if len(noise.probs) != d:
        raise ValueError(f"noise has {len(noise.probs)} probabilities but state has d={d}")
    if forced is not None:
        k = _check_dit(forced, d, "forced")
    else:
        if rng is None:
            raise ValueError("apply_phase_noise needs either an rng or a forced exponent")
        k = int(_draw_dit(noise.probs, rng.random()))
    if k == 0:
        return state, 0
    return gates.apply_1q(state, gates.pauli_z_power(d, k), 0), k


def _trial_stream(seed: int, n: int, trial: int = 0) -> np.random.Generator:
    """default_rng(seed) from trial `trial`'s start; trial i owns doubles [3n*i, 3n*(i+1))."""
    bits = np.random.PCG64(seed)
    bits.advance(3 * n * trial)
    return np.random.Generator(bits)


def _check_chain_input(d: int, psi0: PureState) -> None:
    if psi0.num_qudits != 1 or psi0.d != d:
        raise ValueError(
            f"chain input must be a single qudit of dimension d={d}, "
            f"got {psi0.num_qudits} of d={psi0.d}"
        )


def run_chain(
    config: ChainConfig,
    psi0: PureState,
    forced_outcomes: Sequence[tuple[int, int]] | None = None,
    forced_noise: Sequence[int] | None = None,
    trial: int = 0,
) -> ChainResult:
    """Send psi0 through n hops and report the corrected received state.

    Per hop: teleport, apply channel noise to the in-flight qudit, append
    (state, r) to the history, then in LOCAL_EACH_HOP mode apply Z^r
    immediately. In DEFERRED_FINAL mode the results are only collected and
    a single Z^f with f = (sum r_i) mod d closes the run. The history has
    n + 1 entries; entry 0 is (psi0, 0). Drawing trial `trial`'s block of
    the seed's stream replays that row of run_trajectories.
    """
    _check_chain_input(config.d, psi0)
    if isinstance(trial, bool) or not isinstance(trial, int) or trial < 0:
        raise ValidationError(f"trial: must be a non-negative integer, got {trial!r}")
    if forced_outcomes is not None and len(forced_outcomes) != config.n:
        raise ValueError(f"forced_outcomes must list {config.n} (a, b) pairs")
    if forced_noise is not None and len(forced_noise) != config.n:
        raise ValueError(f"forced_noise must list {config.n} exponents")

    rng = _trial_stream(config.seed, config.n, trial)
    local = config.mode is CorrectionMode.LOCAL_EACH_HOP
    history = [HistoryEntry(psi0, 0)]
    results: list[int] = []
    noise_applied: list[int] = []
    state = psi0
    for i in range(config.n):
        # the chain applies its correction after the channel noise, so the hop must not
        outcome = teleport_hop(
            state,
            CorrectionMode.DEFERRED_FINAL,
            rng=rng,
            forced=None if forced_outcomes is None else tuple(forced_outcomes[i]),
        )
        state, k = apply_phase_noise(
            outcome.bob_pre,
            config.noise,
            rng=rng,
            forced=None if forced_noise is None else forced_noise[i],
        )
        history.append(HistoryEntry(state, outcome.a))
        results.append(outcome.a)
        noise_applied.append(k)
        if local:
            state = apply_correction(state, outcome.a)

    exponent: int | None = None
    if not local:
        exponent = deferred_exponent(results, config.d)
        state = apply_correction(state, exponent)
    return ChainResult(
        final=state,
        results=tuple(results),
        history=tuple(history),
        fidelity_vs_initial=fidelity(psi0, state),
        deferred_exponent=exponent,
        noise_exponents=tuple(noise_applied),
    )


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Closed-form outcomes of one seeded run; row i is trial i.

    Each row holds what run_chain reports for that trial: `results` and
    `noise_exponents` are (trials, n) integer arrays, `fidelities` has one
    entry per trial, and `deferred_exponents` is None in local mode.
    """

    results: np.ndarray
    noise_exponents: np.ndarray
    fidelities: np.ndarray
    deferred_exponents: np.ndarray | None


def fidelity_table(psi0: PureState) -> np.ndarray:
    """F[K] = fidelity(psi0, Z^K psi0) for K = 0..d-1."""
    d = psi0.d
    return np.array(
        [fidelity(psi0, gates.apply_1q(psi0, gates.pauli_z_power(d, k), 0)) for k in range(d)]
    )


def run_trajectories(config: ChainConfig, psi0: PureState, trials: int) -> TrajectoryBatch:
    """Run `trials` chains in closed form; trial i is block i of the seed's stream.

    One random((trials, n, 3)) call draws every trial's doubles, one per
    hop for the carrier, ancilla and noise draws in run_chain's order.
    The carrier and noise doubles become dits by the package's draw rule
    (`core._draw_dit`); the ancilla double is discarded, since the
    ancilla outcome never changes the received state. The fidelity is
    F[K] from fidelity_table with K = (sum of noise exponents) mod d.
    """
    _check_chain_input(config.d, psi0)
    check_positive_int("trials", trials)
    d, n = config.d, config.n
    draws = _trial_stream(config.seed, n).random((trials, n, 3))
    results = _draw_dit(np.full(d, 1.0 / d), draws[..., 0])
    noise = _draw_dit(config.noise.probs, draws[..., 2])
    local = config.mode is CorrectionMode.LOCAL_EACH_HOP
    return TrajectoryBatch(
        results=results,
        noise_exponents=noise,
        fidelities=fidelity_table(psi0)[noise.sum(axis=1) % d],
        deferred_exponents=None if local else results.sum(axis=1) % d,
    )


def expected_fidelity(config: ChainConfig, psi0: PureState) -> float:
    """Exact mean of run_chain's fidelity over the noise channel.

    K is the sum of n independent exponents drawn from noise.probs, so
    P(K) is their n-fold cyclic convolution (the inverse DFT of the
    probabilities' DFT to the n-th power) and E[F] = sum_K P(K) F[K].
    """
    _check_chain_input(config.d, psi0)
    p_k = np.fft.ifft(np.fft.fft(config.noise.probs) ** config.n).real
    return float(p_k @ fidelity_table(psi0))


def _enumeration_exponent(config: ChainConfig) -> int:
    """The channel's fixed exponent, once the chain is fit for enumeration.

    Stochastic noise has no exact per-path probability and belongs in
    Monte Carlo runs; more than DEFAULT_PATH_BUDGET paths raise
    ResourceLimitError.
    """
    forced_k = config.noise.deterministic_exponent()
    if forced_k is None:
        raise ValidationError(
            "noise.probs: enumeration requires a deterministic channel; "
            "use Monte Carlo runs for stochastic noise"
        )
    # d >= 2, so a long chain is over budget before d^n is ever built
    if config.n >= DEFAULT_PATH_BUDGET.bit_length() or config.d**config.n > DEFAULT_PATH_BUDGET:
        raise ResourceLimitError(
            f"{config.d}^{config.n} paths exceed the budget of {DEFAULT_PATH_BUDGET}; "
            "use Monte Carlo runs instead"
        )
    return forced_k


def enumerate_branches(config: ChainConfig, psi0: PureState) -> list[BranchOutcome]:
    """Exhaustively walk every carrier-outcome path of a chain through run_chain.

    Only the carrier outcome matters per hop (the ancilla outcome provably
    never changes the received state), so d^n paths cover the run exactly,
    each with probability d^-n. More than DEFAULT_PATH_BUDGET paths raise
    ResourceLimitError. Requires a deterministic noise channel;
    stochastic noise has no exact per-path probability and belongs in
    Monte Carlo runs. This is the state-vector oracle for `qrelay
    enumerate`, which lists the same paths in closed form: with the
    channel's fixed exponent k, every path delivers Z^K psi0, K = n*k mod d.
    """
    forced_k = _enumeration_exponent(config)
    probability = 1.0 / config.d**config.n
    branches = []
    for path in itertools.product(range(config.d), repeat=config.n):
        result = run_chain(
            config,
            psi0,
            forced_outcomes=[(a, 0) for a in path],
            forced_noise=(forced_k,) * config.n,
        )
        branches.append(
            BranchOutcome(
                path=path,
                probability=probability,
                final=result.final,
                fidelity=result.fidelity_vs_initial,
            )
        )
    return branches


def full_register_chain(
    d: int,
    n: int,
    psi0: PureState,
    forced_path: Sequence[tuple[int, int]],
    mode: CorrectionMode = CorrectionMode.LOCAL_EACH_HOP,
) -> FullRegisterResult:
    """Run the whole chain on one joint 3n-qudit register.

    Brute-force cross-check of the factorized per-hop simulation: every
    repeater block (carrier, ancilla, receiver) lives in the same state
    vector, the received qudit is handed to the next block's carrier with
    a CNOT / CNOT-dagger pair, and measurements are forced along the given
    path. boundary_entropies[i] is block i's entanglement with the rest of
    the register right after its handoff; the protocol keeps it at zero.
    """
    check_dim(d)
    check_positive_int("n", n)
    CorrectionMode.check(mode)
    _check_chain_input(d, psi0)
    if len(forced_path) != n:
        raise ValueError(f"forced_path must list {n} (a, b) pairs")
    if d ** (3 * n) > FULL_REGISTER_AMPLITUDE_LIMIT:
        raise ResourceLimitError(
            f"{d}^{3 * n} amplitudes exceed the joint-register limit of "
            f"{FULL_REGISTER_AMPLITUDE_LIMIT}"
        )

    local = mode is CorrectionMode.LOCAL_EACH_HOP
    state = tensor_product(psi0, basis_state(d, 3 * n - 1, (0,) * (3 * n - 1)))
    cnot = gates.cnot(d)
    cnot_dag = gates.cnot_dagger(d)
    fourier_inv = gates.hadamard_inverse(d)
    fourier = gates.hadamard(d)
    boundary: list[float] = []
    results: list[int] = []
    for i in range(n):
        carrier, ancilla, receiver = 3 * i, 3 * i + 1, 3 * i + 2
        if i > 0:
            # hand the previous receiver's state to this block's fresh carrier
            state = gates.apply_2q(state, cnot, carrier - 1, carrier)
            state = gates.apply_2q(state, cnot_dag, carrier, carrier - 1)
            boundary.append(entanglement_entropy(state, (carrier - 3, carrier - 2, carrier - 1)))
        state = gates.apply_2q(state, cnot, carrier, receiver)
        state = gates.apply_1q(state, fourier_inv, carrier)
        state = gates.apply_1q(state, fourier, ancilla)
        a, b = forced_path[i]
        _, _, state = measure_standard(state, carrier, forced=a)
        _, _, state = measure_standard(state, ancilla, forced=b)
        results.append(int(a))
        if local:
            state = gates.apply_1q(state, gates.pauli_z_power(d, int(a)), receiver)

    # every qudit except the last receiver is collapsed; slice it out exactly and
    # validate, since the slice is the receiver's state only if the register is a product
    slicer: list[int] = []
    for i in range(n):
        a, b = forced_path[i]
        slicer.extend((int(a), int(b)))
        if i < n - 1:
            slicer.append(0)
    final = PureState(d, 1, state.tensor()[tuple(slicer)])
    if not local:
        final = apply_correction(final, deferred_exponent(results, d))
    return FullRegisterResult(final=final, boundary_entropies=tuple(boundary))
