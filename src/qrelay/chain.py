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
returns each trial's K and takes no state; F[K] = fidelity_table(psi0)[K].
The two agree exactly on the dits except on at most d * 2^-50 of the
doubles a hop's carrier draw can take: the oracle's Born cdf equals k/d
only up to rounding, and the tests count the doubles between the two cdfs.

The same fact makes `qrelay enumerate` closed-form: under a fixed channel
exponent k every carrier path delivers Z^K psi0 with K = n*k mod d.
`enumerate_branches` walks the d^n paths through `run_chain` and stays in
the library as that command's oracle; both share the enumeration
preconditions (`_enumeration_exponent`). The CLI runs no state-vector
code: `run_chain` and `enumerate_branches` are library oracles only.
This module owns the bits of what the CLI reports about Z^K psi0:
`fidelity_table` gives F[K] by math.fsum and `_phase_pairs` gives the
amplitudes by Python's complex product, both from the w^k of `core._roots`,
so no reported byte comes from a BLAS call.

The module has two halves. The closed-form engine, which the CLI imports,
is `PROBABILITY_TOL`, `DEFAULT_PATH_BUDGET`, `NoiseSpec`, `_check_noise`,
`ChainConfig`, `TrajectoryBatch`, `_trial_stream`, `fidelity_table`,
`_phase_pairs`, `run_trajectories`, `_cyclic_convolution`,
`expected_fidelity` and `_enumeration_exponent`; every other definition
is the state-vector oracle. The oracle may use the engine (the configs
and `_trial_stream` are the shared draw contract), never the reverse: no
engine definition uses a name taken from `gates` or `teleport`, or any
oracle definition, and `tests/test_layers.py` checks it.

`full_register_chain` runs the whole chain on one joint 3n-qudit register
as a cross-check of the factorized hops. It holds one digit per constant
qudit and a dense block over the live ones (at most three at a time), and
its gate, measurement and entropy routines share no code with the dense
gate kernel; its block entropy applies the one rule, `core._entropy`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import gates
from .core import (
    CorrectionMode,
    PureState,
    ResourceLimitError,
    ValidationError,
    _check_forced,
    _check_int,
    _check_possible,
    _check_state,
    _check_type,
    _draw_dit,
    _entropy,
    _forced_or_drawn,
    _roots,
    check_dim,
    fidelity,
)
from .teleport import apply_correction, teleport_hop

PROBABILITY_TOL = 1e-12
DEFAULT_PATH_BUDGET = 4096


@dataclass(frozen=True)
class NoiseSpec:
    """Phase-noise channel: apply Z^k with probability probs[k] between hops."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        try:
            values = tuple(self.probs)
            probs = tuple(float(p) for p in values)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"noise.probs: expected reals, got {self.probs!r}") from None
        if any(isinstance(p, (bool, np.bool_)) for p in values):
            raise ValidationError(f"noise.probs: booleans are not probabilities, got {values!r}")
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


def _check_noise(noise: object, d: int) -> NoiseSpec:
    """The noise rule: a NoiseSpec with one probability per dit value of d. Returns it."""
    if len(_check_type("noise", noise, NoiseSpec).probs) != d:
        raise ValidationError(f"noise.probs: expected {d} probabilities, got {len(noise.probs)}")
    return noise


@dataclass(frozen=True)
class ChainConfig:
    """Static parameters of one transmission chain."""

    d: int
    n: int
    mode: CorrectionMode
    noise: NoiseSpec
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", check_dim(self.d))
        object.__setattr__(self, "n", _check_int("n", self.n, 1))
        _check_type("mode", self.mode, CorrectionMode)
        _check_noise(self.noise, self.d)
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0, 2**64))


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
    d = check_dim(d)
    return sum(_check_int(f"results[{i}]", r, 0, d) for i, r in enumerate(results)) % d


def apply_phase_noise(
    state: PureState,
    noise: NoiseSpec,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> tuple[PureState, int]:
    """Sample one Z^k error and apply it; returns (state, k).

    Trajectory semantics: one exponent is drawn per call, the state stays
    pure. `forced` pins the exponent for exhaustive or replay runs. The
    state is the one in-flight qudit; a register is refused.
    """
    d = _check_state("state", state, num_qudits=1).d
    k = _forced_or_drawn(_check_noise(noise, d).probs, rng, forced)
    if k == 0:
        return state, 0
    return gates.apply_1q(state, gates.pauli_z_power(d, k), 0), k


def _trial_stream(seed: int, n: int, trial: int = 0) -> np.random.Generator:
    """default_rng(seed) from trial `trial`'s start; trial i owns doubles [3n*i, 3n*(i+1))."""
    bits = np.random.PCG64(seed)
    bits.advance(3 * n * trial)
    return np.random.Generator(bits)


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
    _check_state("psi0", psi0, _check_type("config", config, ChainConfig).d, 1)
    trial = _check_int("trial", trial, 0)
    if forced_outcomes is not None:
        forced_outcomes = _check_forced("forced_outcomes", forced_outcomes, (config.n, 2), config.d)
    if forced_noise is not None:
        forced_noise = _check_forced("forced_noise", forced_noise, (config.n,), config.d)

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
            forced=None if forced_outcomes is None else forced_outcomes[i],
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

    Each row holds run_chain's integers for that trial: `results` and
    `noise_exponents` are (trials, n), `phase_exponents` is K (the trial
    delivers Z^K psi0), and `deferred_exponents` is None in local mode.
    """

    results: np.ndarray
    noise_exponents: np.ndarray
    phase_exponents: np.ndarray
    deferred_exponents: np.ndarray | None


def fidelity_table(psi0: PureState) -> np.ndarray:
    """F[K] = fidelity(psi0, Z^K psi0) = |sum_j |alpha_j|^2 w^(jK)|^2 for K = 0..d-1,
    clipped at 1.0 as `core.fidelity` is: the real and imaginary parts are each
    summed by math.fsum, so no state is built and no BLAS call is made."""
    d = _check_state("psi0", psi0, num_qudits=1).d
    weights = (np.square(psi0.amps.real) + np.square(psi0.amps.imag)).tolist()
    roots = _roots(d)
    table = []
    for k in range(d):
        phases = [roots[j * k % d] for j in range(d)]
        re = math.fsum(w * z.real for w, z in zip(weights, phases))
        im = math.fsum(w * z.imag for w, z in zip(weights, phases))
        table.append(min(re * re + im * im, 1.0))
    return np.array(table)


def _phase_pairs(psi0: PureState, k: int) -> list[list[float]]:
    """Z^k psi0 as [re, im] pairs of Python floats, the amplitudes `qrelay run
    --history` and `qrelay enumerate` report. Amplitude j times w = w^(jk) is
    rounded part by part, as xr*wr - xi*wi and xi*wr + xr*wi with no fused
    multiply-add, and then added to 0.0 so that a zero part is +0. These are
    the bits of Python's complex product, the same on every host and BLAS
    kernel, and the tests pin them."""
    roots = _roots(psi0.d)
    amps = zip(psi0.amps.real.tolist(), psi0.amps.imag.tolist())
    pairs = []
    for j, (xr, xi) in enumerate(amps):
        w = roots[j * k % psi0.d]
        pairs.append([xr * w.real - xi * w.imag + 0.0, xi * w.real + xr * w.imag + 0.0])
    return pairs


def run_trajectories(config: ChainConfig, trials: int) -> TrajectoryBatch:
    """Run `trials` chains in closed form; trial i is block i of the seed's stream.

    One random((trials, n, 3)) call draws every trial's doubles, one per
    hop for the carrier, ancilla and noise draws in run_chain's order.
    The carrier and noise doubles become dits by the package's draw rule
    (`core._draw_dit`); the ancilla double is discarded, since the
    ancilla outcome never changes the received state. Each trial's K is
    (sum of noise exponents) mod d; no state is involved.
    """
    d, n = _check_type("config", config, ChainConfig).d, config.n
    trials = _check_int("trials", trials, 1)
    try:
        draws = _trial_stream(config.seed, n).random((trials, n, 3))
    except (MemoryError, ValueError):  # numpy raises ValueError for a size past the address range
        raise ResourceLimitError(
            f"trials: {trials} trials of {n} hops need {trials * n * 3 * 8} bytes of draws, "
            "more than can be allocated"
        ) from None
    results = _draw_dit(np.full(d, 1.0 / d), draws[..., 0])
    noise = _draw_dit(config.noise.probs, draws[..., 2])
    local = config.mode is CorrectionMode.LOCAL_EACH_HOP
    return TrajectoryBatch(
        results=results,
        noise_exponents=noise,
        phase_exponents=noise.sum(axis=1) % d,
        deferred_exponents=None if local else results.sum(axis=1) % d,
    )


def _cyclic_convolution(x: Sequence[float], y: Sequence[float]) -> list[float]:
    """(x * y)[k] = sum_i x[i] y[(k - i) mod d], each entry summed by math.fsum;
    y[k - i] wraps a negative index to (k - i) mod d."""
    return [math.fsum(x[i] * y[k - i] for i in range(len(x))) for k in range(len(x))]


def expected_fidelity(config: ChainConfig, psi0: PureState) -> float:
    """Mean of run_chain's fidelity over the noise channel, in [0, 1].

    K is the sum of n independent exponents drawn from noise.probs, so
    P(K) is their n-fold cyclic convolution, taken by square-and-multiply
    over the bits of n. Every term is a product of non-negative
    probabilities, so no P(K) rounds below zero, and a fixed channel Z^k
    gives exactly F[n*k mod d]. E[F] = sum_K P(K) F[K] / sum_K P(K), each
    sum by math.fsum, and clipped at 1.0, as `core.fidelity` is: dividing by
    the law's mass makes it the mean over the normalized channel the sampler
    (`core._draw_dit`) draws from, whose probabilities may sum to 1 only
    within PROBABILITY_TOL.
    """
    _check_state("psi0", psi0, _check_type("config", config, ChainConfig).d, 1)
    p_k = [1.0] + [0.0] * (config.d - 1)  # K = 0 before the first hop
    for bit in f"{config.n:b}":
        p_k = _cyclic_convolution(p_k, p_k)
        if bit == "1":
            p_k = _cyclic_convolution(p_k, config.noise.probs)
    mean = math.fsum(p * f for p, f in zip(p_k, fidelity_table(psi0).tolist())) / math.fsum(p_k)
    return min(mean, 1.0)


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
            f"n: {config.d}^{config.n} paths exceed the budget of {DEFAULT_PATH_BUDGET}; "
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
    forced_k = _enumeration_exponent(_check_type("config", config, ChainConfig))
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


@dataclass(eq=False, slots=True)
class _JointRegister:
    """The joint register as one digit per constant qudit plus a dense block.

    digits[q] is qudit q's basis digit while q is constant and None while
    it is live. `amps` holds the live qudits' amplitudes, one axis of length
    d per live qudit in the order `axes` lists them; with no live qudit it is
    a 0-d array, the register's one amplitude. The register is `amps` times
    the basis state of the constant digits, so d^(3n) never appears.
    """

    d: int
    digits: list[int | None]
    axes: list[int]
    amps: np.ndarray


def _register_gate(g: gates.GateMatrix, reg: _JointRegister, positions: tuple[int, ...]) -> None:
    """g on `positions` (slot order) of the joint register, identity elsewhere.

    Each constant operand joins the block as a one-hot axis, the operand
    axes go to the front, and g is one matmul over (d^arity, rest); the
    axes are relabelled, not moved back. Then every operand axis with
    exactly one nonzero slice (exact zeros, no tolerance) becomes a
    constant digit again, so a gate that maps the operands' basis state to
    a basis state (CNOT, Z^a) leaves them constant, and F on a fresh
    ancilla leaves it live. `reg` is updated in place.
    """
    d, arity, digits = g.d, g.arity, reg.digits
    amps, axes = reg.amps, reg.axes.copy()
    for q in positions:
        if digits[q] is not None:
            joined = np.zeros(amps.shape + (d,), dtype=np.complex128)
            joined[..., digits[q]] = amps
            amps = joined
            axes.append(q)
    order = [*positions, *(q for q in axes if q not in positions)]
    moved = amps.transpose([axes.index(q) for q in order])
    out = (g.mat @ moved.reshape(d**arity, -1)).reshape(moved.shape)
    axes = order
    # the operand axes lead, so operand axis `front` is the middle axis of a (d^front, d, rest) view
    nonzero = out != 0
    front = 0
    for q in positions:
        hits = nonzero.reshape(d**front, d, -1).any(axis=(0, 2)).nonzero()[0]
        if hits.size == 1:
            digits[q] = int(hits[0])
            axes.remove(q)
            index = (slice(None),) * front + (digits[q],)
            out, nonzero = out[index], nonzero[index]
        else:
            digits[q] = None
            front += 1
    reg.axes, reg.amps = axes, out


def _register_measure(reg: _JointRegister, target: int, outcome: int) -> None:
    """Force `outcome` on qudit `target` of the joint register and renormalize.

    A live target's slice at `outcome` is kept. A constant target keeps the
    whole block if its digit is `outcome`, and otherwise has probability 0.
    Either way `target` is then the constant digit `outcome`.
    """
    digit = reg.digits[target]
    if digit is None:
        kept = reg.amps[(slice(None),) * reg.axes.index(target) + (outcome,)]
        prob = float(np.vdot(kept, kept).real)
    else:
        kept = reg.amps
        prob = float(np.vdot(kept, kept).real) if digit == outcome else 0.0
    _check_possible("forced_path", outcome, target, prob)
    if digit is None:
        reg.axes.remove(target)
    reg.digits[target] = outcome
    reg.amps = kept / math.sqrt(prob)


def _register_block_entropy(reg: _JointRegister, first: int) -> float:
    """Entropy of qudits first..first+2 of the joint register, in base-d units.

    A block with no live qudit is a basis state times the rest, so its
    entropy is exactly +0.0 and no SVD is taken. Otherwise it comes from the
    singular values of the block's live axes against the other live axes.
    """
    block = [k for k, q in enumerate(reg.axes) if first <= q < first + 3]
    if not block:
        return 0.0
    rest = [k for k in range(len(reg.axes)) if k not in block]
    schmidt = reg.amps.transpose(block + rest).reshape(reg.d ** len(block), -1)
    return _entropy(np.linalg.svd(schmidt, compute_uv=False) ** 2, reg.d)


def full_register_chain(
    d: int,
    n: int,
    psi0: PureState,
    forced_path: Sequence[tuple[int, int]],
    mode: CorrectionMode = CorrectionMode.LOCAL_EACH_HOP,
) -> FullRegisterResult:
    """Run the whole chain on one joint 3n-qudit register.

    Brute-force cross-check of the factorized per-hop simulation: every
    repeater block (carrier, ancilla, receiver) lives in the same register,
    the received qudit is handed to the next block's carrier with a CNOT /
    CNOT-dagger pair, and measurements are forced along the given path,
    which is checked in full before any register work.
    boundary_entropies[i] is block i's entanglement with the rest of the
    register right after its handoff; the protocol keeps it at zero.

    The register (`_JointRegister`) holds one digit per constant qudit and
    a dense block over the live ones. Every hop ends with two standard-basis
    measurements and a Z-only correction, so all qudits but at most three
    are constant and the block never exceeds d^3 amplitudes; no size cap is
    needed. Gates (the deferred Z^f too), measurements and entropies go
    through `_register_gate`, `_register_measure` and
    `_register_block_entropy`, independently of the dense gate kernel. In a
    correct run every handed-off block is constant, so each boundary entropy
    is exactly +0.0 with no SVD. Only the final receiver slice leaves, as a
    validated PureState.
    """
    d, n = check_dim(d), _check_int("n", n, 1)
    _check_type("mode", mode, CorrectionMode)
    _check_state("psi0", psi0, d, 1)
    path = _check_forced("forced_path", forced_path, (n, 2), d)
    width = 3 * n

    local = mode is CorrectionMode.LOCAL_EACH_HOP
    # psi0 (x) |0...0>: qudit 0 is live and holds psi0, every other qudit is the digit 0
    reg = _JointRegister(d, [None] + [0] * (width - 1), [0], psi0.amps)
    cnot = gates.cnot(d)
    cnot_dag = gates.cnot_dagger(d)
    fourier_inv = gates.hadamard_inverse(d)
    fourier = gates.hadamard(d)
    boundary: list[float] = []
    for i, (a, b) in enumerate(path):
        carrier, ancilla, receiver = 3 * i, 3 * i + 1, 3 * i + 2
        if i > 0:
            # hand the previous receiver's state to this block's fresh carrier
            for g, positions in ((cnot, (carrier - 1, carrier)), (cnot_dag, (carrier, carrier - 1))):
                _register_gate(g, reg, positions)
            boundary.append(_register_block_entropy(reg, carrier - 3))
        for g, positions in ((cnot, (carrier, receiver)), (fourier_inv, (carrier,)), (fourier, (ancilla,))):
            _register_gate(g, reg, positions)
        _register_measure(reg, carrier, a)
        _register_measure(reg, ancilla, b)
        if local:
            _register_gate(gates.pauli_z_power(d, a), reg, (receiver,))
    if not local:  # the deferred Z^f acts on the last receiver before it is sliced out
        _register_gate(gates.pauli_z_power(d, deferred_exponent([a for a, _ in path], d)), reg, (width - 1,))

    # slice every qudit but the last receiver along the path digits, and validate, since
    # the slice is the receiver's state only if the register is a product
    slicer = [dit for a, b in path for dit in (a, b, 0)]
    amps = np.zeros(d, dtype=np.complex128)
    if all(digit in (None, dit) for digit, dit in zip(reg.digits[:-1], slicer)):
        index = tuple(slice(None) if q == width - 1 else slicer[q] for q in reg.axes)
        last = reg.digits[-1]
        amps[slice(None) if last is None else last] = reg.amps[index]
    return FullRegisterResult(final=PureState(d, amps), boundary_entropies=tuple(boundary))
