"""Single-dit teleportation hop with phase-only correction.

One hop moves an unknown qudit |psi> through a three-qudit register
(carrier, sender ancilla A, receiver B). After the entangling circuit both
the carrier and A are measured in the standard basis; the carrier outcome
`a` is the single classical dit a hop emits, and Z^a on B restores |psi>
exactly. The ancilla outcome `b` is recorded but never used, which the
closed-form expansion below makes provable rather than assumed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gates
from .core import (
    PureState,
    ValidationError,
    _check_int,
    _draw_dit,
    basis_state,
    phase_exponent,
    reduced_density,
    root_of_unity,
    tensor_product,
)

# eigenvalues below this contribute nothing to entropy
ENTROPY_EIGENVALUE_FLOOR = 1e-14
# forcing an outcome whose Born probability is below this is a contradiction
FORCED_OUTCOME_MIN_PROB = 1e-15


class ImpossibleOutcomeError(ValueError):
    """A forced measurement outcome has (numerically) zero probability."""


class CorrectionMode(enum.Enum):
    """When the accumulated Z corrections are applied."""

    LOCAL_EACH_HOP = "local"
    DEFERRED_FINAL = "deferred"

    @classmethod
    def check(cls, mode: object) -> None:
        """Reject anything but a member (a bare "local" included), naming the field."""
        if not isinstance(mode, cls):
            raise ValidationError(f"mode: expected CorrectionMode, got {mode!r}")


class MeasurementResult(NamedTuple):
    outcome: int
    prob: float
    state: PureState


@dataclass(frozen=True, eq=False)
class HopOutcome:
    """Record of one teleportation hop.

    `a` is the carrier measurement result and the correction exponent;
    `b` the ancilla result (unused by the protocol); `prob` the joint Born
    probability of (a, b). `bob_post` equals `bob_pre` with Z^a applied in
    LOCAL_EACH_HOP mode and is bob_pre unchanged in DEFERRED_FINAL mode.
    """

    a: int
    b: int
    prob: float
    bob_pre: PureState
    bob_post: PureState


def _check_qudit(name: str, psi: PureState, d: int | None = None) -> None:
    """The one-qudit input rule: psi holds a single qudit (of dimension d, if given)."""
    if psi.num_qudits != 1 or (d is not None and psi.d != d):
        wanted = "" if d is None else f" of dimension {d}"
        raise ValidationError(
            f"{name}: must be a single qudit{wanted}, got {psi.num_qudits} qudit(s) of dimension {psi.d}"
        )


def _check_forced(name: str, values: object, shape: tuple[int, ...], d: int) -> int | tuple:
    """The forced-value rule: `values` nests to `shape`, every leaf a dit in
    [0, d), as ints. A forced pair has shape (2,), a forced path (n, 2) and
    forced noise (n,). Every level is a tuple, list or integer array, never
    a dict or set. Entries are checked in order before any state is built,
    and the error names the first bad one, as in forced_path[6][0].
    """
    if not shape:
        return _check_int(name, values, 0, d)
    entries = "dits" if len(shape) == 1 else "(a, b) pairs"
    int_array = isinstance(values, np.ndarray) and values.ndim > 0 and values.dtype.kind in "iu"
    if not (int_array or isinstance(values, (tuple, list))):
        raise ValidationError(f"{name}: must be a tuple, list or integer array of {entries}, got {values!r}")
    if len(values) != shape[0]:
        raise ValidationError(f"{name}: must list {shape[0]} {entries}, got {values!r}")
    return tuple(_check_forced(f"{name}[{i}]", value, shape[1:], d) for i, value in enumerate(values))


def prepare_hop(psi: PureState) -> PureState:
    """Assemble the three-qudit hop register |psi, 0, 0>."""
    _check_qudit("psi", psi)
    return tensor_product(psi, basis_state(psi.d, (0, 0)))


def _check_hop_register(register: PureState) -> None:
    if register.num_qudits != 3:
        raise ValueError(f"hop register must hold 3 qudits, got {register.num_qudits}")
    tensor = register.tensor()
    carried = float(np.sum(np.abs(tensor[:, 0, 0]) ** 2))
    if abs(carried - 1.0) > 1e-12:
        raise ValueError("hop register must be of the form |psi, 0, 0>")


def hop_circuit(register: PureState) -> PureState:
    """Run the entangling circuit, returning the pre-measurement state.

    Sequence: CNOT with control 0 and target 2, inverse Fourier on qudit 0,
    Fourier on qudit 1. This realizes amplitudes
    (1/d) * w^((d - a*j) mod d) * alpha_j on |a, b, j>, so the carrier
    outcome a alone determines the correction.
    """
    _check_hop_register(register)
    d = register.d
    state = gates.apply_2q(register, gates.cnot(d), 0, 2)
    state = gates.apply_1q(state, gates.hadamard_inverse(d), 0)
    return gates.apply_1q(state, gates.hadamard(d), 1)


def hop_expansion(psi: PureState) -> PureState:
    """Closed-form pre-measurement state, built without simulating gates.

    Independent oracle for hop_circuit: amplitude of |a, b, j> is
    (1/d) * w^((d - a*j) mod d) * alpha_j for every a, b, j.
    """
    _check_qudit("psi", psi)
    d = psi.d
    amps = np.zeros(d**3, dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            base = (a * d + b) * d
            for j in range(d):
                phase = root_of_unity(d, phase_exponent(a, j, d))
                amps[base + j] = phase * psi.amps[j] / d
    return PureState(d, amps)


def measure_standard(
    state: PureState,
    target: int,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> MeasurementResult:
    """Standard-basis measurement of one qudit with projective collapse.

    The outcome is Born-sampled from one `rng.random()` double through the
    package's draw rule (`core._draw_dit`) unless `forced` pins it. Forcing
    an outcome with probability below FORCED_OUTCOME_MIN_PROB raises
    ImpossibleOutcomeError. The collapsed state is renormalized: the other
    d-1 slices of the (pre, d, post) view are zero and the kept one is scaled.
    """
    d, n = state.d, state.num_qudits
    target = _check_int("target", target, 0, n)
    shape = (d**target, d, state.amps.size // d ** (target + 1))
    # Born probabilities in one pass: |amp|^2 = re^2 + im^2 over a float view
    floats = state.amps.view(np.float64).reshape(shape[0], d, 2 * shape[2])
    probs = np.einsum("atb,atb->t", floats, floats)
    if forced is not None:
        outcome = _check_int("forced", forced, 0, d)
        _check_possible(outcome, target, probs[outcome])
    else:
        if rng is None:
            raise ValueError("measurement needs either an rng or a forced outcome")
        outcome = int(_draw_dit(probs, rng.random()))
    prob = float(probs[outcome])
    collapsed = np.zeros(shape, dtype=np.complex128)
    np.divide(state.amps.reshape(shape)[:, outcome, :], math.sqrt(prob), out=collapsed[:, outcome, :])
    return MeasurementResult(outcome, prob, PureState._trusted(d, n, collapsed.reshape(-1)))


def _check_possible(outcome: int, target: int, prob: float) -> None:
    """Reject a forced outcome whose Born probability is below FORCED_OUTCOME_MIN_PROB."""
    if prob < FORCED_OUTCOME_MIN_PROB:
        raise ImpossibleOutcomeError(f"outcome {outcome} on qudit {target} has probability {prob:.3e}")


def apply_correction(bob: PureState, r: int) -> PureState:
    """Apply the phase correction Z^r to the received qudit."""
    _check_qudit("bob", bob)
    return gates.apply_1q(bob, gates.pauli_z_power(bob.d, _check_int("r", r, 0, bob.d)), 0)


def teleport_hop(
    psi: PureState,
    mode: CorrectionMode,
    rng: np.random.Generator | None = None,
    forced: tuple[int, int] | None = None,
) -> HopOutcome:
    """Teleport one qudit through a single hop.

    Measurements consume `rng` in a fixed order (carrier, then ancilla)
    unless `forced` supplies the pair (a, b), which is checked before the
    register is built.
    """
    CorrectionMode.check(mode)
    if forced is None and rng is None:
        raise ValueError("teleport_hop needs either an rng or forced outcomes")
    forced_a, forced_b = (None, None) if forced is None else _check_forced("forced", forced, (2,), psi.d)
    pre = hop_circuit(prepare_hop(psi))
    a, prob_a, state = measure_standard(pre, 0, rng=rng, forced=forced_a)
    b, prob_b, state = measure_standard(state, 1, rng=rng, forced=forced_b)
    # validated: the slice is the receiver's state only if the register is a product
    bob_pre = PureState(psi.d, state.tensor()[a, b, :])
    if mode is CorrectionMode.LOCAL_EACH_HOP:
        bob_post = apply_correction(bob_pre, a)
    else:
        bob_post = bob_pre
    return HopOutcome(a=a, b=b, prob=prob_a * prob_b, bob_pre=bob_pre, bob_post=bob_post)


def entanglement_entropy(state: PureState, target: int | tuple[int, ...]) -> float:
    """Von Neumann entropy of the kept qudit(s), in base-d units.

    Returns 0 for product states and 1.0 for a maximally entangled pair,
    independent of d. Eigenvalues below ENTROPY_EIGENVALUE_FLOOR are
    treated as exact zeros.
    """
    return _entropy(np.linalg.eigvalsh(reduced_density(state, target)), state.d)


def _entropy(eigenvalues: np.ndarray, d: int) -> float:
    """-sum p log_d p over the eigenvalues above ENTROPY_EIGENVALUE_FLOOR, at least +0.0.

    A largest eigenvalue that rounds just above 1 adds a term just below
    zero; a product state's entropy is then +0.0, never negative or -0.0.
    """
    total = 0.0
    for value in eigenvalues:
        if value > ENTROPY_EIGENVALUE_FLOOR:
            total -= float(value) * math.log(float(value))
    return total / math.log(d) if total > 0.0 else 0.0
