"""Single-dit teleportation hop with phase-only correction.

One hop moves an unknown qudit |psi> through a three-qudit register
(carrier, sender ancilla A, receiver B). `hop_circuit(psi)` builds that
register as |psi, 0, 0> and runs the entangling circuit; then both the
carrier and A are measured in the standard basis. The carrier outcome `a`
is the single classical dit a hop emits, and Z^a on B restores |psi>
exactly. The ancilla outcome `b` is recorded but never used, which the
closed-form expansion below makes provable rather than assumed. Its phases
come from `core._roots`, `entanglement_entropy` applies `core._entropy`, and
`CorrectionMode` is `core`'s, re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import gates
from .core import (
    CorrectionMode,
    ImpossibleOutcomeError,  # noqa: F401 - re-exported: the error measure_standard raises
    PureState,
    _check_forced,
    _check_int,
    _check_possible,
    _check_state,
    _check_type,
    _entropy,
    _forced_or_drawn,
    _roots,
    basis_state,
    phase_exponent,
    reduced_density,
    tensor_product,
)


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


def prepare_hop(psi: PureState) -> PureState:
    """Assemble the three-qudit hop register |psi, 0, 0>."""
    _check_state("psi", psi, num_qudits=1)
    return tensor_product(psi, basis_state(psi.d, (0, 0)))


def hop_circuit(psi: PureState) -> PureState:
    """Build the hop register |psi, 0, 0> (`prepare_hop`) from the one-qudit
    input and run the entangling circuit, returning the pre-measurement state.

    Sequence: CNOT with control 0 and target 2, inverse Fourier on qudit 0,
    Fourier on qudit 1. This realizes amplitudes
    (1/d) * w^((d - a*j) mod d) * alpha_j on |a, b, j>, so the carrier
    outcome a alone determines the correction.
    """
    state = gates.apply_2q(prepare_hop(psi), gates.cnot(psi.d), 0, 2)
    state = gates.apply_1q(state, gates.hadamard_inverse(psi.d), 0)
    return gates.apply_1q(state, gates.hadamard(psi.d), 1)


def hop_expansion(psi: PureState) -> PureState:
    """Closed-form pre-measurement state, built without simulating gates.

    Independent oracle for hop_circuit: amplitude of |a, b, j> is
    (1/d) * w^((d - a*j) mod d) * alpha_j for every a, b, j.
    """
    d = _check_state("psi", psi, num_qudits=1).d
    roots = _roots(d)
    # numpy scalar products: an array product may use fused multiply-adds and round differently
    rows = [[roots[phase_exponent(a, j, d)] * psi.amps[j] / d for j in range(d)] for a in range(d)]
    return PureState(d, np.repeat(rows, d, axis=0).reshape(-1))  # carrier outcome a's row serves every b


def measure_standard(
    state: PureState,
    target: int,
    rng: np.random.Generator | None = None,
    forced: int | None = None,
) -> MeasurementResult:
    """Standard-basis measurement of one qudit with projective collapse.

    The outcome is Born-sampled from one `rng.random()` double through the
    package's dit rule (`core._forced_or_drawn`) unless `forced` pins it. Forcing
    an impossible outcome raises ImpossibleOutcomeError (`core._check_possible`).
    The collapsed state is renormalized: the other d-1 slices of the
    (pre, d, post) view are zero and the kept one is scaled.
    """
    d, n = _check_state("state", state).d, state.num_qudits
    target = _check_int("target", target, 0, n)
    shape = (d**target, d, state.amps.size // d ** (target + 1))
    # Born probabilities in one pass: |amp|^2 = re^2 + im^2 over a float view
    floats = state.amps.view(np.float64).reshape(shape[0], d, 2 * shape[2])
    probs = np.einsum("atb,atb->t", floats, floats)
    outcome = _forced_or_drawn(probs, rng, forced)
    if forced is not None:
        _check_possible("forced", outcome, target, probs[outcome])
    prob = float(probs[outcome])
    collapsed = np.zeros(shape, dtype=np.complex128)
    np.divide(state.amps.reshape(shape)[:, outcome, :], math.sqrt(prob), out=collapsed[:, outcome, :])
    return MeasurementResult(outcome, prob, PureState._trusted(d, n, collapsed.reshape(-1)))


def apply_correction(bob: PureState, r: int) -> PureState:
    """Apply the phase correction Z^r to the received qudit."""
    _check_state("bob", bob, num_qudits=1)
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
    _check_type("mode", mode, CorrectionMode)
    d = _check_state("psi", psi, num_qudits=1).d
    forced_a, forced_b = (None, None) if forced is None else _check_forced("forced", forced, (2,), d)
    pre = hop_circuit(psi)
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
    independent of d. Eigenvalues below `core.ENTROPY_EIGENVALUE_FLOOR` are
    treated as exact zeros (`core._entropy`).
    """
    return _entropy(np.linalg.eigvalsh(reduced_density(state, target)), state.d)
