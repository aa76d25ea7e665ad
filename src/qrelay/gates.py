"""Generalized phase-flip, shift, Fourier and CNOT gates for qudits.

Constructors return small dense unitaries (d or d^2 per side). Application
to a register works by index arithmetic on the reshaped amplitude tensor;
the full d^n x d^n operator is never materialized, so 3n-qudit registers
stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import PureState, check_dim, root_of_unity

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Dense matrix acting on one or two qudits of dimension d."""

    d: int
    arity: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        check_dim(self.d)
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity}")
        mat = np.array(self.mat, dtype=np.complex128)
        side = self.d**self.arity
        if mat.shape != (side, side):
            raise ValueError(f"gate matrix must be {side}x{side}, got shape {mat.shape}")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)


@lru_cache(maxsize=None)
def identity(d: int) -> GateMatrix:
    return GateMatrix(d, 1, np.eye(d, dtype=np.complex128))


def pauli_z(d: int) -> GateMatrix:
    """Phase gate Z|j> = w^j |j> with w = exp(2*pi*i/d)."""
    return pauli_z_power(d, 1)


@lru_cache(maxsize=None)
def pauli_x(d: int) -> GateMatrix:
    """Cyclic shift X|j> = |(j+1) mod d>, the d-level NOT."""
    check_dim(d)
    mat = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        mat[(j + 1) % d, j] = 1.0
    return GateMatrix(d, 1, mat)


@lru_cache(maxsize=None)
def pauli_z_power(d: int, r: int) -> GateMatrix:
    """Z^r as a fresh diagonal of exact residue phases w^((r*j) mod d).

    Avoids the phase drift of repeated multiplication; agreement with
    gate_power(pauli_z(d), r) is asserted by tests.
    """
    check_dim(d)
    if r < 0:
        raise ValueError(f"exponent must be >= 0, got {r}")
    return GateMatrix(d, 1, np.diag([root_of_unity(d, (r * j) % d) for j in range(d)]))


def gate_power(g: GateMatrix, r: int) -> GateMatrix:
    """r-fold application of g as a matrix power; r = 0 gives the identity."""
    if r < 0:
        raise ValueError(f"exponent must be >= 0, got {r}")
    return GateMatrix(g.d, g.arity, np.linalg.matrix_power(g.mat, r))


@lru_cache(maxsize=None)
def hadamard(d: int) -> GateMatrix:
    """Fourier gate H[k][j] = w^(j*k) / sqrt(d).

    The 1/sqrt(d) factor is required for unitarity and for the uniform
    measurement statistics of the hop circuit.
    """
    check_dim(d)
    mat = np.empty((d, d), dtype=np.complex128)
    for k in range(d):
        for j in range(d):
            mat[k, j] = root_of_unity(d, (j * k) % d)
    return GateMatrix(d, 1, mat / math.sqrt(d))


@lru_cache(maxsize=None)
def hadamard_inverse(d: int) -> GateMatrix:
    """Conjugate transpose of hadamard(d), the inverse Fourier gate."""
    return GateMatrix(d, 1, hadamard(d).mat.conj().T)


@lru_cache(maxsize=None)
def cnot(d: int) -> GateMatrix:
    """Two-qudit gate |a,b> -> |a,(a+b) mod d>.

    Built as the block-diagonal direct sum I + X^1 + X^2 + ... + X^(d-1),
    one shift power per control value.
    """
    check_dim(d)
    mat = np.zeros((d * d, d * d), dtype=np.complex128)
    x = pauli_x(d).mat
    block = np.eye(d, dtype=np.complex128)
    for a in range(d):
        mat[a * d : (a + 1) * d, a * d : (a + 1) * d] = block
        block = x @ block
    return GateMatrix(d, 2, mat)


@lru_cache(maxsize=None)
def cnot_dagger(d: int) -> GateMatrix:
    """Hermitian conjugate of cnot(d); acts as |a,b> -> |a,(b-a) mod d>."""
    return GateMatrix(d, 2, cnot(d).mat.conj().T)


def is_unitary(g: GateMatrix) -> bool:
    """True iff max |G G^dagger - I| <= UNITARITY_TOL."""
    side = g.mat.shape[0]
    delta = g.mat @ g.mat.conj().T - np.eye(side)
    return float(np.max(np.abs(delta))) <= UNITARITY_TOL


def apply_1q(state: PureState, g: GateMatrix, target: int) -> PureState:
    """Apply a one-qudit gate to the target position, identity elsewhere."""
    if g.arity != 1:
        raise ValueError(f"apply_1q requires a one-qudit gate, got arity {g.arity}")
    if g.d != state.d:
        raise ValueError(f"gate dimension {g.d} does not match state dimension {state.d}")
    if not 0 <= target < state.num_qudits:
        raise ValueError(f"target {target} out of range [0, {state.num_qudits})")
    d = state.d
    pre = d**target
    post = d ** (state.num_qudits - target - 1)
    block = state.amps.reshape(pre, d, post)
    out = np.einsum("st,atb->asb", g.mat, block)
    return PureState._trusted(d, state.num_qudits, out.reshape(-1))


def apply_2q(state: PureState, g: GateMatrix, control: int, target: int) -> PureState:
    """Apply a two-qudit gate with its first slot on control, second on target.

    Positions may be arbitrary and non-adjacent; control != target.
    """
    if g.arity != 2:
        raise ValueError(f"apply_2q requires a two-qudit gate, got arity {g.arity}")
    if g.d != state.d:
        raise ValueError(f"gate dimension {g.d} does not match state dimension {state.d}")
    n = state.num_qudits
    if control == target:
        raise ValueError("control and target must differ")
    for name, q in (("control", control), ("target", target)):
        if not 0 <= q < n:
            raise ValueError(f"{name} {q} out of range [0, {n})")
    d = state.d
    tensor = np.moveaxis(state.tensor(), (control, target), (0, 1))
    g4 = g.mat.reshape(d, d, d, d)
    out = np.tensordot(g4, tensor, axes=([2, 3], [0, 1]))
    out = np.moveaxis(out, (0, 1), (control, target))
    return PureState._trusted(d, n, out.reshape(-1))
