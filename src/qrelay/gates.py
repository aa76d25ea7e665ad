"""Generalized phase-flip, shift, Fourier and CNOT gates for qudits.

Constructors return small dense unitaries; `GateMatrix(d, mat)` takes its
arity from the side of mat (d or d^2) and refuses a matrix that is not
unitary within UNITARITY_TOL.
One kernel, `_apply`, serves `apply_1q` and `apply_2q` with one path for
every gate: the gate's axes move to the front, one matmul runs over
(d^arity, rest), and the axes move back. The full d^n x d^n operator is
never materialized. Only the state-vector code (`teleport`, `run_chain`,
`enumerate_branches`: the library's oracles, compared within 1e-12) runs
this kernel, so no reported byte depends on its BLAS rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import PureState, _check_int, check_dim, root_of_unity

UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Dense unitary acting on one or two qudits of dimension d.

    The side of mat gives the arity: d is one qudit, d^2 two. Any other shape
    raises ValueError, as does a max |G G^dagger - I| above UNITARITY_TOL or
    NaN, so applying a gate needs no check.
    """

    d: int
    arity: int = field(init=False)
    mat: np.ndarray

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.shape not in ((d, d), (d * d, d * d)):
            raise ValueError(f"gate matrix must be {d}x{d} or {d * d}x{d * d}, got shape {mat.shape}")
        arity, side = (1, d) if mat.shape[0] == d else (2, d * d)
        with np.errstate(all="ignore"):  # an inf or NaN entry gives a NaN or inf deviation
            deviation = float(np.max(np.abs(mat @ mat.conj().T - np.eye(side))))
        if not deviation <= UNITARITY_TOL:  # a NaN deviation fails too
            raise ValueError(
                f"gate must be unitary: this d={d} arity-{arity} gate has "
                f"max |G G^dagger - I| = {deviation:.3e} > {UNITARITY_TOL}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "mat", mat)


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
    return GateMatrix(d, mat)


def pauli_z_power(d: int, r: int) -> GateMatrix:
    """Z^r as a fresh diagonal of exact residue phases w^((r*j) mod d).

    Avoids the phase drift of repeated multiplication; agreement with
    gate_power(pauli_z(d), r) is asserted by tests. d and r are checked on
    every call, before the cache, which is keyed on r mod d (the same phases).
    """
    d = check_dim(d)
    return _z_power(d, _check_int("r", r, 0) % d)


@lru_cache(maxsize=None)
def _z_power(d: int, r: int) -> GateMatrix:
    return GateMatrix(d, np.diag([root_of_unity(d, (r * j) % d) for j in range(d)]))


def gate_power(g: GateMatrix, r: int) -> GateMatrix:
    """r-fold application of g as a matrix power; r = 0 gives the identity."""
    return GateMatrix(g.d, np.linalg.matrix_power(g.mat, _check_int("r", r, 0)))


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
    return GateMatrix(d, mat / math.sqrt(d))


@lru_cache(maxsize=None)
def hadamard_inverse(d: int) -> GateMatrix:
    """Conjugate transpose of hadamard(d), the inverse Fourier gate."""
    return GateMatrix(d, hadamard(d).mat.conj().T)


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
    return GateMatrix(d, mat)


@lru_cache(maxsize=None)
def cnot_dagger(d: int) -> GateMatrix:
    """Hermitian conjugate of cnot(d); acts as |a,b> -> |a,(b-a) mod d>."""
    return GateMatrix(d, cnot(d).mat.conj().T)


def _apply(g: GateMatrix, state: PureState, positions: tuple[int, ...]) -> np.ndarray:
    """The one gate kernel: g on `positions` (slot order) of `state`'s
    register, identity elsewhere, as a fresh flat amplitude array.

    The gate's axes are moved to the front in slot order, so it is one
    matmul over (d^arity, rest), and moved back. state.amps is never
    written. The gate must fit: one position per qudit it acts on, and the
    register's dimension; it is unitary by construction.
    """
    if g.arity != len(positions) or g.d != state.d:
        raise ValueError(
            f"a d={g.d} arity-{g.arity} gate cannot act on {len(positions)} qudit(s) "
            f"of a d={state.d} register"
        )
    front = tuple(range(g.arity))
    moved = np.moveaxis(state.tensor(), positions, front)
    out = (g.mat @ moved.reshape(g.mat.shape[0], -1)).reshape(moved.shape)
    return np.moveaxis(out, front, positions).reshape(state.amps.size)


def apply_1q(state: PureState, g: GateMatrix, target: int) -> PureState:
    """Apply a one-qudit unitary to the target position, identity elsewhere.

    Runs the shared kernel with the target moved to the front; a gate that
    is not one-qudit or not of the state's d raises ValueError.
    """
    target = _check_int("target", target, 0, state.num_qudits)
    return PureState._trusted(state.d, state.num_qudits, _apply(g, state, (target,)))


def apply_2q(state: PureState, g: GateMatrix, control: int, target: int) -> PureState:
    """Apply a two-qudit unitary with its first slot on control, second on target.

    Positions may be arbitrary and non-adjacent; control != target. Runs the
    shared kernel with both positions moved to the front; a gate that is not
    two-qudit or not of the state's d raises ValueError.
    """
    control = _check_int("control", control, 0, state.num_qudits)
    target = _check_int("target", target, 0, state.num_qudits)
    if control == target:
        raise ValueError("control and target must differ")
    return PureState._trusted(state.d, state.num_qudits, _apply(g, state, (control, target)))
