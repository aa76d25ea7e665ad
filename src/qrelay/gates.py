"""Generalized phase-flip, shift, Fourier and CNOT gates for qudits.

Constructors return small dense unitaries (d or d^2 per side). `GateMatrix`
records once, at construction, whether its matrix is unitary and whether it
is diagonal (Z^r), monomial (one nonzero per column: X, CNOT, CNOT^dagger)
or dense (Fourier). One kernel, `_apply`, serves `apply_1q` and `apply_2q`:
it views the amplitudes as (pre, d, post) or (pre, d, mid, d, post), with the
gate's axes left in place, and makes one pass over the register by the
gate's structure into a fresh array. A diagonal gate is one broadcast
multiply, a monomial gate is d^arity slice copies or scalings, and a dense
gate is one BLAS matmul. The full d^n x d^n operator is never materialized
and no axis is moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import PureState, _check_dit, check_dim, root_of_unity

UNITARITY_TOL = 1e-12


def _unitarity_deviation(mat: np.ndarray) -> float:
    """max |G G^dagger - I|, the number UNITARITY_TOL bounds."""
    return float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))


def _slot_index(d: int, arity: int, flat: int) -> tuple:
    """Index of one gate basis value into the (pre, d, [mid, d,] post) view."""
    index: list = [slice(None)]
    for digit in divmod(flat, d) if arity == 2 else (flat,):
        index += [digit, slice(None)]
    return tuple(index)


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Dense matrix acting on one or two qudits of dimension d.

    Construction records `unitary` (within UNITARITY_TOL) and the structure
    the gate kernel dispatches on, so applying a cached gate costs no scan.
    """

    d: int
    arity: int
    mat: np.ndarray
    unitary: bool = field(init=False, repr=False)
    # a diagonal gate's (real, imaginary or None) parts, shaped (d, 1[, d, 1], 1)
    # to broadcast over the float view (pre, d, [mid, d,] post, 2); else None
    _diagonal: tuple | None = field(init=False, repr=False)
    # one nonzero per column (so per row too, if unitary): X, CNOT, every diagonal
    _monomial: bool = field(init=False, repr=False)

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
        object.__setattr__(self, "unitary", _unitarity_deviation(mat) <= UNITARITY_TOL)
        nonzero = mat != 0
        parts = None
        if not np.any(nonzero & ~np.eye(side, dtype=bool)):
            diagonal = np.diagonal(mat).reshape((self.d, 1) * self.arity + (1,))
            parts = (diagonal.real, diagonal.imag if np.any(diagonal.imag) else None)
        object.__setattr__(self, "_diagonal", parts)
        object.__setattr__(self, "_monomial", bool(np.all(nonzero.sum(axis=0) == 1)))

    @cached_property
    def _terms(self) -> tuple:
        """Per output slice of the view: (out index, ((in index, coeff), ...)),
        one source per slice for a monomial gate."""
        return tuple(
            (
                _slot_index(self.d, self.arity, row),
                tuple(
                    (_slot_index(self.d, self.arity, int(col)), complex(self.mat[row, col]))
                    for col in np.flatnonzero(self.mat[row])
                ),
            )
            for row in range(self.mat.shape[0])
        )

    @cached_property
    def _slots_swapped(self) -> "GateMatrix":
        """The same two-qudit gate with its control and target slots exchanged."""
        d = self.d
        return GateMatrix(d, 2, self.mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d))


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


def _diagonal_product(src: np.ndarray, real: np.ndarray, imag: np.ndarray | None) -> np.ndarray:
    """src * diagonal, each part rounded as wr*xr - wi*xi and wr*xi + wi*xr
    and then added to 0.0, so that a zero part is +0.

    These are the bits a summed product G @ x gives for a diagonal G. numpy's
    complex multiply rounds some products differently, which would move the
    last bits of reported fidelities and phase-corrected amplitudes (and turn
    some zeros to -0.0) in `run`, `enumerate` and `--history` output.
    """
    x = src.view(np.float64).reshape(src.shape + (2,))
    y = x * real
    if imag is not None:
        cross = x * imag
        y[..., 0] -= cross[..., 1]
        y[..., 1] += cross[..., 0]
    y += 0.0
    return y.view(np.complex128).reshape(src.shape)


def _apply(g: GateMatrix, amps: np.ndarray, positions: tuple[int, ...]) -> np.ndarray:
    """The one gate kernel: g on `positions` (slot order) of the register
    whose amplitudes are the flat array `amps`, identity elsewhere.

    The amplitudes are viewed as (pre, d, post), or (pre, d, mid, d, post)
    with the gate's positions in register order, so no axis is moved and
    nothing is copied before the one pass that writes the fresh flat result.
    amps is never written.
    """
    if not g.unitary:
        raise ValueError(
            f"gate must be unitary: this d={g.d} arity-{g.arity} gate has "
            f"max |G G^dagger - I| = {_unitarity_deviation(g.mat):.3e} > {UNITARITY_TOL}"
        )
    d, size = g.d, amps.size
    if len(positions) == 2 and positions[0] > positions[1]:
        g, positions = g._slots_swapped, positions[::-1]
    shape, rest = [], size
    for q in positions:
        # rest: amplitudes from just after the previous gate digit; tail: from q's
        tail = size // d**q
        shape += [rest // tail, d]
        rest = tail // d
    shape.append(rest)
    src = amps.reshape(shape)
    if g._diagonal is not None:
        return _diagonal_product(src, *g._diagonal).reshape(size)
    out = np.empty_like(src)
    pre, post, side = shape[0], shape[-1], g.mat.shape[0]
    if not g._monomial and pre * side * post == size:
        # dense on adjacent axes: one batched GEMM, G @ (pre, side, post)
        np.matmul(g.mat, src.reshape(pre, side, post), out=out.reshape(pre, side, post))
        return out.reshape(size)
    for out_index, sources in g._terms:
        (in_index, coeff), *rest_terms = sources
        if coeff == 1:
            out[out_index] = src[in_index]
        else:
            np.multiply(src[in_index], coeff, out=out[out_index])
        for in_index, coeff in rest_terms:
            out[out_index] += coeff * src[in_index]
    return out.reshape(size)


def apply_1q(state: PureState, g: GateMatrix, target: int) -> PureState:
    """Apply a one-qudit unitary to the target position, identity elsewhere.

    Runs the shared kernel on the (pre, d, post) view of the amplitudes; a
    gate not unitary within UNITARITY_TOL raises ValueError.
    """
    if g.arity != 1:
        raise ValueError(f"apply_1q requires a one-qudit gate, got arity {g.arity}")
    if g.d != state.d:
        raise ValueError(f"gate dimension {g.d} does not match state dimension {state.d}")
    target = _check_dit(target, state.num_qudits, "target")
    return PureState._trusted(state.d, state.num_qudits, _apply(g, state.amps, (target,)))


def apply_2q(state: PureState, g: GateMatrix, control: int, target: int) -> PureState:
    """Apply a two-qudit unitary with its first slot on control, second on target.

    Positions may be arbitrary and non-adjacent; control != target. Runs the
    shared kernel on the (pre, d, mid, d, post) view; a gate not unitary
    within UNITARITY_TOL raises ValueError.
    """
    if g.arity != 2:
        raise ValueError(f"apply_2q requires a two-qudit gate, got arity {g.arity}")
    if g.d != state.d:
        raise ValueError(f"gate dimension {g.d} does not match state dimension {state.d}")
    control = _check_dit(control, state.num_qudits, "control")
    target = _check_dit(target, state.num_qudits, "target")
    if control == target:
        raise ValueError("control and target must differ")
    return PureState._trusted(state.d, state.num_qudits, _apply(g, state.amps, (control, target)))
