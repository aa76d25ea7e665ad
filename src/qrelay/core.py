"""Core qudit numerics: roots of unity, basis encoding, pure states.

Register convention is big-endian: qudit 0 is the most significant base-d
digit of the flat amplitude index. All values are immutable once built and
safe to share between threads; amplitude arrays are marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MIN_DIM = 2
MAX_DIM = 16

# make_state silently renormalizes inside this deviation and rejects beyond it
INPUT_NORM_TOL = 1e-9
# constructed values must satisfy their invariants within this
INTERNAL_TOL = 1e-12


class ValidationError(ValueError):
    """User-supplied data violates a documented contract."""


def _check_int(name: str, value: object, lo: int, hi: int | None = None) -> int:
    """The package's one integer rule: an int or numpy integer, never a bool,
    in [lo, hi) (no upper bound if hi is None), returned as a Python int.

    Failures raise ValidationError as `name: reason`, naming the range and
    the value.
    """
    if not isinstance(value, bool) and isinstance(value, (int, np.integer)):
        checked = int(value)
        if lo <= checked and (hi is None or checked < hi):
            return checked
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
    raise ValidationError(f"{name}: must be an integer {bounds}, got {value!r}")


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of amplitudes, inf on overflow: the squared parts summed by
    math.fsum, so no BLAS kernel is involved and every CPU gives the same bits."""
    with np.errstate(over="ignore"):  # finite amplitudes near 1e308 square to inf
        squares = np.square(amps.real).tolist() + np.square(amps.imag).tolist()
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:  # finite squares whose sum passes the largest float
        return math.inf


def check_dim(d: int) -> int:
    return _check_int("d", d, MIN_DIM, MAX_DIM + 1)


def _draw_dit(probs: Sequence[float] | np.ndarray, u: float | np.ndarray) -> np.ndarray | np.integer:
    """Map uniform doubles u in [0, 1) to dits drawn from (unnormalized) probs.

    The package's one sampling rule: every measured or noise dit is one
    rng.random() double mapped through this cdf.
    """
    p = np.asarray(probs, dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def root_of_unity(d: int, k: int) -> complex:
    """k-th power of the primitive d-th root of unity, exp(2*pi*i*k/d).

    root_of_unity(d, d - k) is exactly the conjugate of root_of_unity(d, k).
    """
    d = check_dim(d)
    k = _check_int("k", k, 0, d)
    if 2 * k > d:
        return root_of_unity(d, d - k).conjugate()
    # quadrant angles come out exact instead of carrying sin/cos rounding
    if k == 0:
        return complex(1.0, 0.0)
    if 2 * k == d:
        return complex(-1.0, 0.0)
    if 4 * k == d:
        return complex(0.0, 1.0)
    angle = 2.0 * math.pi * k / d
    return complex(math.cos(angle), math.sin(angle))


def phase_exponent(a: int, b: int, d: int) -> int:
    """Phase exponent (d - a*b) mod d carried by the post-hop expansion.

    Always lies in [0, d); equals the additive inverse of a*b mod d, so the
    matching correction exponent is a itself.
    """
    d = check_dim(d)
    return (d - _check_int("a", a, 0, d) * _check_int("b", b, 0, d)) % d


def flat_index(d: int, digits: Sequence[int]) -> int:
    """Big-endian base-d positional encoding of a digit string."""
    d = check_dim(d)
    index = 0
    for pos, digit in enumerate(digits):
        index = index * d + _check_int(f"digit[{pos}]", digit, 0, d)
    return index


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over a register of num_qudits qudits.

    Compared by identity; use np.allclose on .amps for value comparisons.
    Direct construction copies and validates the amplitudes; the package's
    own gate, kron and collapse results go through _trusted instead.
    """

    d: int
    num_qudits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        d, n = check_dim(self.d), _check_int("num_qudits", self.num_qudits, 1)
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (d**n,):
            raise ValueError(f"amplitude vector must have length {d**n} (= {d}^{n}), got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        norm = _norm(amps)
        if abs(norm - 1.0) > INTERNAL_TOL:
            raise ValueError(f"state norm must be 1 within {INTERNAL_TOL}, got {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "num_qudits", n)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _trusted(cls, d: int, num_qudits: int, amps: np.ndarray) -> "PureState":
        """Wrap a fresh complex128 array the caller owns, without validation.

        Only for results of unitary ops or collapses of validated states; the
        invariants are checked by the property tests instead of per call.
        """
        amps.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "d", d)
        object.__setattr__(state, "num_qudits", num_qudits)
        object.__setattr__(state, "amps", amps)
        return state

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qudit (read-only view)."""
        return self.amps.reshape((self.d,) * self.num_qudits)


def basis_state(d: int, num_qudits: int, digits: Sequence[int]) -> PureState:
    """Standard-basis state |digits> with big-endian digit order."""
    d, num_qudits, digits = check_dim(d), _check_int("num_qudits", num_qudits, 1), tuple(digits)
    if len(digits) != num_qudits:
        raise ValueError(f"expected {num_qudits} digits, got {len(digits)}")
    amps = np.zeros(d**num_qudits, dtype=np.complex128)
    amps[flat_index(d, digits)] = 1.0
    return PureState._trusted(d, num_qudits, amps)


def make_state(d: int, amps: Sequence[complex]) -> PureState:
    """Build a state from raw amplitudes, renormalizing small input error.

    A norm deviation of at most INPUT_NORM_TOL is renormalized silently;
    anything larger (including the zero vector) raises ValidationError.
    Amplitude count must be an exact power of d.
    """
    d = check_dim(d)
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < d:
        raise ValidationError(f"amplitudes must be a flat sequence of length >= {d}")
    num_qudits = round(math.log(arr.size, d))
    if d**num_qudits != arr.size:
        raise ValidationError(f"amplitude count {arr.size} is not a power of d={d}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("amplitudes must be finite")
    norm = _norm(arr)
    if abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ValidationError(
            f"amplitudes must be normalized within {INPUT_NORM_TOL} (norm {norm!r})"
        )
    # dividing by the norm leaves it 1 to within rounding, so it is not summed again
    return PureState._trusted(d, num_qudits, arr / norm)


def random_state(d: int, num_qudits: int, rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from complex normal amplitudes."""
    d, num_qudits = check_dim(d), _check_int("num_qudits", num_qudits, 1)
    size = d**num_qudits
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PureState._trusted(d, num_qudits, amps / _norm(amps))


def _check_same_shape(x: PureState, y: PureState) -> None:
    if x.d != y.d or x.num_qudits != y.num_qudits:
        raise ValueError(
            f"shape mismatch: ({x.d}, {x.num_qudits} qudits) vs ({y.d}, {y.num_qudits} qudits)"
        )


def inner_product(x: PureState, y: PureState) -> complex:
    """Raw overlap <x|y> (conjugation on the first argument)."""
    _check_same_shape(x, y)
    return complex(np.vdot(x.amps, y.amps))


def fidelity(x: PureState, y: PureState) -> float:
    """Squared overlap |<x|y>|^2, clipped where unit norms (to 1e-12) round it past 1."""
    return min(abs(inner_product(x, y)) ** 2, 1.0)


def tensor_product(x: PureState, y: PureState) -> PureState:
    """Kronecker product x (x) y; x supplies the most significant digits."""
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} vs {y.d}")
    return PureState._trusted(x.d, x.num_qudits + y.num_qudits, np.kron(x.amps, y.amps))


def reduced_density(state: PureState, keep: int | Sequence[int]) -> np.ndarray:
    """Partial trace keeping the given qudit (or qudits), tracing the rest.

    Returns the read-only (d^k, d^k) complex128 density matrix of the k kept
    qudits, in the order `keep` lists them: the kept axes are moved to the
    front, and the (d^k, rest) matrix M gives M M^dagger. It is not
    re-checked; a property test checks that it is Hermitian, has unit trace
    and is positive semidefinite.
    """
    n = state.num_qudits
    if np.ndim(keep) == 0:
        keep_tuple = (_check_int("keep", keep, 0, n),)
    else:
        keep_tuple = tuple(_check_int(f"keep[{i}]", q, 0, n) for i, q in enumerate(keep))
    if not keep_tuple:
        raise ValueError("must keep at least one qudit")
    if len(set(keep_tuple)) != len(keep_tuple):
        raise ValueError(f"kept qudit indices must be distinct, got {keep_tuple}")
    moved = np.moveaxis(state.tensor(), keep_tuple, range(len(keep_tuple)))
    block = moved.reshape(state.d ** len(keep_tuple), -1)
    rho = block @ block.conj().T
    rho.flags.writeable = False
    return rho
