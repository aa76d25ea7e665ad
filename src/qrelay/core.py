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


def check_dim(d: int) -> int:
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
        raise ValidationError(f"d: qudit dimension must be an integer, got {type(d).__name__}")
    if not MIN_DIM <= d <= MAX_DIM:
        raise ValidationError(f"d: qudit dimension must be in [{MIN_DIM}, {MAX_DIM}], got {d}")
    return int(d)


def check_positive_int(name: str, value: object) -> None:
    """Reject anything but a positive int (bool included), naming the field."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name}: must be a positive integer, got {value!r}")


def _draw_dit(probs: Sequence[float] | np.ndarray, u: float | np.ndarray) -> np.ndarray | np.integer:
    """Map uniform doubles u in [0, 1) to dits drawn from (unnormalized) probs.

    The package's one sampling rule: every measured or noise dit is one
    rng.random() double mapped through this cdf.
    """
    p = np.asarray(probs, dtype=np.float64)
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _check_dit(value: int, d: int, name: str) -> int:
    """The package's one dit rule: an int or numpy integer (not a bool) in [0, d)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < d:
        raise ValueError(f"{name} must be an integer in [0, {d}), got {value!r}")
    return int(value)


def root_of_unity(d: int, k: int) -> complex:
    """k-th power of the primitive d-th root of unity, exp(2*pi*i*k/d)."""
    check_dim(d)
    _check_dit(k, d, "k")
    # quadrant angles come out exact instead of carrying sin/cos rounding
    if k == 0:
        return complex(1.0, 0.0)
    if 2 * k == d:
        return complex(-1.0, 0.0)
    if 4 * k == d:
        return complex(0.0, 1.0)
    if 4 * k == 3 * d:
        return complex(0.0, -1.0)
    angle = 2.0 * math.pi * k / d
    return complex(math.cos(angle), math.sin(angle))


def phase_exponent(a: int, b: int, d: int) -> int:
    """Phase exponent (d - a*b) mod d carried by the post-hop expansion.

    Always lies in [0, d); equals the additive inverse of a*b mod d, so the
    matching correction exponent is a itself.
    """
    check_dim(d)
    _check_dit(a, d, "a")
    _check_dit(b, d, "b")
    return (d - a * b) % d


def flat_index(d: int, digits: Sequence[int]) -> int:
    """Big-endian base-d positional encoding of a digit string."""
    check_dim(d)
    index = 0
    for pos, digit in enumerate(digits):
        _check_dit(digit, d, f"digit[{pos}]")
        index = index * d + int(digit)
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
        check_dim(self.d)
        n = self.num_qudits
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"num_qudits must be a positive integer, got {n!r}")
        amps = np.array(self.amps, dtype=np.complex128)
        expected = self.d**self.num_qudits
        if amps.shape != (expected,):
            raise ValueError(
                f"amplitude vector must have length {expected} (= {self.d}^{self.num_qudits}), "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > INTERNAL_TOL:
            raise ValueError(f"state norm must be 1 within {INTERNAL_TOL}, got {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "num_qudits", int(self.num_qudits))
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
    digits = tuple(digits)
    if num_qudits < 1 or len(digits) != num_qudits:
        raise ValueError(f"expected {num_qudits} digits (num_qudits >= 1), got {len(digits)}")
    amps = np.zeros(d**num_qudits, dtype=np.complex128)
    amps[flat_index(d, digits)] = 1.0
    return PureState._trusted(d, num_qudits, amps)


def make_state(d: int, amps: Sequence[complex]) -> PureState:
    """Build a state from raw amplitudes, renormalizing small input error.

    A norm deviation of at most INPUT_NORM_TOL is renormalized silently;
    anything larger (including the zero vector) raises ValidationError.
    Amplitude count must be an exact power of d.
    """
    check_dim(d)
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.ndim != 1 or arr.size < d:
        raise ValidationError(f"amplitudes must be a flat sequence of length >= {d}")
    num_qudits = round(math.log(arr.size, d))
    if d**num_qudits != arr.size:
        raise ValidationError(f"amplitude count {arr.size} is not a power of d={d}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("amplitudes must be finite")
    with np.errstate(over="ignore"):  # finite amplitudes near 1e308 overflow to norm inf
        norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ValidationError(
            f"amplitudes must be normalized within {INPUT_NORM_TOL} (norm {norm!r})"
        )
    return PureState(d, num_qudits, arr / norm)


def random_state(d: int, num_qudits: int, rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from complex normal amplitudes."""
    size = d**num_qudits
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return PureState(d, num_qudits, amps / np.linalg.norm(amps))


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
    qudits. It is not re-checked; a property test checks that it is
    Hermitian, has unit trace and is positive semidefinite.
    """
    keep_tuple = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    if not keep_tuple:
        raise ValueError("must keep at least one qudit")
    if len(set(keep_tuple)) != len(keep_tuple):
        raise ValueError(f"kept qudit indices must be distinct, got {keep_tuple}")
    for q in keep_tuple:
        if not 0 <= q < state.num_qudits:
            raise ValueError(f"qudit index {q} out of range [0, {state.num_qudits})")
    others = [q for q in range(state.num_qudits) if q not in keep_tuple]
    tensor = np.moveaxis(state.tensor(), keep_tuple, range(len(keep_tuple)))
    block = tensor.reshape(state.d ** len(keep_tuple), state.d ** len(others))
    rho = block @ block.conj().T
    rho.flags.writeable = False
    return rho
