"""Core qudit numerics: roots of unity, basis encoding, pure states, entropy.

Register convention is big-endian: qudit 0 is the most significant base-d
digit of the flat amplitude index. All values are immutable once built and
safe to share between threads; amplitude arrays are marked read-only.
Every Fourier gate, Z power and hop phase reads w^k from one table per d,
`_roots(d)`, and `_entropy` is the one entropy rule for every register.
This module also owns the library's argument rules (`_check_int`,
`_check_type`, `_check_state`, `_check_forced`, `_forced_or_drawn`,
`_check_possible`): every refusal's message starts with the parameter's name.
`_allocate` is the one allocation rule for every register the library builds.
`CorrectionMode` is defined here, and its values are the modes' one
spelling, so the CLI need not import `teleport`.

The closed-form engine that `qrelay run` and `qrelay enumerate` report from
lives here too, since it needs nothing but these numerics: the configs
(`NoiseSpec`, `ChainConfig`), the draw contract (`_trial_stream`),
`run_trajectories`, `expected_fidelity` and the enumeration preconditions.
Every chain delivers Z^K psi0, so `fidelity_table` gives F[K] by math.fsum
and `_phase_pairs` gives the amplitudes by Python's complex product, both
from `_roots`, and no reported byte comes from a BLAS call. `chain` holds
the state-vector oracle that checks this engine; this module imports no
other module of the package.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

MIN_DIM = 2
MAX_DIM = 16

# make_state silently renormalizes inside this deviation and rejects beyond it
INPUT_NORM_TOL = 1e-9
# constructed values must satisfy their invariants within this
INTERNAL_TOL = 1e-12
# forcing an outcome whose Born probability is below this is a contradiction
FORCED_OUTCOME_MIN_PROB = 1e-15
# eigenvalues below this contribute nothing to entropy
ENTROPY_EIGENVALUE_FLOOR = 1e-14
# noise probabilities must sum to 1 within this, and a fixed channel's one exponent has probability 1 within it
PROBABILITY_TOL = 1e-12
# the most carrier paths (d^n) an exact enumeration walks
DEFAULT_PATH_BUDGET = 4096


class CorrectionMode(enum.Enum):
    """When the accumulated Z corrections are applied. The values are the
    modes' one spelling, in configuration files, flags and reports."""

    LOCAL_EACH_HOP = "local"
    DEFERRED_FINAL = "deferred"


class ValidationError(ValueError):
    """User-supplied data violates a documented contract. Every argument the
    library refuses raises one, and its message starts with the parameter's name."""


class ResourceLimitError(RuntimeError):
    """A run was asked to exceed its stated budget or the memory it can allocate."""


class ImpossibleOutcomeError(ValueError):
    """A forced measurement outcome has (numerically) zero probability."""


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


def _check_type(name: str, value: Any, kind: type) -> Any:
    """The package's one type rule: value is a `kind` (a state, a config, a
    noise spec, a mode, an rng). Returns it."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name}: expected {kind.__name__}, got {value!r}")
    return value


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of amplitudes, inf on overflow: the squared parts summed by
    math.fsum, so no BLAS kernel is involved and every CPU gives the same bits."""
    with np.errstate(over="ignore"):  # finite amplitudes near 1e308 square to inf
        squares = np.square(amps.real).tolist() + np.square(amps.imag).tolist()
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:  # finite squares whose sum passes the largest float
        return math.inf


def _complex_array(name: str, what: str, value: object) -> np.ndarray:
    """The package's one complex-conversion rule: value as a fresh complex128
    array; anything numpy cannot convert raises ValidationError naming `name`."""
    try:
        return np.array(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):  # a string that is no number, a ragged list, a huge int, a dict
        raise ValidationError(f"{name}: expected complex {what}, got {value!r}") from None


def _width(d: int, amps: object) -> tuple[np.ndarray, int]:
    """The package's one amplitude rule: amps converts to a flat array of d^n
    finite complex amplitudes, n >= 1. Returns a fresh complex128 copy and n;
    anything else raises ValidationError naming `amps`."""
    arr = _complex_array("amps", "amplitudes", amps)
    n = round(math.log(arr.size, d)) if arr.ndim == 1 and arr.size >= d else 0
    if n < 1 or d**n != arr.size:
        raise ValidationError(f"amps: amplitudes must form a flat array of d^n, n >= 1 (d={d}), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("amps: amplitudes must be finite")
    return arr, n


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


def _forced_or_drawn(probs: Sequence[float] | np.ndarray, rng: object, forced: object) -> int:
    """The package's one dit rule: `forced` checked on [0, len(probs)) if it is
    given, else one dit drawn from rng's next double through probs."""
    if forced is not None:
        return _check_int("forced", forced, 0, len(probs))
    return int(_draw_dit(probs, _check_type("rng", rng, np.random.Generator).random()))


def _check_possible(name: str, outcome: int, target: int, prob: float) -> None:
    """The forced-outcome rule: refuse, as `name`, an outcome less likely than FORCED_OUTCOME_MIN_PROB."""
    if prob < FORCED_OUTCOME_MIN_PROB:
        raise ImpossibleOutcomeError(f"{name}: outcome {outcome} on qudit {target} has probability {prob:.3e}")


@lru_cache(maxsize=None)
def _roots(d: int) -> tuple[complex, ...]:
    """w^k = exp(2*pi*i*k/d) for k = 0..d-1, the package's one table of roots of
    unity, built once per d. Entry d - k is exactly the conjugate of entry k."""
    # keyed by 4k: the quadrant angles k = 0, d/4, d/2 come out exact instead of carrying sin/cos rounding
    quadrants = {0: complex(1.0, 0.0), d: complex(0.0, 1.0), 2 * d: complex(-1.0, 0.0)}
    roots: list[complex] = []
    for k in range(d):
        if 4 * k in quadrants:
            roots.append(quadrants[4 * k])
        elif 2 * k > d:
            roots.append(roots[d - k].conjugate())
        else:
            roots.append(complex(math.cos(2.0 * math.pi * k / d), math.sin(2.0 * math.pi * k / d)))
    return tuple(roots)


def root_of_unity(d: int, k: int) -> complex:
    """k-th power of the primitive d-th root of unity, exp(2*pi*i*k/d), from `_roots`."""
    d = check_dim(d)
    return _roots(d)[_check_int("k", k, 0, d)]


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
        index = index * d + _check_int(f"digits[{pos}]", digit, 0, d)
    return index


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized d^n amplitudes over a register of n = num_qudits qudits.

    `PureState(d, amps)` derives num_qudits from the amplitudes (`_width`).
    Compared by identity; use np.allclose on .amps for value comparisons.
    Direct construction copies and validates the amplitudes; the package's
    own gate, kron and collapse results go through _trusted instead.
    """

    d: int
    num_qudits: int = field(init=False)
    amps: np.ndarray

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        amps, n = _width(d, self.amps)
        norm = _norm(amps)
        if abs(norm - 1.0) > INTERNAL_TOL:
            raise ValidationError(f"amps: state norm must be 1 within {INTERNAL_TOL}, got {norm!r}")
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


def _check_state(name: str, value: object, d: int | None = None, num_qudits: int | None = None) -> PureState:
    """The package's one state rule: value is a PureState, of dimension d and
    with num_qudits qudits where those are given. Returns it."""
    _check_type(name, value, PureState)
    if (d is not None and value.d != d) or (num_qudits is not None and value.num_qudits != num_qudits):
        count = {None: "a register", 1: "a single qudit"}.get(num_qudits, f"{num_qudits} qudits")
        wanted = count if d is None else f"{count} of dimension {d}"
        raise ValidationError(f"{name}: must be {wanted}, got {value.num_qudits} qudit(s) of dimension {value.d}")
    return value


def _allocate(name: str, d: int, n: int, build: Callable[[int], np.ndarray]) -> np.ndarray:
    """build(d^n), the d^n amplitudes of n qudits: the library's one allocation
    rule. A count whose complex128 array (16 bytes an amplitude) would pass the
    platform's index range (sys.maxsize bytes), or that the host cannot
    allocate (MemoryError), is refused as ResourceLimitError naming `name`.
    d >= 2, so n of sys.maxsize.bit_length() or more is refused before d^n is
    ever built, and numpy is never asked for a size it refuses with ValueError."""
    if n < sys.maxsize.bit_length() and 16 * d**n <= sys.maxsize:
        try:
            return build(d**n)
        except MemoryError:
            pass
    raise ResourceLimitError(f"{name}: {d}^{n} amplitudes are more than can be allocated")


def basis_state(d: int, digits: Sequence[int]) -> PureState:
    """Standard-basis state |digits> with big-endian digit order, one qudit per digit."""
    d = check_dim(d)
    try:
        digits = tuple(digits)
    except TypeError:  # an int, None or anything else that is not a sequence
        raise ValidationError(f"digits: expected a sequence of dits, got {digits!r}") from None
    if not digits:
        raise ValidationError("digits: must list at least one digit, got ()")

    def one_hot(size: int) -> np.ndarray:
        index = flat_index(d, digits)  # the digits are checked before anything is allocated
        amps = np.zeros(size, dtype=np.complex128)
        amps[index] = 1.0
        return amps

    return PureState._trusted(d, len(digits), _allocate("digits", d, len(digits), one_hot))


def make_state(d: int, amps: Sequence[complex]) -> PureState:
    """Build a state from raw amplitudes, renormalizing small input error.

    A norm deviation of at most INPUT_NORM_TOL is renormalized silently;
    anything larger (including the zero vector) raises ValidationError.
    The amplitude count follows `_width`, as for PureState.
    """
    arr, num_qudits = _width(check_dim(d), amps)
    norm = _norm(arr)
    if abs(norm - 1.0) > INPUT_NORM_TOL:
        raise ValidationError(f"amps: amplitudes must be normalized within {INPUT_NORM_TOL} (norm {norm!r})")
    # dividing by the norm leaves it 1 to within rounding, so it is not summed again
    return PureState._trusted(d, num_qudits, arr / norm)


def random_state(d: int, num_qudits: int, rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from complex normal amplitudes."""
    d, num_qudits = check_dim(d), _check_int("num_qudits", num_qudits, 1)
    rng = _check_type("rng", rng, np.random.Generator)

    def draw(size: int) -> np.ndarray:
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return amps / _norm(amps)

    return PureState._trusted(d, num_qudits, _allocate("num_qudits", d, num_qudits, draw))


def inner_product(x: PureState, y: PureState) -> complex:
    """Raw overlap <x|y> (conjugation on the first argument)."""
    _check_state("x", x)
    _check_state("y", y, x.d, x.num_qudits)
    return complex(np.vdot(x.amps, y.amps))


def fidelity(x: PureState, y: PureState) -> float:
    """Squared overlap |<x|y>|^2, clipped where unit norms (to 1e-12) round it past 1."""
    return min(abs(inner_product(x, y)) ** 2, 1.0)


def tensor_product(x: PureState, y: PureState) -> PureState:
    """Kronecker product x (x) y; x supplies the most significant digits. A
    product `_allocate` refuses (past the platform's index range, before
    np.kron runs, or one the host cannot allocate) is a ResourceLimitError
    naming `y`, the operand appended to x."""
    _check_state("x", x)
    _check_state("y", y, x.d)
    n = x.num_qudits + y.num_qudits
    return PureState._trusted(x.d, n, _allocate("y", x.d, n, lambda size: np.kron(x.amps, y.amps)))


def reduced_density(state: PureState, keep: int | Sequence[int]) -> np.ndarray:
    """Partial trace keeping the given qudit (or qudits), tracing the rest.

    Returns the read-only (d^k, d^k) complex128 density matrix of the k kept
    qudits, in the order `keep` lists them: the kept axes are moved to the
    front, and the (d^k, rest) matrix M gives M M^dagger. It is not
    re-checked; a property test checks that it is Hermitian, has unit trace
    and is positive semidefinite.
    """
    n = _check_state("state", state).num_qudits
    if np.ndim(keep) == 0:
        keep_tuple = (_check_int("keep", keep, 0, n),)
    else:
        keep_tuple = tuple(_check_int(f"keep[{i}]", q, 0, n) for i, q in enumerate(keep))
    if not keep_tuple:
        raise ValidationError("keep: must keep at least one qudit")
    if len(set(keep_tuple)) != len(keep_tuple):
        raise ValidationError(f"keep: kept qudit indices must be distinct, got {keep_tuple}")
    moved = np.moveaxis(state.tensor(), keep_tuple, range(len(keep_tuple)))
    block = moved.reshape(state.d ** len(keep_tuple), -1)
    rho = block @ block.conj().T
    rho.flags.writeable = False
    return rho


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


def _trial_stream(seed: int, n: int, trial: int = 0) -> np.random.Generator:
    """default_rng(seed) from trial `trial`'s start; trial i owns doubles [3n*i, 3n*(i+1))."""
    bits = np.random.PCG64(seed)
    bits.advance(3 * n * trial)
    return np.random.Generator(bits)


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
        # einsum sums each row exactly, as sum(axis=1) does, and faster on these small int64 rows
        phase_exponents=np.einsum("ij->i", noise) % d,
        deferred_exponents=None if local else np.einsum("ij->i", results) % d,
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
