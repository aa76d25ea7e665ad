"""The library's argument rules: every refusal names the parameter it refuses.

Each row of MALFORMED_CALLS is one malformed call of a library function. It
must raise ValidationError, ImpossibleOutcomeError or ResourceLimitError,
and the message must start with the name of one of the called function's
parameters (as in `psi0:`, `noise.probs:` or `forced[1]:`). Any other
exception, or a message that names no parameter, fails the row.
"""

import ast
import inspect
import re
import time
from pathlib import Path

import numpy as np
import pytest

import qrelay
from qrelay import gates
from qrelay.chain import ChainConfig, NoiseSpec, fidelity_table
from qrelay import ResourceLimitError, ValidationError
from qrelay.core import basis_state, make_state
from qrelay.teleport import (
    CorrectionMode,
    ImpossibleOutcomeError,
    apply_correction,
    hop_circuit,
    hop_expansion,
    measure_standard,
    prepare_hop,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "qrelay"

QUTRIT = make_state(3, [0.6, 0.0, 0.8])
QUBIT = make_state(2, [0.6, 0.8])
PAIR = basis_state(3, (1, 1))
CONFIG = ChainConfig(3, 2, CorrectionMode.DEFERRED_FINAL, NoiseSpec.noiseless(3), 0)
SMALL = ChainConfig(2, 1, CorrectionMode.DEFERRED_FINAL, NoiseSpec.noiseless(2), 0)
RNG = np.random.default_rng(0)

REFUSALS = (ValidationError, ImpossibleOutcomeError, ResourceLimitError)


def _names_a_parameter(function, message: str) -> bool:
    """The refusal rule: the message starts with one of the function's parameter
    names, followed by `:`, `.` or `[`. NoiseSpec names its one field `probs`
    by the config key the CLI reports, `noise.probs`."""
    names = ["noise.probs"] if function is NoiseSpec else list(inspect.signature(function).parameters)
    return re.match(rf"(?:{'|'.join(map(re.escape, names))})[:.\[]", message) is not None


# (id, function, positional arguments, keyword arguments)
MALFORMED_CALLS = [
    # a non-state, non-config or non-generator where one belongs
    ("run_chain-psi0-str", qrelay.run_chain, (CONFIG, "psi"), {}),
    ("run_trajectories-config-str", qrelay.run_trajectories, ("cfg", 1), {}),
    ("enumerate_branches-psi0-str", qrelay.enumerate_branches, (SMALL, "x"), {}),
    ("enumerate_branches-config-none", qrelay.enumerate_branches, (None, QUBIT), {}),
    ("expected_fidelity-config-str", qrelay.expected_fidelity, ("cfg", QUTRIT), {}),
    ("fidelity-y-str", qrelay.fidelity, (QUTRIT, "x"), {}),
    ("inner_product-y-none", qrelay.inner_product, (QUTRIT, None), {}),
    ("inner_product-x-list", qrelay.inner_product, ([1.0, 0.0], QUTRIT), {}),
    ("tensor_product-y-str", qrelay.tensor_product, (QUTRIT, "x"), {}),
    ("reduced_density-state-str", qrelay.reduced_density, ("x", 0), {}),
    ("random_state-rng-none", qrelay.random_state, (3, 1, None), {}),
    ("random_state-rng-seed", qrelay.random_state, (3, 1, 7), {}),
    ("measure_standard-state-str", qrelay.measure_standard, ("x", 0), {"forced": 0}),
    ("measure_standard-rng-none", qrelay.measure_standard, (QUTRIT, 0), {}),
    ("measure_standard-rng-seed", qrelay.measure_standard, (QUTRIT, 0), {"rng": 7}),
    ("teleport_hop-rng-none", qrelay.teleport_hop, (QUTRIT, CorrectionMode.DEFERRED_FINAL), {}),
    ("teleport_hop-psi-str", qrelay.teleport_hop, ("x", CorrectionMode.DEFERRED_FINAL), {"forced": (0, 0)}),
    ("apply_phase_noise-rng-none", qrelay.apply_phase_noise, (QUTRIT, NoiseSpec.noiseless(3)), {}),
    ("apply_phase_noise-noise-tuple", qrelay.apply_phase_noise, (QUTRIT, (1.0, 0.0, 0.0)), {"forced": 0}),
    ("apply_1q-state-str", qrelay.apply_1q, ("x", gates.pauli_z(3), 0), {}),
    ("apply_1q-g-array", qrelay.apply_1q, (QUTRIT, np.eye(3), 0), {}),
    ("hop_circuit-psi-str", hop_circuit, ("x",), {}),
    ("prepare_hop-psi-none", prepare_hop, (None,), {}),
    ("hop_expansion-psi-str", hop_expansion, ("x",), {}),
    ("apply_correction-bob-str", apply_correction, ("x", 0), {}),
    ("fidelity_table-psi0-str", fidelity_table, ("x",), {}),
    ("chain_config-noise-tuple", ChainConfig, (3, 2, CorrectionMode.DEFERRED_FINAL, (1.0, 0.0, 0.0), 0), {}),
    # a wrong d or qudit count
    ("fidelity-one-and-two-qudits", qrelay.fidelity, (QUTRIT, PAIR), {}),
    ("inner_product-wrong-d", qrelay.inner_product, (QUTRIT, QUBIT), {}),
    ("tensor_product-wrong-d", qrelay.tensor_product, (QUBIT, QUTRIT), {}),
    ("run_chain-psi0-wrong-d", qrelay.run_chain, (CONFIG, QUBIT), {}),
    ("run_chain-psi0-register", qrelay.run_chain, (CONFIG, PAIR), {}),
    ("expected_fidelity-psi0-wrong-d", qrelay.expected_fidelity, (CONFIG, QUBIT), {}),
    ("full_register_chain-psi0-wrong-d", qrelay.full_register_chain, (3, 1, QUBIT, [(0, 0)]), {}),
    ("hop_circuit-register", hop_circuit, (basis_state(3, (0, 0, 0)),), {}),
    ("hop_expansion-register", hop_expansion, (PAIR,), {}),
    ("apply_correction-register", apply_correction, (PAIR, 1), {}),
    ("fidelity_table-register", fidelity_table, (PAIR,), {}),
    ("apply_phase_noise-register", qrelay.apply_phase_noise, (PAIR, NoiseSpec((0.0, 1.0, 0.0))), {"forced": 1}),
    ("apply_phase_noise-noise-of-d2", qrelay.apply_phase_noise, (QUTRIT, NoiseSpec.noiseless(2)), {"forced": 0}),
    ("chain_config-noise-of-d2", ChainConfig, (3, 2, CorrectionMode.DEFERRED_FINAL, NoiseSpec.noiseless(2), 0), {}),
    ("basis_state-digit-out-of-range", qrelay.basis_state, (3, (0, 3)), {}),
    # digits or a gate matrix that is not a sequence of numbers
    ("basis_state-digits-int", qrelay.basis_state, (3, 5), {}),
    ("basis_state-digits-none", qrelay.basis_state, (3, None), {}),
    ("gate_matrix-string", qrelay.GateMatrix, (3, "x"), {}),
    ("gate_matrix-dict", qrelay.GateMatrix, (5, {}), {}),
    ("gate_matrix-state", qrelay.GateMatrix, (5, QUTRIT), {}),
    # a misfit gate
    ("gate_matrix-1x1", qrelay.GateMatrix, (3, [[1]]), {}),
    ("apply_1q-two-qudit-gate", qrelay.apply_1q, (PAIR, gates.cnot(3), 0), {}),
    ("apply_1q-d2-gate", qrelay.apply_1q, (QUTRIT, gates.pauli_z(2), 0), {}),
    ("apply_2q-one-qudit-gate", qrelay.apply_2q, (PAIR, gates.pauli_z(3), 0, 1), {}),
    ("apply_2q-same-position", qrelay.apply_2q, (PAIR, gates.cnot(3), 1, 1), {}),
    # a duplicate or empty keep
    ("reduced_density-duplicate-keep", qrelay.reduced_density, (PAIR, (0, 0)), {}),
    ("reduced_density-empty-keep", qrelay.reduced_density, (PAIR, ()), {}),
    # malformed or unnormalized amplitudes
    ("make_state-string", qrelay.make_state, (3, "abc"), {}),
    ("pure_state-string", qrelay.PureState, (3, "abc"), {}),
    ("make_state-ragged", qrelay.make_state, (2, [[1.0], [0.0, 1.0]]), {}),
    ("make_state-huge-int", qrelay.make_state, (2, [10**400, 0]), {}),
    ("pure_state-unnormalized", qrelay.PureState, (2, [1.0, 1.0]), {}),
    # a register numpy refuses before allocating it (16^30 amplitudes)
    ("basis_state-huge", qrelay.basis_state, (16, (0,) * 30), {}),
    ("random_state-huge", qrelay.random_state, (16, 30, RNG), {}),
    # a forced outcome that cannot happen
    ("measure_standard-impossible", qrelay.measure_standard, (basis_state(3, (0,)), 0), {"forced": 1}),
]


@pytest.mark.parametrize(
    "function, args, kwargs", [row[1:] for row in MALFORMED_CALLS], ids=[row[0] for row in MALFORMED_CALLS]
)
def test_a_malformed_call_is_refused_by_parameter_name(function, args, kwargs):
    with pytest.raises(REFUSALS) as info:
        function(*args, **kwargs)
    assert _names_a_parameter(function, str(info.value)), str(info.value)


# one valid call of every callable in qrelay.__all__ but the exception classes and
# the CorrectionMode enum lookup, by keyword, one entry per parameter
VALID_CALLS = {
    qrelay.ChainConfig: dict(d=3, n=2, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(3), seed=0),
    qrelay.GateMatrix: dict(d=3, mat=np.eye(3)),
    qrelay.HistoryEntry: dict(state=QUTRIT, r=0),
    qrelay.NoiseSpec: dict(probs=(0.5, 0.5)),
    qrelay.PureState: dict(d=3, amps=[0.6, 0.0, 0.8]),
    qrelay.apply_1q: dict(state=QUTRIT, g=gates.pauli_z(3), target=0),
    qrelay.apply_2q: dict(state=PAIR, g=gates.cnot(3), control=0, target=1),
    qrelay.apply_phase_noise: dict(state=QUTRIT, noise=NoiseSpec((0.5, 0.5, 0.0)), rng=RNG, forced=None),
    qrelay.basis_state: dict(d=16, digits=(1,)),
    qrelay.enumerate_branches: dict(config=CONFIG, psi0=QUTRIT),
    qrelay.expected_fidelity: dict(config=CONFIG, psi0=QUTRIT),
    qrelay.fidelity: dict(x=QUTRIT, y=QUTRIT),
    qrelay.full_register_chain: dict(
        d=3, n=2, psi0=QUTRIT, forced_path=[(0, 1), (2, 0)], mode=CorrectionMode.LOCAL_EACH_HOP
    ),
    qrelay.hop_expansion: dict(psi=QUTRIT),
    qrelay.inner_product: dict(x=QUTRIT, y=QUTRIT),
    qrelay.make_state: dict(d=3, amps=[0.6, 0.0, 0.8]),
    qrelay.measure_standard: dict(state=PAIR, target=1, rng=RNG, forced=None),
    qrelay.random_state: dict(d=16, num_qudits=1, rng=RNG),
    qrelay.reduced_density: dict(state=PAIR, keep=0),
    qrelay.run_chain: dict(config=CONFIG, psi0=QUTRIT, forced_outcomes=None, forced_noise=None, trial=0),
    qrelay.run_trajectories: dict(config=CONFIG, trials=4),
    qrelay.teleport_hop: dict(psi=QUTRIT, mode=CorrectionMode.DEFERRED_FINAL, rng=RNG, forced=None),
    qrelay.tensor_product: dict(x=QUTRIT, y=PAIR),
}
# what the sweep puts in place of one valid argument: a wrong type, None, a bool, a
# float, a numpy integer and a negative number
SWEEP_VALUES = ("x", None, True, 1.5, np.int64(2), -1)
# per parameter name: a value of the wrong d
WRONG_D = {"d": 2, "config": SMALL, "g": gates.pauli_z(2), "noise": NoiseSpec.noiseless(2)}
WRONG_D.update(dict.fromkeys(("state", "psi", "psi0", "x", "y"), QUBIT))
# per parameter name, one count refused before anything is allocated: 10**30 (qudits,
# trials, hops, positions), or for `digits`, which takes a list, 30 digits at the valid
# d = 16 (16^30 amplitudes). No count in between is used, since numpy may accept it and
# try to allocate terabytes
HUGE_COUNT = {"digits": (0,) * 30}


def _sweep_calls(function):
    """The valid call, then each parameter in turn replaced by every sweep value,
    the wrong d and the huge count; one argument at a time, so a huge count
    only ever meets the valid d."""
    valid = VALID_CALLS[function]
    yield "valid", valid
    for name in valid:
        values = [*SWEEP_VALUES, *([WRONG_D[name]] if name in WRONG_D else []), HUGE_COUNT.get(name, 10**30)]
        for value in values:
            yield f"{name}={value!r:.40}", {**valid, name: value}


def test_the_sweep_covers_every_public_callable():
    public = {getattr(qrelay, name) for name in qrelay.__all__}
    exceptions = {item for item in public if isinstance(item, type) and issubclass(item, Exception)}
    assert set(VALID_CALLS) == {item for item in public if callable(item)} - exceptions - {CorrectionMode}
    for function, valid in VALID_CALLS.items():
        assert list(valid) == list(inspect.signature(function).parameters), function


@pytest.mark.parametrize("function", list(VALID_CALLS), ids=[function.__name__ for function in VALID_CALLS])
def test_every_public_call_returns_or_is_refused_by_parameter_name(function):
    """A derandomized sweep: every call returns, or raises one of the three
    refusals with a message that names a parameter. Any other exception fails."""
    for label, kwargs in _sweep_calls(function):
        try:
            function(**kwargs)
        except REFUSALS as exc:
            assert label != "valid", f"the valid call was refused: {exc}"
            assert _names_a_parameter(function, str(exc)), f"{label}: {exc}"
        except Exception as exc:  # anything but a refusal fails the sweep, named by the call
            pytest.fail(f"{function.__name__}({label}) raised {type(exc).__name__}: {exc}")


def test_a_huge_register_names_its_count():
    with pytest.raises(ResourceLimitError, match=r"^digits: 16\^30 amplitudes are more than can be allocated$"):
        basis_state(16, (0,) * 30)
    with pytest.raises(ResourceLimitError, match=r"^num_qudits: 16\^30 amplitudes"):
        qrelay.random_state(16, 30, np.random.default_rng(0))
    # 16^14 amplitudes (1 EiB) are inside the index range: the host's MemoryError is refused the same way
    with pytest.raises(ResourceLimitError, match=r"^digits: 16\^14 amplitudes are more than can be allocated$"):
        basis_state(16, (0,) * 14)
    with pytest.raises(ResourceLimitError, match=r"^num_qudits: 16\^14 amplitudes are more than can be allocated$"):
        qrelay.random_state(16, 14, np.random.default_rng(0))


@pytest.mark.parametrize(
    "name, call",
    [
        ("num_qudits", lambda: qrelay.random_state(16, 10**30, np.random.default_rng(0))),
        ("digits", lambda: basis_state(2, (1,) * 200_000)),
    ],
)
def test_a_count_past_the_index_range_is_refused_before_any_big_integer_work(name, call):
    """16^(10^30) is never built as a Python int, nor a 200,000-digit index folded."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"^{name}: \d+\^\d+ amplitudes are more than can be allocated$"):
        call()
    assert time.perf_counter() - start < 0.1


def test_phase_noise_refuses_a_register():
    """Z^k acts on the one in-flight qudit; a register is refused rather than hit on qudit 0 alone."""
    with pytest.raises(ValidationError, match=r"^state: must be a single qudit, got 2 qudit\(s\) of dimension 3$"):
        qrelay.apply_phase_noise(PAIR, NoiseSpec((0.0, 1.0, 0.0)), forced=1)


def test_malformed_amplitudes_are_named():
    for build in (qrelay.make_state, qrelay.PureState):
        with pytest.raises(ValidationError, match=r"^amps: expected complex amplitudes, got 'abc'$"):
            build(3, "abc")


def test_the_rng_rule_and_the_noise_rule_each_have_one_message():
    for call in (
        lambda: measure_standard(QUTRIT, 0),
        lambda: qrelay.teleport_hop(QUTRIT, CorrectionMode.LOCAL_EACH_HOP),
        lambda: qrelay.apply_phase_noise(QUTRIT, NoiseSpec.noiseless(3)),
        lambda: qrelay.random_state(3, 1, None),
    ):
        with pytest.raises(ValidationError, match=r"^rng: expected Generator, got None$"):
            call()
    for call in (
        lambda: qrelay.apply_phase_noise(QUTRIT, NoiseSpec.noiseless(2), forced=0),
        lambda: ChainConfig(3, 1, CorrectionMode.LOCAL_EACH_HOP, NoiseSpec.noiseless(2), 0),
    ):
        with pytest.raises(ValidationError, match=r"^noise\.probs: expected 3 probabilities, got 2$"):
            call()


def _plain_raises(name: str, source: str) -> list[str]:
    """`raise ValueError(...)` and `raise TypeError(...)` statements (or their bare names) in one file."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append((node.lineno, f"{name}:{node.lineno} raises {exc.id}"))
    return [hit for _, hit in sorted(found)]


def test_the_package_raises_no_plain_value_or_type_error():
    """A refusal is a ValidationError (a ValueError) that names its parameter, never a bare ValueError."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in _plain_raises(path.name, path.read_text())] == []


def test_the_plain_raise_scan_finds_both_forms():
    source = "def f(x):\n    if x:\n        raise ValueError('bad')\n    raise TypeError\n"
    assert _plain_raises("probe.py", source) == ["probe.py:3 raises ValueError", "probe.py:4 raises TypeError"]
