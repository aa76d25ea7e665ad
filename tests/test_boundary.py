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
    with pytest.raises((ValidationError, ImpossibleOutcomeError, ResourceLimitError)) as info:
        function(*args, **kwargs)
    names = "|".join(inspect.signature(function).parameters)
    assert re.match(rf"(?:{names})[:.\[]", str(info.value)), str(info.value)


def test_a_huge_register_names_its_count():
    with pytest.raises(ResourceLimitError, match=r"^digits: 16\^30 amplitudes are more than can be allocated$"):
        basis_state(16, (0,) * 30)
    with pytest.raises(ResourceLimitError, match=r"^num_qudits: 16\^30 amplitudes"):
        qrelay.random_state(16, 30, np.random.default_rng(0))


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
