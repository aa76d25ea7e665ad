"""State-vector simulation of one-way qudit relay chains.

A single unknown qudit is forwarded hop by hop through three-qudit relay
nodes. Each hop teleports the state using one classical dit and a
phase-only (Z power) correction, which may be applied locally at every
node or once, deferred to the end of the chain. A Z-type channel models
dephasing noise between hops.
"""

from .chain import (
    ChainConfig,
    HistoryEntry,
    NoiseSpec,
    apply_phase_noise,
    enumerate_branches,
    expected_fidelity,
    full_register_chain,
    run_chain,
    run_trajectories,
)
from .core import (
    CorrectionMode,
    ImpossibleOutcomeError,
    PureState,
    ResourceLimitError,
    ValidationError,
    basis_state,
    fidelity,
    inner_product,
    make_state,
    random_state,
    reduced_density,
    tensor_product,
)
from .gates import GateMatrix, apply_1q, apply_2q
from .teleport import hop_expansion, measure_standard, teleport_hop

__version__ = "0.1.0"

# the library's documented face: what README.md and benchmarks/ name, plus the
# exceptions callers catch; gate constructors live in qrelay.gates and result
# records in the modules that return them
__all__ = [
    "ChainConfig",
    "CorrectionMode",
    "GateMatrix",
    "HistoryEntry",
    "ImpossibleOutcomeError",
    "NoiseSpec",
    "PureState",
    "ResourceLimitError",
    "ValidationError",
    "apply_1q",
    "apply_2q",
    "apply_phase_noise",
    "basis_state",
    "enumerate_branches",
    "expected_fidelity",
    "fidelity",
    "full_register_chain",
    "hop_expansion",
    "inner_product",
    "make_state",
    "measure_standard",
    "random_state",
    "reduced_density",
    "run_chain",
    "run_trajectories",
    "teleport_hop",
    "tensor_product",
    "__version__",
]
