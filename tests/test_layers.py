"""The package's module graph is one-way.

`selftest` is the top layer: it imports `cli`, whose reports it checks, and
`cli.main` loads it only for the `selftest` command. `core` owns the
forced-outcome rule that both state-vector oracles apply, the entropy rule,
the one table of roots of unity and `CorrectionMode`, so `chain` takes no
private name from `teleport`. `core` also owns the closed-form engine that
`run` and `enumerate` report from, and imports no package module, so the
engine cannot reach the state-vector oracle in `chain`; `cli` imports only
`core`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrelay
import qrelay.chain
import qrelay.core
import qrelay.teleport

SRC = Path(__file__).resolve().parent.parent / "src" / "qrelay"
MODULES = {path.stem: ast.parse(path.read_text(), filename=path.name) for path in sorted(SRC.glob("*.py"))}


def _function_level_imports(tree: ast.Module) -> list[str]:
    """The name of the function around each import statement inside a function body."""
    return sorted(
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )


def _package_source(node: ast.ImportFrom) -> str | None:
    """The package module a `from ... import` reads from: `x` for `from .x` and
    `from qrelay.x`, "" for `from .` and `from qrelay`, None outside the package."""
    if node.level == 1 or (node.module or "").split(".")[0] == "qrelay":
        return (node.module or "").removeprefix("qrelay").removeprefix(".")
    return None


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports when it loads: `from . import x`,
    `from .x import ...`, `import qrelay.x`, `from qrelay import x` and
    `from qrelay.x import ...`."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("qrelay.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (source := _package_source(node)) is not None:
            found.update([source] if source else [alias.name for alias in node.names])
    return found & set(MODULES)


def test_run_and_enumerate_do_not_load_the_selftest():
    script = (
        "import contextlib, io, sys\n"
        "import qrelay.cli\n"
        "for argv in (['run', '--trials', '3'], ['enumerate', '--d', '2', '--n', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert qrelay.cli.main(argv) == 0, argv\n"
        "    assert 'qrelay.selftest' not in sys.modules, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_only_function_level_import_is_the_selftest_command():
    found = {name: _function_level_imports(tree) for name, tree in MODULES.items()}
    assert {name: functions for name, functions in found.items() if functions} == {"cli": ["main"]}


def test_the_module_graph_has_no_cycle():
    graph = {name: _module_level_imports(tree) for name, tree in MODULES.items()}
    assert not any("selftest" in imports for imports in graph.values())
    done: set[str] = set()
    while len(done) < len(graph):
        ready = [name for name, imports in graph.items() if name not in done and imports <= done]
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done.update(ready)


def _definitions(tree: ast.Module) -> set[str]:
    """Every function, class and assigned name a module defines, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            found.add(node.id)
    return found


CORE_NAMES = (
    # the closed-form engine that `run` and `enumerate` report from
    "PROBABILITY_TOL", "DEFAULT_PATH_BUDGET", "NoiseSpec", "_check_noise", "ChainConfig", "TrajectoryBatch",
    "_trial_stream", "fidelity_table", "_phase_pairs", "run_trajectories", "_cyclic_convolution",
    "expected_fidelity", "_enumeration_exponent",
    # the forced-outcome rule, the entropy rule, the correction modes and the roots of unity
    "_check_possible", "FORCED_OUTCOME_MIN_PROB", "ImpossibleOutcomeError", "_entropy",
    "ENTROPY_EIGENVALUE_FLOOR", "CorrectionMode", "_roots",
)


@pytest.mark.parametrize("rule", CORE_NAMES)
def test_core_alone_defines(rule):
    defined = {name: _definitions(tree) for name, tree in MODULES.items()}
    assert [name for name, names in defined.items() if rule in names] == ["core"]


def test_the_core_names_elsewhere_are_cores_objects():
    for name in CORE_NAMES:
        if name in qrelay.__all__:
            assert getattr(qrelay, name) is getattr(qrelay.core, name), name
    assert qrelay.chain.NoiseSpec is qrelay.core.NoiseSpec
    assert qrelay.chain.ChainConfig is qrelay.core.ChainConfig
    assert qrelay.ImpossibleOutcomeError is qrelay.teleport.ImpossibleOutcomeError is qrelay.core.ImpossibleOutcomeError


def test_cli_imports_only_core_which_imports_no_package_module():
    assert _module_level_imports(MODULES["cli"]) == {"core"}
    assert _module_level_imports(MODULES["core"]) == set()


def test_the_scope_scans_see_every_import_spelling():
    tree = ast.parse(
        "import qrelay.gates\n"
        "from qrelay import teleport\n"
        "from qrelay.chain import run_chain as oracle\n"
        "from . import selftest\n"
        "from .core import fidelity\n"
    )
    assert _module_level_imports(tree) == {"gates", "teleport", "chain", "selftest", "core"}


def test_core_owns_the_correction_mode_spellings():
    assert qrelay.CorrectionMode is qrelay.core.CorrectionMode is qrelay.teleport.CorrectionMode
    spellings = {mode.value for mode in qrelay.CorrectionMode}
    assert spellings == {"local", "deferred"}
    found = []
    for name, tree in MODULES.items():
        values = {
            id(statement.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "CorrectionMode"
            for statement in node.body
            if isinstance(statement, ast.Assign)
        }
        found += [
            (name, id(node) in values)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in spellings
        ]
    assert found == [("core", True), ("core", True)]


def test_chain_takes_no_private_name_from_teleport():
    private = [
        alias.name
        for node in MODULES["chain"].body
        if isinstance(node, ast.ImportFrom) and node.module == "teleport"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# the calls that can make a root of unity; cmath is matched as a whole module
ROOT_MAKERS = {"math.cos", "math.sin", "np.exp", "numpy.exp"}


def _root_making_calls(tree: ast.Module) -> list[tuple[str, str]]:
    """(enclosing function, callee) for every call that can make a root of unity,
    and (function, module) for every import that would hide one behind a bare name."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                if callee in ROOT_MAKERS or callee.startswith("cmath."):
                    found.append((where, callee))
            elif isinstance(child, ast.Import) and any(alias.name == "cmath" for alias in child.names):
                found.append((where, "cmath"))
            elif isinstance(child, ast.ImportFrom) and (
                child.module == "cmath" or any(alias.name in ("cos", "sin", "exp") for alias in child.names)
            ):
                found.append((where, child.module))
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_core_roots_is_the_only_code_that_makes_a_root_of_unity():
    found = {name: _root_making_calls(tree) for name, tree in MODULES.items()}
    assert {name: calls for name, calls in found.items() if calls} == {
        "core": [("_roots", "math.cos"), ("_roots", "math.sin")]
    }


def test_the_root_scan_sees_every_spelling():
    source = (
        "import cmath\n"
        "from math import cos\n"
        "from math import sqrt\n"
        "def f(k):\n"
        "    return np.exp(k), math.sin(k), cmath.exp(k)\n"
        "def g(k):\n"
        "    def h():\n"
        "        return numpy.exp(k) * math.cos(k)\n"
    )
    assert sorted(_root_making_calls(ast.parse(source))) == [
        ("<module>", "cmath"), ("<module>", "math"),
        ("f", "cmath.exp"), ("f", "math.sin"), ("f", "np.exp"),
        ("h", "math.cos"), ("h", "numpy.exp"),
    ]
