"""The package's module graph is one-way.

`selftest` is the top layer: it imports `cli`, whose reports it checks, and
`cli.main` loads it only for the `selftest` command. `core` owns the
forced-outcome rule that both state-vector oracles apply, the entropy rule
and the one table of roots of unity, so `chain` takes no private name from
`teleport`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qrelay
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


def _module_level_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports when it loads (`from . import x` or `from .x import ...`)."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
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


def test_core_owns_the_forced_outcome_rule():
    defined = {name: _definitions(tree) for name, tree in MODULES.items()}
    for rule in ("_check_possible", "FORCED_OUTCOME_MIN_PROB", "ImpossibleOutcomeError"):
        assert [name for name, names in defined.items() if rule in names] == ["core"], rule
    assert qrelay.ImpossibleOutcomeError is qrelay.teleport.ImpossibleOutcomeError is qrelay.core.ImpossibleOutcomeError


def test_core_owns_the_entropy_rule():
    defined = {name: _definitions(tree) for name, tree in MODULES.items()}
    for rule in ("_entropy", "ENTROPY_EIGENVALUE_FLOOR"):
        assert [name for name, names in defined.items() if rule in names] == ["core"], rule


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
    defined = {name: _definitions(tree) for name, tree in MODULES.items()}
    assert [name for name, names in defined.items() if "_roots" in names] == ["core"]
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
